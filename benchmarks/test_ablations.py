"""Ablation benches for RHCHME's design choices.

Not part of the paper's tables, but they quantify the contribution of each
RHCHME component on the synthetic data:

* heterogeneous ensemble vs its two single-member extremes (α → 0 / ∞);
* with vs without the sparse error matrix under sample-wise corruption;
* with vs without the ℓ1 row normalisation of G at large λ;
* p-NN weighting scheme and neighbour-size sensitivity.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import RHCHMEConfig
from repro.core.rhchme import RHCHME
from repro.data.datasets import make_dataset
from repro.experiments.reporting import rows_to_markdown
from repro.metrics.fscore import clustering_fscore

from conftest import BENCH_SEED

ABLATION_MAX_ITER = 15


@pytest.fixture(scope="module")
def clean_data():
    return make_dataset("multi10-small", random_state=BENCH_SEED)


@pytest.fixture(scope="module")
def corrupted_data():
    return make_dataset("multi10-small", random_state=BENCH_SEED,
                        corruption_fraction=0.15, noise_scale=0.1)


def _fscore(data, **overrides) -> float:
    config = RHCHMEConfig(max_iter=ABLATION_MAX_ITER, random_state=BENCH_SEED,
                          track_metrics_every=0).with_overrides(**overrides)
    result = RHCHME(config).fit(data)
    documents = data.get_type("documents")
    return clustering_fscore(documents.labels, result.labels["documents"])


class TestEnsembleAblation:
    def test_ensemble_members(self, clean_data, capsys):
        rows = [
            {"variant": "heterogeneous (alpha=1)", "fscore": _fscore(clean_data)},
            {"variant": "pNN only (alpha=0)",
             "fscore": _fscore(clean_data, alpha=0.0, use_subspace_member=False)},
            {"variant": "subspace-heavy (alpha=8)",
             "fscore": _fscore(clean_data, alpha=8.0)},
        ]
        with capsys.disabled():
            print("\n\nAblation — ensemble members (FScore, multi10-small)")
            print(rows_to_markdown(rows))
        scores = {row["variant"]: row["fscore"] for row in rows}
        # The heterogeneous ensemble should be competitive with (or better
        # than) either single-member extreme.
        assert scores["heterogeneous (alpha=1)"] >= min(
            scores["pNN only (alpha=0)"], scores["subspace-heavy (alpha=8)"]) - 0.1
        for value in scores.values():
            assert 0.0 <= value <= 1.0


class TestErrorMatrixAblation:
    def test_error_matrix_under_corruption(self, corrupted_data, capsys):
        with_error = _fscore(corrupted_data, use_error_matrix=True)
        without_error = _fscore(corrupted_data, use_error_matrix=False)
        with capsys.disabled():
            print("\n\nAblation — sparse error matrix under 15% row corruption")
            print(rows_to_markdown([
                {"variant": "with E_R (beta=50)", "fscore": with_error},
                {"variant": "without E_R", "fscore": without_error},
            ]))
        # At β = 50 the E step keeps no row, so E_R is empty and the two
        # fits are the same; the check only guards that it never hurts.
        assert with_error >= without_error - 0.1


#: corrupted-multi5 corrupts 15 of its 150 documents; at this β the E
#: step keeps rows in every fit below (23 each).
ROBUST_BETA = 0.2
ROBUST_SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def robust_fits():
    """Per seed: documents' true labels, the fit with E_R and without."""
    fits = []
    for seed in ROBUST_SEEDS:
        data = make_dataset("corrupted-multi5", random_state=seed)
        fits.append((data.get_type("documents").labels, *(
            RHCHME(RHCHMEConfig(beta=ROBUST_BETA, random_state=seed,
                                track_metrics_every=0,
                                use_error_matrix=use)).fit(data)
            for use in (True, False))))
    return fits


class TestErrorMatrixRecovery:
    def test_error_matrix_keeps_rows(self, robust_fits):
        for _, with_error, _ in robust_fits:
            assert with_error.state.E_R.n_stored_rows > 0

    @pytest.mark.xfail(strict=True, reason=(
        "E_R changes no document label even where it keeps rows: at "
        "beta=0.2 on corrupted-multi5 it keeps 23 rows per fit, yet "
        "documents' F is 0.829, 0.821 and 0.547 (seeds 0-2) with and "
        "without E_R, and NMI 0.774, 0.765 and 0.504 against 0.774, 0.765 "
        "and 0.507 without it"))
    def test_error_matrix_raises_document_fscore(self, robust_fits):
        raised = [clustering_fscore(truth, with_error.labels["documents"])
                  > clustering_fscore(truth, without_error.labels["documents"])
                  for truth, with_error, without_error in robust_fits]
        # On most seeds, as the ablation's gate reads.
        assert sum(raised) > len(raised) / 2


class TestTrivialSolutionAblation:
    def test_row_normalisation_at_large_lambda(self, clean_data, capsys):
        from repro.baselines.snmtf import SNMTF
        # RHCHME (with ℓ1 row normalisation) at a very large λ versus the
        # same factorisation without row normalisation (SNMTF-style update).
        rhchme_score = _fscore(clean_data, lam=1500.0)
        snmtf = SNMTF(lam=1500.0, p=5, max_iter=ABLATION_MAX_ITER,
                      random_state=BENCH_SEED,
                      track_metrics_every=0).fit(clean_data)
        documents = clean_data.get_type("documents")
        snmtf_score = clustering_fscore(documents.labels,
                                        snmtf.labels["documents"])
        rhchme_clusters = len(np.unique(
            RHCHME(RHCHMEConfig(max_iter=ABLATION_MAX_ITER, lam=1500.0,
                                random_state=BENCH_SEED, track_metrics_every=0)
                   ).fit(clean_data).labels["documents"]))
        with capsys.disabled():
            print("\n\nAblation — large λ (1500) and the trivial-solution problem")
            print(rows_to_markdown([
                {"variant": "RHCHME (l1-normalised G)", "fscore": rhchme_score,
                 "document clusters used": rhchme_clusters},
                {"variant": "SNMTF-style (no normalisation)", "fscore": snmtf_score,
                 "document clusters used": len(np.unique(snmtf.labels['documents']))},
            ]))
        # The ℓ1-normalised variant must keep using several clusters even at
        # extreme λ (no trivial single-cluster collapse).
        assert rhchme_clusters >= 3


class TestGraphConfigurationAblation:
    def test_weighting_scheme_and_neighbour_size(self, clean_data, capsys):
        rows = []
        for scheme in ("binary", "heat_kernel", "cosine"):
            rows.append({"configuration": f"weighting={scheme}, p=5",
                         "fscore": _fscore(clean_data, weighting=scheme)})
        for p in (3, 10):
            rows.append({"configuration": f"weighting=cosine, p={p}",
                         "fscore": _fscore(clean_data, p=p)})
        with capsys.disabled():
            print("\n\nAblation — pNN weighting scheme and neighbour size")
            print(rows_to_markdown(rows))
        for row in rows:
            assert 0.0 <= row["fscore"] <= 1.0
