"""End-to-end integration tests across the whole library.

These tests exercise the full pipeline — synthetic data generation,
intra-type relationship learning, factorisation, evaluation — and the
qualitative claims of the paper that the benchmarks rely on (HOCC beats
two-way co-clustering, intra-type information helps, robustness to
corruption).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import RHCHME, make_dataset
from repro.core.config import RHCHMEConfig
from repro.data.datasets import make_multi_type_dataset
from repro.data.corpus import sample_corpus
from repro.data.noise import corrupt_rows
from repro.data.topics import TopicModel, TopicModelSpec
from repro.experiments.harness import run_cell
from repro.metrics.fscore import clustering_fscore
from repro.metrics.nmi import normalized_mutual_information


class TestFullPipeline:
    def test_generate_fit_evaluate(self):
        data = make_dataset("multi10-small", random_state=1)
        result = RHCHME(max_iter=12, random_state=1).fit(data)
        documents = data.get_type("documents")
        fscore = clustering_fscore(documents.labels, result.labels["documents"])
        assert fscore > 0.6

    def test_auxiliary_type_clusters_carry_signal(self):
        # Term ground-truth labels are intrinsically noisy at this synthetic
        # scale (many vocabulary terms are shared background), so the check is
        # that at least one auxiliary type (terms or concepts) clusters with
        # clearly-better-than-chance agreement while documents stay accurate.
        data = make_dataset("multi5-small", random_state=0)
        result = RHCHME(max_iter=12, random_state=0).fit(data)
        documents = data.get_type("documents")
        assert clustering_fscore(documents.labels,
                                 result.labels["documents"]) > 0.8
        auxiliary = []
        for name in ("terms", "concepts"):
            labels = data.get_type(name).labels
            auxiliary.append(normalized_mutual_information(labels,
                                                           result.labels[name]))
        assert max(auxiliary) > 0.15

    def test_custom_dataset_via_public_api(self):
        spec = TopicModelSpec(n_classes=3, n_terms=90, n_concepts=20,
                              terms_per_topic=20, background_weight=0.2,
                              doc_length_mean=50.0)
        model = TopicModel(spec, random_state=0)
        sample = sample_corpus(model, [15, 15, 15], random_state=0)
        data = make_multi_type_dataset(sample, document_clusters=3)
        result = RHCHME(max_iter=10, random_state=0).fit(data)
        documents = data.get_type("documents")
        assert clustering_fscore(documents.labels,
                                 result.labels["documents"]) > 0.7


class TestQualitativeClaims:
    @pytest.fixture(scope="class")
    def harder_dataset(self):
        # More vocabulary overlap makes methods distinguishable.
        return make_dataset("multi10-small", random_state=3)

    def test_hocc_competitive_with_two_way(self, harder_dataset):
        hocc = run_cell("SNMTF", harder_dataset, max_iter=15, random_state=0)
        two_way = run_cell("DR-C", harder_dataset, max_iter=15, random_state=0)
        assert hocc.fscore >= two_way.fscore - 0.15

    def test_rhchme_competitive_with_src(self, harder_dataset):
        rhchme = run_cell("RHCHME", harder_dataset, max_iter=15, random_state=0)
        src = run_cell("SRC", harder_dataset, max_iter=15, random_state=0)
        assert rhchme.fscore >= src.fscore - 0.1
        assert rhchme.nmi >= src.nmi - 0.1


class TestRobustnessToCorruption:
    def test_error_matrix_absorbs_corrupted_documents(self):
        # Corrupt a fraction of the document-term rows: at β = 0.3 the
        # exact E step keeps exactly the corrupted documents' rows among
        # the documents, on both backends.
        for backend in ("dense", "sparse"):
            data = make_dataset("multi5-small", random_state=4,
                                noise_scale=0.0)
            doc_term = data.relation_between("documents", "terms")
            corrupted_matrix, corrupted_rows_idx = corrupt_rows(
                doc_term.matrix, fraction=0.1, magnitude=3.0, random_state=0)
            doc_term.matrix[...] = corrupted_matrix

            config = RHCHMEConfig(max_iter=10, random_state=0, beta=0.3,
                                  track_metrics_every=0, backend=backend)
            E = RHCHME(config).fit(data).state.E_R
            n_docs = data.get_type("documents").n_objects
            kept_docs = E.rows[E.rows < n_docs]
            assert set(kept_docs.tolist()) == set(corrupted_rows_idx.tolist())

    def test_clustering_survives_mild_corruption(self):
        clean = make_dataset("multi5-small", random_state=5,
                             corruption_fraction=0.0)
        corrupted = make_dataset("multi5-small", random_state=5,
                                 corruption_fraction=0.1)
        clean_cell = run_cell("RHCHME", clean, max_iter=10, random_state=0)
        corrupted_cell = run_cell("RHCHME", corrupted, max_iter=10, random_state=0)
        assert corrupted_cell.fscore >= clean_cell.fscore - 0.35


class TestAblations:
    def test_ensemble_members_can_be_disabled(self, ):
        data = make_dataset("multi5-small", random_state=6)
        pnn_only = RHCHME(max_iter=8, random_state=0, alpha=0.0,
                          use_subspace_member=False).fit(data)
        subspace_heavy = RHCHME(max_iter=8, random_state=0, alpha=4.0).fit(data)
        documents = data.get_type("documents")
        for result in (pnn_only, subspace_heavy):
            assert clustering_fscore(documents.labels,
                                     result.labels["documents"]) > 0.5

    def test_row_normalisation_prevents_trivial_solution(self):
        # With a very large graph weight and no row normalisation, graph-
        # regularised NMF is known to collapse towards few clusters; RHCHME's
        # ℓ1 row normalisation must keep several clusters populated.
        data = make_dataset("multi5-small", random_state=7)
        result = RHCHME(max_iter=10, random_state=0, lam=1500.0).fit(data)
        labels = result.labels["documents"]
        assert len(np.unique(labels)) >= 3
