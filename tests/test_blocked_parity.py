"""Blocked-core ↔ dense-oracle parity for the full RHCHME pipeline.

``RHCHME.fit`` runs on the blocked solver core: per-type G blocks,
per-type Laplacians, per-pair relations and blockwise S / G / E_R /
objective kernels.  The contract is checkable against a test-local dense
oracle of Algorithm 2 on the stacked numpy matrices: a blocked fit must
reproduce it — same labels, same per-term objective trajectory — on both
backends, at a β where E_R keeps rows and at the default β, where the E
step's screen keeps none; and the two backends must agree whether their
fits run one after the other or at once on two threads.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import block_diag

from repro.core import RHCHME, RHCHMEConfig
from repro.core.state import initialize_state
from repro.data.datasets import make_dataset
from repro.linalg.parts import split_parts
from repro.linalg.safe import gram_pinv
from repro.manifold.ensemble import HeterogeneousManifoldEnsemble
from repro.runtime import refresh_model

MAX_ITER = 10
SEED = 0
#: A β where the exact E step keeps some of multi5-small's rows, so every
#: parity below covers stored E_R rows.
BETA = 0.3
#: The default β, where the E step's screen clears every row type: the
#: screened path and the cluster-space objective meet the oracle too.
DEFAULT_BETA = RHCHMEConfig().beta
TERMS = ("reconstruction", "error_sparsity", "graph_smoothness")
BACKENDS = ("dense", "sparse")


@pytest.fixture(scope="module")
def multi5_small():
    return make_dataset("multi5-small", random_state=SEED)


def _fit(data, backend: str, beta: float = BETA):
    return RHCHME(max_iter=MAX_ITER, random_state=SEED, backend=backend,
                  beta=beta).fit(data)


@pytest.fixture(scope="module")
def fits(multi5_small):
    return {backend: _fit(multi5_small, backend) for backend in BACKENDS}


@pytest.fixture(scope="module")
def default_beta_fits(multi5_small):
    return {backend: _fit(multi5_small, backend, DEFAULT_BETA)
            for backend in BACKENDS}


@pytest.fixture(scope="module")
def fits_by_threads(multi5_small, fits):
    """Backend-keyed fits run one after the other (1) or at once on two
    threads (2), as a runtime's thread workers may run them."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        concurrent = dict(zip(BACKENDS,
                              pool.map(partial(_fit, multi5_small), BACKENDS)))
    return {1: fits, 2: concurrent}


def _dense(block) -> np.ndarray:
    return block.toarray() if sp.issparse(block) else np.asarray(block)


def _dense_reference_trace(data, *, backend: str, config) -> dict:
    """Test-local dense Algorithm 2 on the stacked matrices.

    Eq. 18 S through the guarded gram pseudo-inverse, Eq. 21–22 G, the
    L2,1 prox for E_R and the Eq. 15 objective, all on stacked ``(n, n)``
    R, L, E_R and ``(n, c)`` G, driven through the blocked fit's exact
    schedule.
    """
    ensemble = HeterogeneousManifoldEnsemble(backend=backend)
    L = block_diag(*[_dense(block) for block in ensemble.build_blocks(data)])
    R_pairs = data.relation_blocks(normalize=True,
                                   backend=ensemble.resolved_backend_)
    objects, clusters = data.object_block_spec(), data.cluster_block_spec()
    R = np.zeros((objects.total, objects.total))
    for (t, u), block in R_pairs.items():
        R[objects.slice(t), objects.slice(u)] = _dense(block)
    state = initialize_state(data, R_pairs, init="kmeans",
                             random_state=SEED)
    G = block_diag(*state.G_blocks)
    E = np.zeros_like(R)
    lam, beta = config.lam, config.beta
    L_pos, L_neg = split_parts(L)

    def update_S():
        gram_inverse = gram_pinv(G.T @ G)
        S = gram_inverse @ (G.T @ (R - E) @ G) @ gram_inverse
        for k in range(clusters.n_types):
            S[clusters.slice(k), clusters.slice(k)] = 0.0
        return S

    def update_G():
        A_pos, A_neg = split_parts((R - E) @ G @ S.T)
        B_pos, B_neg = split_parts(S.T @ (G.T @ G) @ S)
        numerator = lam * (L_neg @ G) + A_pos + G @ B_neg
        denominator = lam * (L_pos @ G) + A_neg + G @ B_pos
        updated = G * np.sqrt(numerator / np.maximum(denominator, 1e-12))
        return updated / updated.sum(axis=1, keepdims=True)

    def update_E():
        residual = R - G @ S @ G.T
        norms = np.linalg.norm(residual, axis=1)
        scale = np.zeros_like(norms)
        alive = 2.0 * norms > beta
        scale[alive] = 1.0 - beta / (2.0 * norms[alive])
        return residual * scale[:, None]

    def objective():
        reconstruction = np.linalg.norm(R - G @ S @ G.T - E) ** 2
        return {"reconstruction": reconstruction,
                "error_sparsity": beta * np.linalg.norm(E, axis=1).sum(),
                "graph_smoothness": lam * np.trace(G.T @ L @ G)}

    S = update_S()
    breakdowns = [objective()]
    for iteration in range(1, MAX_ITER + 1):
        if iteration > 1:
            S = update_S()
        G = update_G()
        E = update_E()
        breakdowns.append(objective())
    labels = {object_type.name: np.argmax(G[objects.slice(index),
                                            clusters.slice(index)], axis=1)
              for index, object_type in enumerate(data.types)}
    return {
        "labels": labels,
        "terms": {term: np.array([b[term] for b in breakdowns])
                  for term in TERMS},
    }


class TestBlockedGlobalParity:
    """The blocked fit against the stacked dense oracle of Algorithm 2."""

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_per_term_trajectories_match_global_kernels(self, multi5_small,
                                                        fits, backend):
        blocked = fits[backend]
        reference = _dense_reference_trace(
            multi5_small, backend=backend,
            config=RHCHME(max_iter=MAX_ITER, beta=BETA).config)
        assert reference["terms"]["error_sparsity"][-1] > 0
        for term in TERMS:
            np.testing.assert_allclose(blocked.trace.terms_series(term),
                                       reference["terms"][term],
                                       rtol=1e-6, atol=1e-10)

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_labels_match_global_kernels(self, multi5_small, fits, backend):
        blocked = fits[backend]
        reference = _dense_reference_trace(
            multi5_small, backend=backend,
            config=RHCHME(max_iter=MAX_ITER, beta=BETA).config)
        for name, labels in reference["labels"].items():
            np.testing.assert_array_equal(blocked.labels[name], labels)

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_default_beta_matches_global_kernels(self, multi5_small,
                                                 default_beta_fits, backend):
        blocked = default_beta_fits[backend]
        reference = _dense_reference_trace(
            multi5_small, backend=backend,
            config=RHCHME(max_iter=MAX_ITER, beta=DEFAULT_BETA).config)
        assert np.all(reference["terms"]["error_sparsity"] == 0)
        assert blocked.state.E_R.is_zero
        for term in TERMS:
            np.testing.assert_allclose(blocked.trace.terms_series(term),
                                       reference["terms"][term],
                                       rtol=1e-6, atol=1e-10)
        for name, labels in reference["labels"].items():
            np.testing.assert_array_equal(blocked.labels[name], labels)


class TestCrossBackendParity:
    """The dense and sparse backends describe one optimisation, on one
    thread or two."""

    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_labels_identical_across_backends(self, fits_by_threads,
                                              n_threads):
        dense = fits_by_threads[n_threads]["dense"]
        sparse = fits_by_threads[n_threads]["sparse"]
        for name in dense.labels:
            np.testing.assert_array_equal(sparse.labels[name],
                                          dense.labels[name])

    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_per_term_trajectories_across_backends(self, fits_by_threads,
                                                   n_threads):
        dense = fits_by_threads[n_threads]["dense"]
        sparse = fits_by_threads[n_threads]["sparse"]
        for term in TERMS:
            np.testing.assert_allclose(sparse.trace.terms_series(term),
                                       dense.trace.terms_series(term),
                                       rtol=1e-7, atol=1e-12)


def _prefix_blobs(n_points: int, *, n_pool: int = 120, n_anchors: int = 36,
                  n_clusters: int = 3, n_features: int = 6, seed: int = 0):
    """Two-type blobs whose first ``n_points`` objects are seed-stable.

    All randomness is drawn for the full pool up front, so the smaller
    dataset is an exact prefix of the larger one — the appended-objects
    shape ``refresh_model`` validates.
    """
    from repro.relational.dataset import MultiTypeRelationalData
    from repro.relational.types import ObjectType, Relation

    rng = np.random.default_rng(seed)
    point_labels = np.arange(n_pool) % n_clusters
    anchor_labels = np.arange(n_anchors) % n_clusters
    point_centers = rng.normal(scale=6.0, size=(n_clusters, n_features))
    anchor_centers = rng.normal(scale=6.0, size=(n_clusters, n_features))
    point_features = point_centers[point_labels] + rng.normal(
        size=(n_pool, n_features))
    anchor_features = anchor_centers[anchor_labels] + rng.normal(
        size=(n_anchors, n_features))
    co_cluster = point_labels[:, None] == anchor_labels[None, :]
    matrix = np.where(co_cluster, 1.0, 0.05) + 0.05 * rng.random(
        (n_pool, n_anchors))
    points = ObjectType("points", n_objects=n_points, n_clusters=n_clusters,
                        features=point_features[:n_points],
                        labels=point_labels[:n_points])
    anchors = ObjectType("anchors", n_objects=n_anchors,
                         n_clusters=n_clusters, features=anchor_features,
                         labels=anchor_labels)
    return MultiTypeRelationalData(
        [points, anchors],
        [Relation("points", "anchors", matrix[:n_points])])


class TestWarmStartRefreshThroughBlockedState:
    """The runtime refresh path must flow through the blocked state intact."""

    def test_refresh_warm_starts_blocked_fit(self):
        fitted_data = _prefix_blobs(90)
        grown_data = _prefix_blobs(120)
        fitted = RHCHME(max_iter=25, random_state=SEED,
                        use_subspace_member=False, track_metrics_every=0)
        result = fitted.fit(fitted_data)
        model = result.to_model(fitted_data, fitted.config)
        outcome = refresh_model(model, grown_data, max_iter=10)
        assert outcome.n_new_objects == 30
        refreshed = outcome.result
        assert refreshed.extras["warm_start"] is True
        # The refreshed state is blocked: per-type G blocks with the grown
        # shapes, and the unchanged training objects keep their labels on
        # the vast majority of objects.
        for index, object_type in enumerate(grown_data.types):
            block = refreshed.state.G_blocks[index]
            assert block.shape == (object_type.n_objects,
                                   object_type.n_clusters)
        n_old = fitted_data.get_type("points").n_objects
        agreement = np.mean(refreshed.labels["points"][:n_old]
                            == result.labels["points"])
        assert agreement >= 0.9
