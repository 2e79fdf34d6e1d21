"""Tests for repro.cluster.kmeans."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.kmeans import KMeans, kmeans
from repro.metrics.nmi import normalized_mutual_information


def _blobs(seed: int = 0, n_per: int = 30, separation: float = 10.0):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [separation, 0.0], [0.0, separation]])
    points, labels = [], []
    for index, center in enumerate(centers):
        points.append(center + rng.normal(0.0, 0.5, size=(n_per, 2)))
        labels.append(np.full(n_per, index))
    return np.vstack(points), np.concatenate(labels)


class TestKMeans:
    def test_recovers_well_separated_blobs(self):
        X, labels = _blobs()
        predicted = KMeans(3, random_state=0).fit_predict(X)
        assert normalized_mutual_information(labels, predicted) > 0.95

    def test_result_fields(self):
        X, _ = _blobs()
        result = KMeans(3, random_state=0).fit(X)
        assert result.labels.shape == (X.shape[0],)
        assert result.centers.shape == (3, 2)
        assert result.inertia >= 0.0
        assert result.n_iterations >= 1

    def test_labels_in_range(self):
        X, _ = _blobs()
        labels = KMeans(3, random_state=1).fit_predict(X)
        assert set(np.unique(labels)).issubset(set(range(3)))

    def test_all_clusters_populated(self):
        X, _ = _blobs()
        labels = KMeans(3, random_state=2).fit_predict(X)
        assert len(np.unique(labels)) == 3

    def test_deterministic_with_seed(self):
        X, _ = _blobs()
        a = KMeans(3, random_state=5).fit_predict(X)
        b = KMeans(3, random_state=5).fit_predict(X)
        np.testing.assert_array_equal(a, b)

    def test_more_restarts_never_worse(self):
        X, _ = _blobs(seed=3, separation=3.0)
        single = KMeans(3, n_init=1, random_state=0).fit(X)
        multiple = KMeans(3, n_init=8, random_state=0).fit(X)
        assert multiple.inertia <= single.inertia + 1e-9

    def test_n_clusters_equal_n_samples(self):
        X = np.random.default_rng(0).normal(size=(4, 2))
        result = KMeans(4, random_state=0, n_init=1).fit(X)
        assert len(np.unique(result.labels)) == 4
        assert result.inertia == pytest.approx(0.0, abs=1e-10)

    def test_too_many_clusters_rejected(self):
        with pytest.raises(ValueError):
            KMeans(5).fit(np.zeros((3, 2)))

    def test_functional_wrapper(self):
        X, labels = _blobs()
        predicted = kmeans(X, 3, random_state=0)
        assert normalized_mutual_information(labels, predicted) > 0.95

    def test_identical_points(self):
        X = np.ones((10, 3))
        result = KMeans(2, random_state=0, n_init=1).fit(X)
        assert result.inertia == pytest.approx(0.0, abs=1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(Exception):
            KMeans(0)
        with pytest.raises(Exception):
            KMeans(2, n_init=0)


class TestSparseInput:
    """CSR samples cluster without densifying (the O(nnz) init path)."""

    def _sparse_profile(self, seed=0, n=60, d=40, k=3):
        import scipy.sparse as sp
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, k, size=n)
        dense = np.zeros((n, d))
        for cluster in range(k):
            cols = rng.choice(d, size=6, replace=False)
            members = labels == cluster
            dense[np.ix_(members, cols)] = 1.0 + rng.random(
                (int(members.sum()), cols.size))
        return sp.csr_array(dense), dense, labels

    def test_sparse_matches_dense_labels(self):
        sparse, dense, _ = self._sparse_profile()
        from_sparse = KMeans(3, random_state=0).fit_predict(sparse)
        from_dense = KMeans(3, random_state=0).fit_predict(dense)
        np.testing.assert_array_equal(from_sparse, from_dense)

    def test_sparse_recovers_planted_clusters(self):
        sparse, _, truth = self._sparse_profile(seed=3)
        result = KMeans(3, random_state=0).fit(sparse)
        from repro.metrics.nmi import normalized_mutual_information
        assert normalized_mutual_information(truth, result.labels) > 0.95

    def test_sparse_inertia_matches_dense(self):
        sparse, dense, _ = self._sparse_profile(seed=1)
        import pytest as _pytest
        sparse_fit = KMeans(3, random_state=0).fit(sparse)
        dense_fit = KMeans(3, random_state=0).fit(dense)
        assert sparse_fit.inertia == _pytest.approx(dense_fit.inertia,
                                                    rel=1e-9)

    def test_sparse_nan_rejected(self):
        import scipy.sparse as sp
        import pytest as _pytest
        from repro.exceptions import ValidationError
        bad = np.ones((6, 4))
        bad[2, 1] = np.nan
        with _pytest.raises(ValidationError):
            KMeans(2, random_state=0).fit(sp.csr_array(bad))


# ------------------------------------------------------------ reference code
#
# The per-cluster Lloyd loop and the difference-based k-means++ distances
# that the one-product centre update and the expansion replaced.

def _mean_by_mask(X, members):
    import scipy.sparse as sp
    if sp.issparse(X):
        total = np.asarray(X[members].sum(axis=0)).ravel()
        return total / float(np.count_nonzero(members))
    return X[members].mean(axis=0)


def single_run_by_cluster_loop(model, X, x_sq, rng):
    """``KMeans._single_run`` with the per-cluster centre loop; counts reseeds."""
    from repro.cluster.kmeans import _assign, _dense_row, _plus_plus_init
    centers = _plus_plus_init(X, x_sq, model.n_clusters, rng)
    labels, distances = _assign(X, x_sq, centers)
    reseeds = 0
    for _ in range(model.max_iter):
        new_centers = np.empty_like(centers)
        for cluster in range(model.n_clusters):
            members = labels == cluster
            if not np.any(members):
                farthest = int(np.argmax(distances))
                new_centers[cluster] = _dense_row(X, farthest)
                distances[farthest] = 0.0
                reseeds += 1
            else:
                new_centers[cluster] = _mean_by_mask(X, members)
        shift = float(np.linalg.norm(new_centers - centers))
        scale = max(float(np.linalg.norm(centers)), 1e-12)
        centers = new_centers
        labels, distances = _assign(X, x_sq, centers)
        if shift / scale < model.tol:
            break
    return labels, centers, float(distances.sum()), reseeds


def plus_plus_by_difference(X, n_clusters, rng):
    """Dense k-means++ seeding that materialises ``(X − c)²``."""
    n_samples = X.shape[0]
    centers = np.empty((n_clusters, X.shape[1]))
    centers[0] = X[int(rng.integers(n_samples))]
    closest_sq = np.sum((X - centers[0]) ** 2, axis=1)
    for index in range(1, n_clusters):
        total = float(closest_sq.sum())
        if total <= 0.0:
            choice = int(rng.integers(n_samples))
        else:
            choice = int(rng.choice(n_samples, p=closest_sq / total))
        centers[index] = X[choice]
        np.minimum(closest_sq, np.sum((X - centers[index]) ** 2, axis=1),
                   out=closest_sq)
    return centers


def _bitwise_equal(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
class TestLloydCentreUpdate:
    """One CSR one-hot product gives the per-cluster means bit for bit."""

    def test_sums_equal_per_cluster_means(self, sparse):
        import scipy.sparse as sp
        from repro.cluster.kmeans import _cluster_sums
        rng = np.random.default_rng(0)
        dense = rng.random((700, 90)) * (rng.random((700, 90)) < 0.3)
        X = sp.csr_array(dense) if sparse else dense
        labels = rng.integers(0, 6, size=700)
        counts = np.bincount(labels, minlength=6)
        means = _cluster_sums(X, labels, counts) / counts[:, None]
        for cluster in range(6):
            assert _bitwise_equal(means[cluster],
                                  _mean_by_mask(X, labels == cluster))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_empty_cluster_reseed_matches_cluster_loop(self, sparse, seed):
        # Two distinct points and three clusters: the seeding repeats a
        # centre, so the first Lloyd step finds an empty cluster.
        import scipy.sparse as sp
        from repro.cluster.kmeans import _row_sq_norms
        dense = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0],
                          [5.0, 5.0], [5.0, 5.0]])
        X = sp.csr_array(dense) if sparse else dense
        model = KMeans(3, n_init=1, random_state=seed)
        x_sq = _row_sq_norms(X)
        labels, centers, inertia, reseeds = single_run_by_cluster_loop(
            model, X, x_sq, np.random.default_rng(seed))
        assert reseeds > 0
        result = model._single_run(X, x_sq, np.random.default_rng(seed))
        np.testing.assert_array_equal(result.labels, labels)
        assert _bitwise_equal(result.centers, centers)
        assert result.inertia == inertia


class TestPlusPlusExpansion:
    """The expansion seeds the same centres as ``(X − c)²`` on real profiles."""

    @pytest.mark.parametrize("preset", ["multi5-small", "r-top10-small"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_centres_as_difference_seeding(self, preset, seed):
        from repro.cluster.kmeans import _plus_plus_init, _row_sq_norms
        from repro.core.state import _relational_profile
        from repro.data import make_dataset
        data = make_dataset(preset, random_state=seed)
        R_pairs = data.relation_blocks(normalize=True)
        spec = data.object_block_spec()
        for index, object_type in enumerate(data.types):
            X = _relational_profile(R_pairs, spec, index)
            k = object_type.n_clusters
            for run in range(3):
                expected = plus_plus_by_difference(
                    X, k, np.random.default_rng([seed, index, run]))
                centers = _plus_plus_init(
                    X, _row_sq_norms(X), k,
                    np.random.default_rng([seed, index, run]))
                assert _bitwise_equal(centers, expected)
