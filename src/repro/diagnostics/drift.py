"""Serving-time covariate drift detection against training fingerprints.

A *fingerprint* sketches one type's training distribution: per feature,
the quantile bin edges and bin proportions of the training rows plus a
four-moment sketch, and — because the out-of-sample extension already
computes each query's p-NN affinity weights to the training objects —
the distribution of the total *affinity mass* a training-like object
collects from its p neighbours.  :func:`fingerprint_features` builds it
from a bounded sample (cost is capped regardless of training-set size).

Nothing persists a fingerprint.  It is a deterministic function of the
training features every artifact already stores and of the model
config's ``p``, ``weighting`` and ``random_state``, so
:meth:`DriftDetector.from_model` builds each type's fingerprint from
``model.features`` the first time it scores that type.  A lazily mapped
model therefore pages in only the scored types' features, which their
predicts map anyway.

At serving time a :class:`DriftDetector` folds every query batch into
exponentially-decayed histograms over the *fingerprint's own bin edges*
(O(rows · features) binning, O(features · bins) state — batch size never
grows the state) and scores the accumulated window with the population
stability index

    PSI = Σ_b (o_b − e_b) · ln(o_b / e_b)

per feature (``o`` observed, ``e`` expected proportions), plus the same
statistic on the affinity-mass histogram.  PSI ≈ 0 means the live
distribution matches training; the classic rules of thumb read < 0.1 as
stable, 0.1–0.25 as drifting and > 0.25 as shifted.  The affinity-mass
score catches the failure mode feature-wise PSI cannot: queries whose
marginals look fine but that land in the gaps of the training manifold
(low total affinity to every neighbour).
"""

from __future__ import annotations

import threading
from collections.abc import Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from .._validation import as_float_array, check_positive_int
from ..graph.neighbors import QueryIndex
from ..graph.weights import WeightingScheme, compute_edge_weights_query

__all__ = ["FeatureFingerprint", "fingerprint_features",
           "population_stability_index", "DriftScore", "DriftDetector"]

#: Proportion floor inside the PSI logarithm (keeps empty bins finite).
_PSI_FLOOR = 1e-4

#: Default number of quantile bins per histogram.
DEFAULT_BINS = 10

#: Default cap on the number of training rows a fingerprint is built from.
DEFAULT_SAMPLE_SIZE = 512

#: At most this many rows of a served batch are folded into the drift
#: histograms (an even stride sample, counts scaled back up to the batch's
#: mass), capping the per-batch binning cost for large batches without
#: biasing the proportions.
MAX_BINNED_ROWS = 64

#: The PSI evaluation reruns at most every this many batches (and always on
#: the first batch past ``min_rows``); in between, :meth:`DriftDetector.observe`
#: returns the cached statistics with the row accounting updated.  Bounds
#: the hot-path cost; the detection delay it adds is at most three batches.
SCORE_EVERY_BATCHES = 4


def _bin_counts(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Histogram ``values`` over quantile ``edges`` (open outer bins).

    Bins are defined by the *interior* edges only, so every value lands in
    exactly one of ``len(edges) - 1`` bins — outliers beyond the training
    range fall into the first/last bin instead of vanishing, which is
    precisely the mass shift PSI should see.  Duplicate edges (constant
    features) simply leave their bins empty.
    """
    index = np.searchsorted(edges[1:-1], values, side="right")
    return np.bincount(index, minlength=edges.shape[0] - 1).astype(np.float64)


def _bin_counts_matrix(queries: np.ndarray,
                       edges: np.ndarray) -> np.ndarray:
    """All-feature histogram: ``(rows, d)`` queries over ``(d, bins+1)`` edges.

    Vectorised equivalent of :func:`_bin_counts` per feature column, and
    it never materialises per-row bin indices: with ``ge[j, e]`` the
    number of rows at-or-above interior edge ``e`` of feature ``j``
    (one broadcasted comparison), bin counts are just adjacent
    differences of ``ge``.  A handful of numpy calls total — per-call
    dispatch overhead, not element count, dominates at serving batch
    sizes.  Returns ``(d, bins)`` counts.
    """
    n_rows, n_features = queries.shape
    counts = np.empty((n_features, edges.shape[1] - 1))
    # (rows, d, bins-1) >= comparison reduced over rows -> (d, bins-1)
    ge = (queries[:, :, None] >= edges[None, :, 1:-1]).sum(axis=0)
    counts[:, 0] = n_rows
    counts[:, 1:] = ge
    counts[:, :-1] -= ge
    return counts


def _psi_rows(expected_proportions: np.ndarray,
              observed_counts: np.ndarray) -> np.ndarray:
    """Row-wise PSI: ``(d, bins)`` expected vs observed → ``(d,)`` scores.

    Same floor-and-renormalise guard as
    :func:`population_stability_index`; rows with no observed mass
    score 0.
    """
    totals = observed_counts.sum(axis=1, keepdims=True)
    safe_totals = np.where(totals > 0.0, totals, 1.0)
    expected = np.clip(expected_proportions, _PSI_FLOOR, None)
    observed = np.clip(observed_counts / safe_totals, _PSI_FLOOR, None)
    expected = expected / expected.sum(axis=1, keepdims=True)
    observed = observed / observed.sum(axis=1, keepdims=True)
    psi = np.sum((observed - expected) * np.log(observed / expected), axis=1)
    return np.where(totals[:, 0] > 0.0, psi, 0.0)


def population_stability_index(expected_proportions: np.ndarray,
                               observed_counts: np.ndarray) -> float:
    """PSI between a fingerprint's bin proportions and observed counts.

    Returns 0.0 when nothing has been observed.  Both distributions are
    floored at ``1e-4`` and renormalised, the standard guard that keeps
    the statistic finite when a bin is empty on either side.
    """
    observed_counts = np.asarray(observed_counts, dtype=np.float64)
    total = float(observed_counts.sum())
    if total <= 0.0:
        return 0.0
    expected = np.clip(np.asarray(expected_proportions, dtype=np.float64),
                       _PSI_FLOOR, None)
    observed = np.clip(observed_counts / total, _PSI_FLOOR, None)
    expected = expected / expected.sum()
    observed = observed / observed.sum()
    return float(np.sum((observed - expected) * np.log(observed / expected)))


@dataclass(frozen=True)
class FeatureFingerprint:
    """Training-distribution sketch of one type's features.

    Attributes
    ----------
    type_name, n_reference, n_sampled:
        Which type, its training-set size, and how many rows the sketch
        was built from (sampling caps fingerprint cost).
    p, bins:
        Neighbour count of the affinity-mass sketch and histogram width.
    feature_edges, feature_proportions:
        ``(d, bins + 1)`` per-feature quantile bin edges and the
        ``(d, bins)`` training proportions over them.
    mass_edges, mass_proportions:
        The same pair for the p-NN affinity-mass distribution (empty
        arrays when the type was too small to sketch it).
    moments:
        ``{"mean" | "std" | "min" | "max": (d,)}`` per-feature sketch.
    """

    type_name: str
    n_reference: int
    n_sampled: int
    p: int
    bins: int
    feature_edges: np.ndarray
    feature_proportions: np.ndarray
    mass_edges: np.ndarray
    mass_proportions: np.ndarray
    moments: dict[str, np.ndarray]

    @property
    def n_features(self) -> int:
        return int(self.feature_edges.shape[0])

    @property
    def has_mass_sketch(self) -> bool:
        return self.mass_edges.size > 0


def _affinity_masses(features: np.ndarray, sample: np.ndarray,
                     sample_indices: np.ndarray, p: int,
                     weighting) -> np.ndarray | None:
    """Total p-NN affinity mass of each sampled training row.

    Queries ``p + 1`` neighbours and subtracts each row's affinity to
    itself, so the sketch matches what serving-time queries (which are
    *not* in the reference set) will report.  ``None`` when the type is
    too small for a meaningful neighbourhood.
    """
    n = features.shape[0]
    if n < 3 or p < 1:
        return None
    q = min(p + 1, n)
    index = QueryIndex(features)
    neighbours = index.query(sample, q)
    m = sample.shape[0]
    rows = np.repeat(np.arange(m, dtype=np.int64), q)
    cols = neighbours.ravel()
    weights = compute_edge_weights_query(sample, features, rows, cols,
                                         weighting).reshape(m, q)
    self_edges = neighbours == sample_indices[:, None]
    return weights.sum(axis=1) - (weights * self_edges).sum(axis=1)


def fingerprint_features(features, *, p: int = 5,
                         weighting=WeightingScheme.COSINE,
                         bins: int = DEFAULT_BINS,
                         sample_size: int = DEFAULT_SAMPLE_SIZE,
                         random_state: int | None = 0,
                         type_name: str = "") -> FeatureFingerprint:
    """Sketch one type's training feature distribution for drift scoring.

    Moments cover the full training set (one O(n·d) pass); the quantile
    histograms and the affinity-mass sketch are built from at most
    ``sample_size`` rows, so fingerprinting cost is bounded no matter how
    large the training set is.
    """
    features = as_float_array(features, name="features", ndim=2)
    bins = check_positive_int(bins, name="bins")
    sample_size = check_positive_int(sample_size, name="sample_size")
    n, d = features.shape
    moments = {
        "mean": features.mean(axis=0) if n else np.zeros(d),
        "std": features.std(axis=0) if n else np.zeros(d),
        "min": features.min(axis=0) if n else np.zeros(d),
        "max": features.max(axis=0) if n else np.zeros(d),
    }
    if n > sample_size:
        rng = np.random.default_rng(random_state)
        sample_indices = np.sort(rng.choice(n, size=sample_size,
                                            replace=False))
    else:
        sample_indices = np.arange(n, dtype=np.int64)
    sample = features[sample_indices]

    grid = np.linspace(0.0, 1.0, bins + 1)
    m = sample.shape[0]
    feature_edges = np.ascontiguousarray(np.quantile(sample, grid, axis=0).T)
    feature_proportions = _bin_counts_matrix(sample, feature_edges) / m

    masses = _affinity_masses(features, sample, sample_indices, p,
                              WeightingScheme.coerce(weighting))
    if masses is None:
        mass_edges = np.empty(0, dtype=np.float64)
        mass_proportions = np.empty(0, dtype=np.float64)
    else:
        mass_edges = np.quantile(masses, grid)
        mass_proportions = _bin_counts(masses, mass_edges) / m
    return FeatureFingerprint(type_name=type_name or "", n_reference=n,
                              n_sampled=int(sample.shape[0]), p=int(p),
                              bins=bins, feature_edges=feature_edges,
                              feature_proportions=feature_proportions,
                              mass_edges=mass_edges,
                              mass_proportions=mass_proportions,
                              moments=moments)


class _ModelFingerprints(Mapping):
    """A model's fingerprints, each built on first access.

    Keys are the model's featured types, listed without reading a feature
    array.  Looking one up fingerprints ``model.features[name]`` under the
    model config's ``p``, ``weighting`` and ``random_state`` once
    (single-flight under a lock) and keeps the result.
    """

    def __init__(self, model) -> None:
        self._model = model
        self._names = list(model.features)
        self._built: dict[str, FeatureFingerprint] = {}
        self._lock = threading.Lock()

    def __getitem__(self, name: str) -> FeatureFingerprint:
        fingerprint = self._built.get(name)
        if fingerprint is not None:
            return fingerprint
        if name not in self._names:
            raise KeyError(name)
        with self._lock:
            fingerprint = self._built.get(name)
            if fingerprint is None:
                config = self._model.config
                fingerprint = fingerprint_features(
                    self._model.features[name], p=config.p,
                    weighting=config.weighting,
                    random_state=config.random_state, type_name=name)
                self._built[name] = fingerprint
        return fingerprint

    def __contains__(self, name: object) -> bool:
        return name in self._names

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)


@dataclass(frozen=True)
class DriftScore:
    """Drift assessment of one type's accumulated query window."""

    type_name: str
    rows: int
    batches: int
    feature_psi_mean: float
    feature_psi_max: float
    mass_psi: float

    @property
    def score(self) -> float:
        """The scalar drift score: worst of the signals."""
        return max(self.feature_psi_mean, self.mass_psi)

    def as_dict(self) -> dict:
        return {
            "rows": int(self.rows),
            "batches": int(self.batches),
            "feature_psi_mean": round(self.feature_psi_mean, 6),
            "feature_psi_max": round(self.feature_psi_max, 6),
            "mass_psi": round(self.mass_psi, 6),
            "score": round(self.score, 6),
        }


@dataclass
class _TypeWindow:
    """Decayed histogram state of one type (O(features · bins) memory)."""

    feature_counts: np.ndarray
    mass_counts: np.ndarray
    # training proportions with the mass row appended (when sketched),
    # precomputed so the hot path scores features + mass in ONE row-wise
    # PSI call — per-call numpy overhead dominates at serving batch sizes
    expected_stack: np.ndarray | None = None
    rows: int = 0
    batches: int = 0
    scored_at_batch: int = 0
    last: DriftScore | None = None


class DriftDetector:
    """Score live query batches against an artifact's training fingerprints.

    Thread-safe; one detector watches one model.  Per batch the work is
    one pass binning the rows plus an O(features · bins) PSI evaluation —
    constant-size state, no sample retention, so the serving hot path
    pays a near-constant overhead per *batch* regardless of load history.

    Parameters
    ----------
    fingerprints:
        Mapping from type name to its :class:`FeatureFingerprint`, read
        and never mutated: built directly, or the lazily built
        fingerprints of :meth:`DriftDetector.from_model`.
    min_rows:
        Rows a type must accumulate before a score is reported; below it
        :meth:`score` returns ``None`` (a 5-row window saying "drift!"
        would just be noise).
    half_life_rows:
        Exponential forgetting horizon: previously accumulated counts are
        halved every this many newly observed rows, so the window tracks
        the *recent* stream and recovers after a drift episode ends.

    Per batch, at most :data:`MAX_BINNED_ROWS` rows are binned, and the PSI
    is re-evaluated at most every :data:`SCORE_EVERY_BATCHES` batches.
    """

    def __init__(self, fingerprints: Mapping[str, FeatureFingerprint], *,
                 min_rows: int = 64, half_life_rows: int = 4096) -> None:
        self.fingerprints = fingerprints
        self.min_rows = check_positive_int(min_rows, name="min_rows")
        self.half_life_rows = check_positive_int(half_life_rows,
                                                 name="half_life_rows")
        self._lock = threading.Lock()
        self._windows: dict[str, _TypeWindow] = {}

    @classmethod
    def from_model(cls, model, **options) -> "DriftDetector | None":
        """A detector over a model's featured types.

        ``model`` is an :class:`~repro.serve.RHCHMEModel` of any layout
        (anything with ``features`` and ``config``).  Each type's
        fingerprint is built from ``model.features`` the first time a
        batch of that type is scored, so building the detector reads no
        array, and a lazily mapped model maps only the scored types'
        features.  Returns ``None`` when the model has no featured type:
        it cannot receive queries to score.
        """
        fingerprints = _ModelFingerprints(model)
        if not fingerprints:
            return None
        return cls(fingerprints, **options)

    def _window_locked(self, fingerprint: FeatureFingerprint) -> _TypeWindow:
        window = self._windows.get(fingerprint.type_name)
        if window is None:
            expected = fingerprint.feature_proportions
            if fingerprint.has_mass_sketch:
                expected = np.vstack([expected,
                                      fingerprint.mass_proportions[None, :]])
            window = _TypeWindow(
                feature_counts=np.zeros((fingerprint.n_features,
                                         fingerprint.bins)),
                mass_counts=np.zeros(max(fingerprint.mass_proportions.size,
                                         1)),
                expected_stack=expected)
            self._windows[fingerprint.type_name] = window
        return window

    def observe(self, type_name: str, queries,
                affinity_mass=None) -> DriftScore | None:
        """Fold one query batch into the window; return the current score.

        ``affinity_mass`` is the per-query total p-NN weight the
        out-of-sample extension already computed (free to pass along);
        ``None`` skips the mass signal for this batch.  Returns ``None``
        for unknown types or while the window is below ``min_rows``.
        """
        fingerprint = self.fingerprints.get(type_name)
        if fingerprint is None:
            return None
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != fingerprint.n_features \
                or queries.shape[0] == 0:
            return None
        rows = queries.shape[0]
        stride = -(-rows // MAX_BINNED_ROWS)  # ceil division
        sample = queries[::stride] if stride > 1 else queries
        batch_counts = _bin_counts_matrix(sample, fingerprint.feature_edges)
        if stride > 1:
            batch_counts *= rows / sample.shape[0]
        mass_counts = None
        if affinity_mass is not None and fingerprint.has_mass_sketch:
            mass_sample = np.asarray(affinity_mass,
                                     dtype=np.float64).ravel()[::stride]
            mass_counts = _bin_counts(mass_sample, fingerprint.mass_edges)
            if stride > 1:
                mass_counts *= rows / mass_sample.shape[0]
        decay = 0.5 ** (rows / self.half_life_rows)
        with self._lock:
            window = self._window_locked(fingerprint)
            window.feature_counts *= decay
            window.feature_counts += batch_counts
            window.mass_counts *= decay
            if mass_counts is not None:
                window.mass_counts += mass_counts
            window.rows += rows
            window.batches += 1
            if window.rows < self.min_rows:
                window.last = None
                return None
            if window.last is not None and (
                    window.batches - window.scored_at_batch
                    < SCORE_EVERY_BATCHES):
                # cached statistics, fresh accounting — the PSI rerun is
                # throttled to bound the per-batch serving overhead
                score = DriftScore(
                    type_name=type_name, rows=window.rows,
                    batches=window.batches,
                    feature_psi_mean=window.last.feature_psi_mean,
                    feature_psi_max=window.last.feature_psi_max,
                    mass_psi=window.last.mass_psi)
                window.last = score
                return score
            if fingerprint.has_mass_sketch:
                observed = np.vstack([window.feature_counts,
                                      window.mass_counts[None, :]])
                psi = _psi_rows(window.expected_stack, observed)
                per_feature, mass_psi = psi[:-1], float(psi[-1])
            else:
                per_feature = _psi_rows(window.expected_stack,
                                        window.feature_counts)
                mass_psi = 0.0
            score = DriftScore(
                type_name=type_name, rows=window.rows,
                batches=window.batches,
                feature_psi_mean=float(per_feature.mean())
                if per_feature.size else 0.0,
                feature_psi_max=float(per_feature.max())
                if per_feature.size else 0.0,
                mass_psi=mass_psi)
            window.scored_at_batch = window.batches
            window.last = score
            return score

    def score(self, type_name: str) -> float | None:
        """Latest scalar drift score of one type (``None`` = no signal yet)."""
        with self._lock:
            window = self._windows.get(type_name)
            if window is None or window.last is None:
                return None
            return window.last.score

    def snapshot(self) -> dict:
        """Per-type drift state for stats documents and metric exporters."""
        with self._lock:
            document = {}
            for name, window in self._windows.items():
                entry = {"rows": int(window.rows),
                         "batches": int(window.batches)}
                if window.last is not None:
                    entry.update(window.last.as_dict())
                document[name] = entry
            return document

    def reset(self, type_name: str | None = None) -> None:
        """Drop accumulated windows (one type, or all with ``None``)."""
        with self._lock:
            if type_name is None:
                self._windows.clear()
            else:
                self._windows.pop(type_name, None)
