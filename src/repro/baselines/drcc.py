"""DRCC-style two-way graph-regularised co-clustering baseline.

The paper uses the co-clustering method of Gu & Zhou ("Co-clustering on
manifolds", DRCC) as a two-way baseline in three configurations:

* **DR-T** — documents × term features;
* **DR-C** — documents × concept features;
* **DR-TC** — documents × concatenated term and concept features.

DRCC factorises a (non-symmetric) data matrix ``X ≈ G S Fᵀ`` with
non-negative row-cluster matrix ``G`` (documents) and column-cluster matrix
``F`` (features), regularised by a p-NN graph Laplacian on each side:

    min ‖X − G S Fᵀ‖²_F + λ tr(Gᵀ L_G G) + μ tr(Fᵀ L_F F)

Because it only models the two-way interaction between one pair of object
types, it cannot exploit the document–term–concept inter-relatedness HOCC
methods use — which is why the paper expects all HOCC methods to beat it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
import time

import numpy as np

from .._validation import check_positive_float, check_positive_int, check_random_state
from ..cluster.assignments import labels_to_membership
from ..cluster.kmeans import KMeans
from ..core.convergence import TraceRecorder
from ..core.rhchme import LabelScores
from ..core.state import INIT_SMOOTHING
from ..graph.laplacian import laplacian
from ..graph.pnn import pnn_affinity
from ..graph.weights import WeightingScheme
from ..linalg.parts import split_parts
from ..linalg.safe import safe_divide, safe_inverse
from ..relational.dataset import MultiTypeRelationalData

__all__ = ["DRCCVariant", "DRCCResult", "DRCC"]


class DRCCVariant(str, Enum):
    """Feature space used by the two-way co-clustering baseline."""

    TERMS = "terms"          # DR-T
    CONCEPTS = "concepts"    # DR-C
    COMBINED = "combined"    # DR-TC

    @classmethod
    def coerce(cls, value: "DRCCVariant | str") -> "DRCCVariant":
        """Accept the enum, its value, or the paper's DR-T/DR-C/DR-TC names."""
        if isinstance(value, cls):
            return value
        aliases = {"dr-t": cls.TERMS, "dr-c": cls.CONCEPTS, "dr-tc": cls.COMBINED}
        key = str(value).strip().lower()
        if key in aliases:
            return aliases[key]
        try:
            return cls(key)
        except ValueError as exc:
            valid = sorted({m.value for m in cls} | set(aliases))
            raise ValueError(
                f"unknown DRCC variant {value!r}; expected one of {valid}") from exc


@dataclass
class DRCCResult:
    """Outcome of one DRCC fit.

    Attributes
    ----------
    labels:
        Document cluster labels (the rows of the factorised matrix).
    feature_labels:
        Cluster labels of the feature side (terms / concepts / combined).
    trace:
        Objective and metric history.
    converged, n_iterations, fit_seconds:
        Convergence bookkeeping.
    """

    labels: np.ndarray
    feature_labels: np.ndarray
    trace: TraceRecorder
    converged: bool
    n_iterations: int
    fit_seconds: float
    extras: dict = field(default_factory=dict)


class DRCC:
    """Two-way graph-regularised co-clustering (DR-T / DR-C / DR-TC).

    Parameters
    ----------
    variant:
        Which feature space to use (see :class:`DRCCVariant`).
    n_row_clusters:
        Number of document clusters; defaults to the dataset's configured
        document cluster count.
    n_col_clusters:
        Number of feature clusters; defaults to ``n_row_clusters``.
    lam, mu:
        Graph regularisation weights on the document and feature sides.
    p, weighting:
        p-NN graph configuration for both regularisers.
    max_iter, tol, random_state, track_metrics_every:
        Optimisation controls.
    """

    method_name = "DRCC"

    def __init__(self, variant: DRCCVariant | str = DRCCVariant.TERMS, *,
                 n_row_clusters: int | None = None, n_col_clusters: int | None = None,
                 lam: float = 1.0, mu: float = 1.0, p: int = 5,
                 weighting: WeightingScheme | str = WeightingScheme.COSINE,
                 max_iter: int = 100, tol: float = 1e-5,
                 random_state: int | None = None,
                 track_metrics_every: int = 1) -> None:
        self.variant = DRCCVariant.coerce(variant)
        self.n_row_clusters = n_row_clusters
        self.n_col_clusters = n_col_clusters
        self.lam = check_positive_float(lam, name="lam", minimum=0.0, inclusive=True)
        self.mu = check_positive_float(mu, name="mu", minimum=0.0, inclusive=True)
        self.p = check_positive_int(p, name="p")
        self.weighting = WeightingScheme.coerce(weighting)
        self.max_iter = check_positive_int(max_iter, name="max_iter")
        self.tol = check_positive_float(tol, name="tol")
        self.random_state = random_state
        self.track_metrics_every = int(track_metrics_every)
        self.result_: DRCCResult | None = None

    # ------------------------------------------------------------- utilities
    def _feature_matrix(self, data: MultiTypeRelationalData) -> np.ndarray:
        """Assemble the documents × features matrix for the chosen variant."""
        names = data.type_names
        doc_term = (data.relation_between("documents", "terms")
                    if "terms" in names else None)
        doc_concept = (data.relation_between("documents", "concepts")
                       if "concepts" in names else None)
        if self.variant is DRCCVariant.TERMS:
            if doc_term is None:
                raise ValueError("dataset has no documents-terms relation for DR-T")
            return doc_term.matrix
        if self.variant is DRCCVariant.CONCEPTS:
            if doc_concept is None:
                raise ValueError("dataset has no documents-concepts relation for DR-C")
            return doc_concept.matrix
        if doc_term is None or doc_concept is None:
            raise ValueError(
                "DR-TC needs both documents-terms and documents-concepts relations")
        return np.hstack([doc_term.matrix, doc_concept.matrix])

    @staticmethod
    def _init_membership(X: np.ndarray, n_clusters: int,
                         rng: np.random.Generator) -> np.ndarray:
        seed = int(rng.integers(0, 2**31 - 1))
        if n_clusters >= X.shape[0]:
            labels = np.arange(X.shape[0]) % n_clusters
        else:
            labels = KMeans(n_clusters, n_init=3, max_iter=50,
                            random_state=seed).fit_predict(X)
        return labels_to_membership(labels, n_clusters,
                                    smoothing=INIT_SMOOTHING, random_state=rng)

    @staticmethod
    def _graph_update(factor: np.ndarray, positive: np.ndarray,
                      negative: np.ndarray, L_parts: tuple | None,
                      weight: float) -> np.ndarray:
        """Shared multiplicative update for G and F with optional graph term.

        ``L_parts`` is the graph Laplacian's ``(L⁺, L⁻)`` split.
        """
        numerator = positive
        denominator = negative
        if L_parts is not None and weight > 0:
            L_pos, L_neg = L_parts
            numerator = numerator + weight * (L_neg @ factor)
            denominator = denominator + weight * (L_pos @ factor)
        ratio = safe_divide(numerator, denominator)
        return factor * np.sqrt(ratio)

    # ------------------------------------------------------------------- fit
    def fit(self, data: MultiTypeRelationalData) -> DRCCResult:
        """Co-cluster documents against the chosen feature space."""
        start = time.perf_counter()
        rng = check_random_state(self.random_state)
        X = self._feature_matrix(data)
        documents = data.get_type("documents")
        n_row_clusters = self.n_row_clusters or documents.n_clusters
        n_col_clusters = self.n_col_clusters or n_row_clusters

        G = self._init_membership(X, n_row_clusters, rng)
        F = self._init_membership(X.T, n_col_clusters, rng)

        # Both Laplacians are fixed for the whole fit: each is split into
        # (L⁺, L⁻) once, not at every update.
        L_rows = split_parts(laplacian(pnn_affinity(
            X, p=min(self.p, X.shape[0] - 1),
            scheme=self.weighting))) if self.lam > 0 else None
        L_cols = split_parts(laplacian(pnn_affinity(
            X.T, p=min(self.p, X.shape[1] - 1),
            scheme=self.weighting))) if self.mu > 0 else None

        trace = TraceRecorder()
        scores = LabelScores()
        converged = False
        iteration = 0
        S = np.zeros((n_row_clusters, n_col_clusters))
        for iteration in range(1, self.max_iter + 1):
            # S update (closed form, ridge-regularised inverses).
            S = safe_inverse(G.T @ G) @ G.T @ X @ F @ safe_inverse(F.T @ F)
            # G update.
            GS_pos, GS_neg = split_parts(X @ F @ S.T)
            GB_pos, GB_neg = split_parts(S @ (F.T @ F) @ S.T)
            G = self._graph_update(G, GS_pos + G @ GB_neg, GS_neg + G @ GB_pos,
                                   L_rows, self.lam)
            # F update.
            FS_pos, FS_neg = split_parts(X.T @ G @ S)
            FB_pos, FB_neg = split_parts(S.T @ (G.T @ G) @ S)
            F = self._graph_update(F, FS_pos + F @ FB_neg, FS_neg + F @ FB_pos,
                                   L_cols, self.mu)

            residual = X - G @ S @ F.T
            objective = float(np.sum(residual * residual))
            metrics: dict[str, float] = {}
            if self.track_metrics_every and documents.has_labels and (
                    iteration % self.track_metrics_every == 0):
                metrics["fscore/documents"], metrics["nmi/documents"] = (
                    scores.score("documents", documents.labels,
                                 np.argmax(G, axis=1)))
            trace.record(iteration, objective, metrics=metrics)
            decrease = trace.last_relative_decrease()
            if 0.0 <= decrease < self.tol:
                converged = True
                break

        result = DRCCResult(labels=np.argmax(G, axis=1).astype(np.int64),
                            feature_labels=np.argmax(F, axis=1).astype(np.int64),
                            trace=trace, converged=converged,
                            n_iterations=iteration,
                            fit_seconds=time.perf_counter() - start,
                            extras={"variant": self.variant.value})
        self.result_ = result
        return result

    def fit_predict(self, data: MultiTypeRelationalData) -> np.ndarray:
        """Fit and return the document labels."""
        return self.fit(data).labels
