"""Out-of-sample extension: project queries onto a fitted membership block.

A fitted RHCHME factorisation only labels the objects it was trained on.
This module extends a fitted model to *new* objects of one type in the
spirit of anchor/landmark spectral methods: each query's p-NN affinities to
the training objects (the same Eq. 3 neighbourhood and edge-weighting the
ensemble Laplacian was built from) are used to smooth the training
membership block ``G_k`` onto the query,

    g(x) = Σ_{j ∈ pNN(x)} w_j · G_k[j]  /  Σ_j w_j ,

so a query inherits the (soft) cluster memberships of its nearest training
objects, weighted by affinity.  Hard labels are the argmax over the type's
own cluster columns — exactly how training objects are labelled from G.

The computation runs in micro-batches with bounded memory: the neighbour
search structure (:class:`repro.graph.neighbors.QueryIndex`) is built once
per call — or reused across calls when the caller passes a cached index —
and one batch then costs O(batch · n_train) for the neighbour search
(blocked further inside the brute-force path) and O(batch · p) for weights
and smoothing, so millions of queries stream through a fixed-size working
set.
With ``backend="sparse"`` the per-batch query affinity is assembled as a CSR
matrix (p non-zeros per row) and applied as an operator, mirroring the
training-side sparse backend.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .._validation import as_float_array, check_positive_int
from ..exceptions import ShapeError
from ..obs import current_span
from ..graph.neighbors import QueryIndex
from ..graph.weights import WeightingScheme, compute_edge_weights_query
from ..linalg.backend import resolve_backend
from ..linalg.normalize import row_normalize_l1

__all__ = ["Prediction", "out_of_sample_predict"]

_EPS = 1e-12


@dataclass(frozen=True)
class Prediction:
    """Outcome of one out-of-sample batch prediction.

    Attributes
    ----------
    labels:
        ``(n_queries,)`` hard cluster labels (argmax of the smoothed
        membership, in the type's own cluster numbering).
    membership:
        ``(n_queries, c_k)`` soft membership scores, rows ℓ1-normalised.
    n_batches:
        Number of micro-batches the queries were processed in.
    affinity_mass:
        ``(n_queries,)`` total p-NN affinity weight each query collected
        from its training neighbours (before the dead-query fallback), or
        ``None`` when not computed (e.g. responses rebuilt from the wire).
        A query far from the training manifold collects little mass —
        the signal :class:`repro.diagnostics.DriftDetector` scores.
    """

    labels: np.ndarray
    membership: np.ndarray
    n_batches: int
    affinity_mass: np.ndarray | None = None

    @property
    def n_queries(self) -> int:
        """Number of predicted queries."""
        return int(self.labels.shape[0])


def out_of_sample_predict(reference: np.ndarray, membership_block: np.ndarray,
                          queries: np.ndarray, *, p: int = 5,
                          weighting: WeightingScheme | str = WeightingScheme.COSINE,
                          sigma: float = 1.0, backend: str = "auto",
                          batch_size: int = 256,
                          algorithm: str = "auto",
                          index: QueryIndex | None = None) -> Prediction:
    """Assign new objects of one type using a fitted membership block.

    Parameters
    ----------
    reference:
        ``(n_train, d)`` training feature matrix of the type.
    membership_block:
        ``(n_train, c_k)`` fitted membership block ``G_k`` of the type.
    queries:
        ``(n_queries, d)`` feature matrix of the new objects.
    p:
        Neighbour count of the query→training p-NN affinity (clamped to
        ``n_train``; no self-exclusion applies in query mode).
    weighting, sigma:
        Edge weighting scheme (and heat-kernel bandwidth) — use the fitted
        model's configuration so queries see the same affinity the training
        graph was built from.
    backend:
        ``"dense"``, ``"sparse"`` or ``"auto"`` (resolved against the
        training-set size); controls how the per-batch query affinity is
        represented and applied.
    batch_size:
        Micro-batch size bounding peak memory.
    algorithm:
        Neighbour-search backend of the :class:`QueryIndex` built over the
        reference set (ignored when ``index`` is supplied).
    index:
        Optional prebuilt :class:`QueryIndex` over ``reference`` — callers
        serving many requests against the same model (e.g.
        :class:`repro.serve.BatchPredictor`) pass a cached index so the
        KD-tree is not rebuilt per call.

    Notes
    -----
    A query whose affinity to every neighbour is zero (e.g. an all-zero
    feature vector under cosine weighting) falls back to *binary* weights
    over its p nearest training objects, so every query always receives a
    well-defined membership distribution.
    """
    reference = as_float_array(reference, name="reference", ndim=2)
    membership_block = as_float_array(membership_block, name="membership_block",
                                      ndim=2)
    queries = as_float_array(queries, name="queries", ndim=2)
    n_train = reference.shape[0]
    if membership_block.shape[0] != n_train:
        raise ShapeError(
            f"membership_block has {membership_block.shape[0]} rows, expected "
            f"one per training object ({n_train})")
    if queries.shape[1] != reference.shape[1]:
        raise ShapeError(
            f"queries have {queries.shape[1]} features, training objects have "
            f"{reference.shape[1]}")
    batch_size = check_positive_int(batch_size, name="batch_size")
    p = min(check_positive_int(p, name="p"), n_train)
    backend = resolve_backend(backend, n_objects=n_train)
    weighting = WeightingScheme.coerce(weighting)
    if index is None:
        index = QueryIndex(reference, algorithm=algorithm)
    elif index.n_reference != n_train:
        raise ShapeError(
            f"index covers {index.n_reference} reference objects, expected "
            f"{n_train}")
    # Reference row norms are invariant across batches; computing them once
    # here keeps the per-batch cosine weighting at O(batch · p · d).
    reference_norms = (np.linalg.norm(reference, axis=1)
                       if weighting is WeightingScheme.COSINE else None)

    n_queries = queries.shape[0]
    scores = np.empty((n_queries, membership_block.shape[1]), dtype=np.float64)
    affinity_mass = np.empty(n_queries, dtype=np.float64)

    starts = range(0, n_queries, batch_size)
    extension_start = time.perf_counter()
    for start in starts:
        stop = min(start + batch_size, n_queries)
        batch = queries[start:stop]
        neighbours = index.query(batch, p)
        n_batch = batch.shape[0]
        rows = np.repeat(np.arange(n_batch, dtype=np.int64), p)
        cols = neighbours.ravel()
        weights = compute_edge_weights_query(batch, reference, rows, cols,
                                             weighting, sigma=sigma,
                                             reference_norms=reference_norms)
        weights = weights.reshape(n_batch, p)
        # Genuine affinity mass, before the dead-query fallback rewrites
        # the weights: this is the drift-detection signal.
        affinity_mass[start:stop] = weights.sum(axis=1)
        dead = weights.sum(axis=1) <= _EPS
        if np.any(dead):
            weights[dead] = 1.0
        if backend == "sparse":
            affinity = sp.csr_array((weights.ravel(), (rows, cols)),
                                    shape=(n_batch, n_train))
            scores[start:stop] = affinity @ membership_block
        else:
            scores[start:stop] = np.einsum("qp,qpc->qc", weights,
                                           membership_block[neighbours])
    n_batches = len(starts)
    parent = current_span()
    if parent is not None:
        parent.record("compute.extension", extension_start,
                      time.perf_counter(), rows=int(n_queries),
                      n_batches=n_batches, p=int(p))

    membership = row_normalize_l1(scores, copy=False)
    labels = np.argmax(membership, axis=1).astype(np.int64)
    return Prediction(labels=labels, membership=membership,
                      n_batches=n_batches, affinity_mass=affinity_mass)
