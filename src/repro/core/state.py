"""Factorisation state (per-type G blocks, S, E_R) and its initialisation.

Algorithm 2 of the paper initialises the cluster membership matrix G with
k-means on each type's relational profile (its rows of R), the association
matrix S from the first S-update, and the sparse error matrix E_R with zeros.

The state is stored *blocked*: G lives as one ``(n_t, c_t)`` membership
block per object type (``G_blocks``), never as the globally stacked
``(n, c)`` matrix — the global form is block diagonal by construction, so
the stacked representation would inflate memory and every update's work by
the number of types while the off-diagonal zeros carry no information.
``S`` stays a single ``(c, c)`` array (it is tiny — cluster space) and
``E_R`` is one global row-sparse matrix on both backends, which the
blockwise kernels slice into per-pair views for free; it is ``None`` for
the NMTF baselines, which have no error matrix.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from .._validation import (as_float_array, check_non_negative,
                           check_random_state)
from ..cluster.assignments import labels_to_membership
from ..cluster.kmeans import KMeans
from ..exceptions import ShapeError, ValidationError
from ..linalg.blocks import BlockSpec
from ..linalg.normalize import row_normalize_l1
from ..linalg.rowsparse import RowSparseMatrix, as_row_sparse
from ..relational.dataset import MultiTypeRelationalData

__all__ = ["FactorizationState", "initialize_state",
           "initialize_membership_blocks", "warm_start_state",
           "INIT_SMOOTHING", "WARM_START_SMOOTHING"]

#: Uniform mass mixed into the one-hot k-means labels of a cold start
#: (:func:`~repro.cluster.assignments.labels_to_membership`), so the
#: multiplicative updates can move every entry.
INIT_SMOOTHING = 0.2

#: Fraction of uniform mass mixed into each warm-start row after ℓ1
#: normalisation (:func:`warm_start_state`).  The multiplicative updates
#: cannot move an entry off an exact zero, so this floor keeps every
#: cluster reachable for newly arrived objects.
WARM_START_SMOOTHING = 0.05


class FactorizationState:
    """Mutable state of the alternating optimisation.

    Attributes
    ----------
    G_blocks:
        Per-type membership blocks ``G_t`` of shape ``(n_t, c_t)`` (rows
        ℓ1-normalised) — the authoritative storage of G.
    S:
        ``(c, c)`` association matrix (zero diagonal blocks).
    E_R:
        ``(n, n)`` sample-wise sparse error matrix as a
        :class:`~repro.linalg.rowsparse.RowSparseMatrix` holding only the
        rows the L2,1 prox keeps, or ``None`` when the fit carries no
        error matrix (the objective's L2,1 term is then zero).  A dense
        array assigned here is compressed to its non-zero rows.
    object_spec, cluster_spec:
        Block partitions of objects and clusters by type.
    """

    def __init__(self, *, G_blocks: Sequence[np.ndarray],
                 object_spec: BlockSpec, cluster_spec: BlockSpec,
                 S: np.ndarray | None = None,
                 E_R: RowSparseMatrix | np.ndarray | None = None,
                 iteration: int = 0, extras: dict | None = None) -> None:
        self.object_spec = object_spec
        self.cluster_spec = cluster_spec
        blocks = [np.asarray(block, dtype=np.float64) for block in G_blocks]
        expected = list(zip(object_spec.sizes, cluster_spec.sizes))
        if [block.shape for block in blocks] != expected:
            raise ShapeError(
                f"G_blocks have shapes {[b.shape for b in blocks]}, "
                f"expected {expected}")
        self.G_blocks = blocks
        self.S = S
        self.E_R = E_R
        self.iteration = iteration
        self.extras = dict(extras) if extras else {}

    @property
    def E_R(self) -> RowSparseMatrix | None:
        return self._E_R

    @E_R.setter
    def E_R(self, value) -> None:
        self._E_R = as_row_sparse(value)

    def membership_block(self, type_index: int) -> np.ndarray:
        """Return the G block (objects × clusters) of one type."""
        if not 0 <= type_index < len(self.G_blocks):
            raise IndexError(
                f"type index {type_index} out of range [0, {len(self.G_blocks)})")
        return self.G_blocks[type_index]

    def labels_for_type(self, type_index: int) -> np.ndarray:
        """Hard labels of one type (argmax over its own cluster columns)."""
        block = self.membership_block(type_index)
        return np.argmax(block, axis=1).astype(np.int64)

    def copy(self) -> "FactorizationState":
        """Deep copy of the numeric state (block specs are immutable)."""
        return FactorizationState(
            G_blocks=[block.copy() for block in self.G_blocks],
            S=None if self.S is None else self.S.copy(),
            E_R=None if self.E_R is None else self.E_R.copy(),
            object_spec=self.object_spec,
            cluster_spec=self.cluster_spec,
            iteration=self.iteration,
            extras=dict(self.extras))


def _relational_profile(R_pairs: Mapping, object_spec: BlockSpec,
                        index: int):
    """Type ``index``'s observed relation blocks side by side, dense or CSR.

    These are the type's rows of R without R's zero columns: the type's
    own ``(t, t)`` block and every unrelated pair are structurally zero,
    and zero columns change no distance k-means measures.  The blocks are
    keyed by ordered type-index pairs and the global matrix is never
    assembled.  A type with no relation block gets one zero column, so its
    objects all coincide, as they do on their all-zero rows of R.
    """
    pieces = [R_pairs[(index, other)] for other in range(object_spec.n_types)
              if (index, other) in R_pairs]
    if not pieces:
        return np.zeros((object_spec.sizes[index], 1))
    if any(sp.issparse(block) for block in pieces):
        return sp.csr_array(sp.hstack(pieces, format="csr"))
    return np.hstack(pieces)


def initialize_membership_blocks(data: MultiTypeRelationalData,
                                 R_pairs: Mapping, *,
                                 init: str = "kmeans",
                                 random_state=None) -> list[np.ndarray]:
    """Initialise each type's membership block.

    ``init="kmeans"`` clusters each type by k-means on its rows of the
    inter-type matrix R (its relational profile), which is how the paper's
    Algorithm 2 obtains G0, with :data:`INIT_SMOOTHING` of uniform mass mixed
    into the one-hot labels.  ``init="random"`` draws uniform positive
    blocks.  Both variants end with strictly positive, row-ℓ1-normalised
    blocks so the multiplicative updates are well defined.  ``R_pairs``
    maps ordered type-index pairs to dense or CSR relation blocks (see
    :meth:`~repro.relational.MultiTypeRelationalData.relation_blocks`);
    sparse profiles are clustered directly in CSR form
    (:class:`~repro.cluster.kmeans.KMeans` evaluates distances through the
    ``‖x‖² − 2 x·c + ‖c‖²`` expansion), so the initialisation stays
    ``O(nnz)`` — no per-type dense transient.
    """
    rng = check_random_state(random_state)
    object_spec = data.object_block_spec()
    blocks: list[np.ndarray] = []
    for index, object_type in enumerate(data.types):
        n_objects, n_clusters = object_type.n_objects, object_type.n_clusters
        if init == "random":
            block = rng.uniform(0.1, 1.0, size=(n_objects, n_clusters))
        else:
            profile = _relational_profile(R_pairs, object_spec, index)
            seed = int(rng.integers(0, 2**31 - 1))
            if n_clusters >= n_objects:
                labels = np.arange(n_objects) % n_clusters
            else:
                labels = KMeans(n_clusters, n_init=3, max_iter=50,
                                random_state=seed).fit_predict(profile)
            block = labels_to_membership(labels, n_clusters,
                                         smoothing=INIT_SMOOTHING,
                                         random_state=rng)
        blocks.append(row_normalize_l1(block))
    return blocks


def warm_start_state(data: MultiTypeRelationalData,
                     blocks: Mapping[str, np.ndarray], *,
                     association: np.ndarray | None = None,
                     error_matrix: np.ndarray | None = None,
                     smooth_types=None) -> FactorizationState:
    """Build a factorisation state from per-type membership blocks.

    This is the warm-start entry point of the fitter: a caller that already
    holds (approximate) membership blocks for every type — typically the
    blocks of a previously fitted model, extended with rows for newly
    arrived objects — assembles them into an initial state so
    :meth:`repro.core.RHCHME.fit` refines an informed iterate instead of a
    cold k-means initialisation.  The blocks are adopted as the state's
    native per-type storage; no global matrix is stacked.

    Parameters
    ----------
    data:
        The dataset about to be fitted; block shapes are validated against
        its types.
    blocks:
        Mapping from type name to a non-negative
        ``(n_objects, n_clusters)`` membership block.  Every type of
        ``data`` must be present.
    association, error_matrix:
        Optional warm starts for ``S`` and ``E_R`` (zeros when omitted;
        ``S`` is recomputed from ``G`` at the start of the fit anyway).
        ``E_R`` may be a
        :class:`~repro.linalg.rowsparse.RowSparseMatrix` or a dense array,
        which is compressed to its non-zero rows; when omitted the
        all-zero E_R has no stored rows, so a warm start never allocates
        an ``O(n²)`` zero block.
    smooth_types:
        Optional iterable of type names to restrict the
        :data:`WARM_START_SMOOTHING` mix to.
        A delta-scheduled refresh passes its dirty types here: frozen
        clean blocks keep their fitted values exactly (re-normalised
        only), while the blocks that will actually be re-optimised get
        the uniform floor.  ``None`` (default) smooths every type.
    """
    object_spec = data.object_block_spec()
    cluster_spec = data.cluster_block_spec()
    smooth_names = None
    if smooth_types is not None:
        smooth_names = {str(name) for name in smooth_types}
        unknown = sorted(smooth_names - set(data.type_names))
        if unknown:
            raise ValidationError(
                f"smooth_types names unknown object types {unknown}; the "
                f"dataset has {list(data.type_names)}")
    prepared: list[np.ndarray] = []
    for object_type in data.types:
        if object_type.name not in blocks:
            raise ValidationError(
                f"warm start is missing a membership block for type "
                f"{object_type.name!r}; got blocks for {sorted(blocks)}")
        block = as_float_array(blocks[object_type.name],
                               name=f"blocks[{object_type.name!r}]", ndim=2)
        expected = (object_type.n_objects, object_type.n_clusters)
        if block.shape != expected:
            raise ShapeError(
                f"warm-start block for type {object_type.name!r} has shape "
                f"{block.shape}, expected {expected}")
        check_non_negative(block, name=f"blocks[{object_type.name!r}]")
        block = row_normalize_l1(block)
        if smooth_names is None or object_type.name in smooth_names:
            block = ((1.0 - WARM_START_SMOOTHING) * block
                     + WARM_START_SMOOTHING / object_type.n_clusters)
        prepared.append(block)
    n_objects = object_spec.total
    n_clusters = cluster_spec.total
    if association is None:
        association = np.zeros((n_clusters, n_clusters))
    else:
        association = as_float_array(association, name="association", ndim=2)
        if association.shape != (n_clusters, n_clusters):
            raise ShapeError(
                f"association has shape {association.shape}, expected "
                f"{(n_clusters, n_clusters)}")
        association = association.copy()
    if error_matrix is None:
        error_matrix = RowSparseMatrix.zeros((n_objects, n_objects))
    elif isinstance(error_matrix, RowSparseMatrix):
        error_matrix = error_matrix.copy()
    else:
        error_matrix = RowSparseMatrix.from_dense(
            as_float_array(error_matrix, name="error_matrix", ndim=2))
    if error_matrix.shape != (n_objects, n_objects):
        raise ShapeError(
            f"error_matrix has shape {error_matrix.shape}, expected "
            f"{(n_objects, n_objects)}")
    return FactorizationState(G_blocks=prepared, S=association,
                              E_R=error_matrix, object_spec=object_spec,
                              cluster_spec=cluster_spec)


def initialize_state(data: MultiTypeRelationalData, R_pairs: Mapping, *,
                     init: str = "kmeans",
                     random_state=None) -> FactorizationState:
    """Build the initial factorisation state for Algorithm 2.

    ``R_pairs`` is the blocked solver's mapping of per-pair relation
    blocks.  The error matrix starts at zero as a
    :class:`~repro.linalg.rowsparse.RowSparseMatrix` with no stored rows,
    so neither backend allocates an ``O(n²)`` zero block.
    """
    object_spec = data.object_block_spec()
    cluster_spec = data.cluster_block_spec()
    blocks = initialize_membership_blocks(data, R_pairs, init=init,
                                          random_state=random_state)
    n_objects = object_spec.total
    n_clusters = cluster_spec.total
    S = np.zeros((n_clusters, n_clusters))
    E_R = RowSparseMatrix.zeros((n_objects, n_objects))
    return FactorizationState(G_blocks=blocks, S=S, E_R=E_R,
                              object_spec=object_spec,
                              cluster_spec=cluster_spec)
