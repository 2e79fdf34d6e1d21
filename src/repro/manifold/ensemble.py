"""The heterogeneous manifold ensemble of RHCHME (Eq. 12).

For each object type with features, two intra-type affinities are learnt:

* ``W^S`` — subspace-membership affinity from multiple-subspace learning
  (complete: any within-subspace pair is connected, however distant);
* ``W^E`` — cosine-weighted p-NN affinity (accurate for close neighbours).

Their graph Laplacians are combined per type as ``L_k = α L_k^S + L_k^E`` and
assembled into the block-diagonal regulariser ``L`` over all n objects.
Setting ``α → 0`` recovers an SNMTF-style pNN-only regulariser and
``α → ∞`` a subspace-only regulariser — the extremes the paper's parameter
study (Fig. 2) explores.

The ensemble supports two compute backends.  With ``backend="sparse"`` the
p-NN member is assembled directly as a CSR matrix (≤ 2p non-zeros per row)
and the block-diagonal ``L`` stays sparse end to end, so no ``(n, n)`` dense
array is ever allocated for the graph pipeline.  ``backend="auto"`` picks
per dataset size (see :mod:`repro.linalg.backend`).  The subspace member —
inherently dense, since any within-subspace pair is connected — is converted
to CSR when it participates in a sparse ensemble so the combined operator
keeps a single representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .._validation import check_positive_float, check_positive_int
from ..graph.laplacian import laplacian
from ..graph.pnn import pnn_affinity
from ..graph.weights import WeightingScheme
from ..linalg.backend import (as_csr, check_backend, numpy_carrier,
                              resolve_backend, topk_rows)
from ..linalg.blocks import block_diagonal
from ..relational.dataset import MultiTypeRelationalData
from ..subspace.representation import SubspaceRepresentation

__all__ = ["HeterogeneousManifoldEnsemble", "build_type_laplacians"]


@dataclass
class _TypeLaplacians:
    """Per-type Laplacian members kept for inspection and ablation.

    ``spg`` is the subspace solve's outcome (see
    :meth:`repro.subspace.SubspaceResult.outcome`), ``None`` when the type
    ran no subspace solve.
    """

    name: str
    subspace: np.ndarray | sp.csr_array | None
    pnn: np.ndarray | sp.csr_array | None
    combined: np.ndarray | sp.csr_array
    spg: dict | None = None


@dataclass
class HeterogeneousManifoldEnsemble:
    """Builder for the block-diagonal heterogeneous ensemble Laplacian.

    Parameters
    ----------
    alpha:
        Trade-off between the subspace member ``L_S`` and the p-NN member
        ``L_E`` (Eq. 12); the paper finds α ∈ [0.25, 2] stable with α = 1 best.
    gamma:
        Noise-tolerance weight of the multiple-subspace objective (Eq. 9).
    p:
        Neighbour size of the p-NN graph (the paper uses p = 5).
    weighting:
        p-NN edge weighting scheme; RHCHME uses cosine similarity.
    laplacian_kind:
        Which Laplacian normalisation to use for both members.
    subspace_max_iter, subspace_tol:
        SPG budget for the subspace representation solver.
    use_subspace, use_pnn:
        Ablation switches disabling one member (the α → {0, ∞} extremes).
    subspace_topk:
        Optional top-k thresholding of the subspace member's affinity (keep
        the k strongest similarities per row, united symmetrically like the
        Eq. 3 p-NN edges).  Bounds the subspace member at 2k non-zeros per
        row, which is what allows a genuinely sparse ensemble even with the
        subspace member active; ``None`` keeps the exact dense affinity.
    scale_by_size:
        Divide each type's Laplacian by its object count so that
        ``tr(Gᵀ L G)`` measures *average* label smoothness per object rather
        than a sum that grows with the dataset.  This keeps the λ grid of the
        paper meaningful on datasets of different sizes and balances the
        regulariser against the (block-normalised) reconstruction term; it is
        a documented implementation deviation (see DESIGN.md).
    backend:
        ``"dense"`` (seed behaviour), ``"sparse"`` (CSR end to end),
        ``"torch"`` (the optional tensor engine; the graph blocks are still
        built in a numpy carrier — see :meth:`graph_carrier`) or ``"auto"``
        (sparse once the dataset's total object count crosses
        :data:`repro.linalg.backend.AUTO_SPARSE_THRESHOLD`, the torch
        engine above it when torch sees a CUDA device).
    random_state:
        Seed for the subspace solver initialisation.
    """

    alpha: float = 1.0
    gamma: float = 25.0
    p: int = 5
    weighting: WeightingScheme | str = WeightingScheme.COSINE
    laplacian_kind: str = "unnormalized"
    subspace_max_iter: int = 150
    subspace_tol: float = 1e-4
    use_subspace: bool = True
    use_pnn: bool = True
    subspace_topk: int | None = None
    scale_by_size: bool = True
    backend: str = "dense"
    random_state: int | None = None
    members_: list[_TypeLaplacians] = field(default_factory=list, init=False, repr=False)
    resolved_backend_: str | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.alpha = check_positive_float(self.alpha, name="alpha", minimum=0.0,
                                          inclusive=True)
        self.gamma = check_positive_float(self.gamma, name="gamma")
        self.p = check_positive_int(self.p, name="p")
        check_backend(self.backend)
        if self.subspace_topk is not None:
            self.subspace_topk = check_positive_int(self.subspace_topk,
                                                    name="subspace_topk")
        if not (self.use_subspace or self.use_pnn):
            raise ValueError("at least one ensemble member must be enabled")

    def resolve(self, n_objects: int) -> str:
        """Resolve the instance's backend knob for ``n_objects`` total objects.

        ``"auto"`` never picks sparse while the subspace member is active
        *without* top-k thresholding: the exact subspace affinity connects
        every within-subspace pair, so the combined Laplacian is dense in
        substance and CSR storage would cost more memory and slower products
        than a plain array.  With ``subspace_topk`` set the member is bounded
        at 2k non-zeros per row and the usual size-based choice applies.
        The caveat does not apply when ``"auto"`` resolves to the torch
        engine (torch installed, CUDA visible, problem above the size
        threshold) — the engine holds dense or sparse graph operands alike,
        so the dense-in-substance member only shapes the *carrier* (see
        :meth:`graph_carrier`), not the engine choice.
        """
        resolved = resolve_backend(self.backend, n_objects=n_objects)
        if (resolved == "sparse" and self.backend == "auto"
                and self.use_subspace and self.alpha > 0.0
                and self.subspace_topk is None):
            return "dense"
        return resolved

    def graph_carrier(self, engine: str, n_objects: int) -> str:
        """Numpy representation (``"dense"``/``"sparse"``) of the graph blocks.

        The torch engine is representation-agnostic on its inputs — a CSR
        Laplacian becomes a sparse COO tensor, a dense one a dense tensor —
        so under ``engine="torch"`` this picks the numpy carrier the blocks
        are *built* in: dense while the subspace member is active without
        top-k (its affinity is dense in substance), the usual size rule
        otherwise.  Concrete numpy engines pass through unchanged.
        """
        if engine != "torch":
            return engine
        if self.use_subspace and self.alpha > 0.0 and self.subspace_topk is None:
            return "dense"
        return numpy_carrier(engine, n_objects=n_objects)

    def build_for_type(self, name: str, features: np.ndarray | None,
                       n_objects: int, *, backend: str | None = None) -> _TypeLaplacians:
        """Build the combined Laplacian for one object type.

        Types without features contribute a zero Laplacian block (no
        intra-type smoothing), matching how the paper treats types whose
        only information is relational.  ``backend`` overrides the instance
        knob with an already-resolved concrete backend — :meth:`build` always
        passes one, resolved once against the dataset's *total* object count
        so every block shares a representation.  Only when this method is
        called standalone with the knob still at ``"auto"`` is the choice
        made from this type's own size.
        """
        backend = self.resolve(n_objects) if backend is None else resolve_backend(
            backend, n_objects=n_objects)
        backend = self.graph_carrier(backend, n_objects)
        use_sparse = backend == "sparse"
        if features is None:
            zero = (sp.csr_array((n_objects, n_objects), dtype=np.float64)
                    if use_sparse else np.zeros((n_objects, n_objects)))
            return _TypeLaplacians(name=name, subspace=None, pnn=None, combined=zero)

        subspace_laplacian = None
        pnn_laplacian = None
        spg = None
        combined = (sp.csr_array((n_objects, n_objects), dtype=np.float64)
                    if use_sparse else np.zeros((n_objects, n_objects)))
        if self.use_subspace and self.alpha > 0.0:
            model = SubspaceRepresentation(gamma=self.gamma,
                                           max_iter=self.subspace_max_iter,
                                           tol=self.subspace_tol,
                                           random_state=self.random_state)
            solved = model.fit(features)
            affinity = solved.affinity
            spg = solved.outcome()
            if self.subspace_topk is not None:
                affinity = topk_rows(affinity, self.subspace_topk)
                if use_sparse:
                    affinity = as_csr(affinity)
            subspace_laplacian = laplacian(affinity, kind=self.laplacian_kind)
            if use_sparse and not sp.issparse(subspace_laplacian):
                # Without top-k thresholding the subspace affinity connects
                # every within-subspace pair, so this block is dense in
                # substance; converting keeps the combined operator in one
                # representation.
                subspace_laplacian = as_csr(subspace_laplacian)
            combined = combined + self.alpha * subspace_laplacian
        if self.use_pnn:
            affinity = pnn_affinity(features, p=self.p, scheme=self.weighting,
                                    sparse=use_sparse)
            pnn_laplacian = laplacian(affinity, kind=self.laplacian_kind)
            combined = combined + pnn_laplacian
        if self.scale_by_size and n_objects > 0:
            combined = combined / float(n_objects)
        return _TypeLaplacians(name=name, subspace=subspace_laplacian,
                               pnn=pnn_laplacian, combined=combined, spg=spg)

    def build_blocks(self, data: MultiTypeRelationalData, *,
                     types=None) -> list:
        """Build the per-type ensemble Laplacian blocks ``L_t`` (Eq. 12).

        The global regulariser L is block diagonal by construction — it
        only couples objects within one type — so the blocked solver never
        assembles it: each type's combined Laplacian is returned on its
        own, in the resolved backend's representation (dense array or CSR).
        The concrete backend used is recorded on ``resolved_backend_`` and
        the per-type members on ``members_``.

        ``types`` optionally restricts the build to a subset of type
        *indices* — a delta-scheduled refit only re-optimises dirty types,
        so building (and eigen-touching) the clean types' graphs would be
        pure waste at scale.  Skipped types yield ``None`` in both the
        returned list and ``members_``.
        """
        backend = self.resolve(data.n_objects_total)
        self.resolved_backend_ = backend
        carrier = self.graph_carrier(backend, data.n_objects_total)
        self.members_ = []
        blocks = []
        for index, object_type in enumerate(data.types):
            if types is not None and index not in types:
                self.members_.append(None)
                blocks.append(None)
                continue
            member = self.build_for_type(object_type.name, object_type.features,
                                         object_type.n_objects, backend=carrier)
            self.members_.append(member)
            blocks.append(member.combined)
        return blocks

    def build(self, data: MultiTypeRelationalData):
        """Assemble the full block-diagonal ensemble Laplacian ``L``.

        Returns a dense array or a CSR sparse matrix depending on the
        (resolved) backend; either representation is accepted by the global
        update rules and objective evaluation.  The blocked solver core
        uses :meth:`build_blocks` instead and never pays for the stacked
        ``(n, n)`` assembly.
        """
        return block_diagonal(self.build_blocks(data))


def build_type_laplacians(data: MultiTypeRelationalData, *, p: int = 5,
                          weighting: WeightingScheme | str = WeightingScheme.COSINE,
                          laplacian_kind: str = "unnormalized",
                          backend: str = "dense"):
    """Build a pNN-only block-diagonal Laplacian (the SNMTF regulariser).

    This is the homogeneous single-member special case used by the SNMTF
    baseline; kept here so baseline and RHCHME share the same assembly code.
    """
    ensemble = HeterogeneousManifoldEnsemble(alpha=0.0, p=p, weighting=weighting,
                                             laplacian_kind=laplacian_kind,
                                             use_subspace=False, use_pnn=True,
                                             backend=backend)
    return ensemble.build(data)
