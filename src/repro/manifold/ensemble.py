"""The heterogeneous manifold ensemble of RHCHME (Eq. 12).

For each object type with features, two intra-type affinities are learnt:

* ``W^S`` — subspace-membership affinity from multiple-subspace learning
  (links objects that reconstruct each other within a subspace, however
  distant);
* ``W^E`` — cosine-weighted p-NN affinity (accurate for close neighbours).

Their ``D − W`` graph Laplacians (:func:`repro.graph.laplacian.laplacian`)
are combined per type as ``L_k = α L_k^S + L_k^E``; the block-diagonal
regulariser ``L`` over all n objects is kept as those per-type blocks and
never assembled.  Setting ``α → 0`` (or disabling the subspace member)
recovers the SNMTF pNN-only regulariser and ``α → ∞`` a subspace-only
regulariser — the extremes the paper's parameter study (Fig. 2) explores.

The ensemble supports two compute backends.  With ``backend="sparse"`` the
p-NN member is assembled directly as a CSR matrix (≤ 2p non-zeros per row)
and every ``L_k`` block stays sparse end to end, so no dense
``(n_k, n_k)`` array is ever allocated for the graph pipeline.
``backend="auto"`` picks per dataset size (see :mod:`repro.linalg.backend`).
The subspace member is solved as a dense array and converted to CSR when it
participates in a sparse ensemble, so the combined operator keeps a single
representation.  That conversion loses nothing: the exact optimum is itself
sparse — on the paper presets each coefficient column keeps at most 42
non-zeros (7–25 on average), and the symmetrised affinity 11–30 per row on
average — so no thresholding is needed for the sparse backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .._validation import check_positive_float, check_positive_int
# The members call these through this module's names, which e2ebench's
# tracer wraps as its graph.laplacian and graph.pnn layers.
from ..graph.laplacian import laplacian
from ..graph.pnn import pnn_affinity
from ..graph.weights import WeightingScheme
from ..linalg.backend import as_csr, check_backend, resolve_backend
from ..relational.dataset import MultiTypeRelationalData
from ..subspace.representation import SubspaceRepresentation

__all__ = ["HeterogeneousManifoldEnsemble"]


@dataclass
class _TypeLaplacians:
    """Per-type Laplacian members kept for inspection and ablation.

    ``outcome`` is the subspace solve's outcome (see
    :meth:`repro.subspace.SubspaceResult.outcome`), ``None`` when the type
    ran no subspace solve.
    """

    name: str
    subspace: np.ndarray | sp.csr_array | None
    pnn: np.ndarray | sp.csr_array | None
    combined: np.ndarray | sp.csr_array
    outcome: dict | None = None


@dataclass
class HeterogeneousManifoldEnsemble:
    """Builder for the per-type blocks of the heterogeneous ensemble Laplacian.

    Parameters
    ----------
    alpha:
        Trade-off between the subspace member ``L_S`` and the p-NN member
        ``L_E`` (Eq. 12); the paper finds α ∈ [0.25, 2] stable with α = 1 best.
    gamma:
        Noise-tolerance weight of the multiple-subspace objective (Eq. 9),
        which each type solves exactly (no cap, no tolerance knob).
    p:
        Neighbour size of the p-NN graph (the paper uses p = 5).
    weighting:
        p-NN edge weighting scheme; RHCHME uses cosine similarity.
    use_subspace, use_pnn:
        Ablation switches disabling one member (the α → {0, ∞} extremes).
    backend:
        ``"dense"`` (seed behaviour), ``"sparse"`` (CSR end to end) or
        ``"auto"`` (sparse once the dataset's total object count crosses
        :data:`repro.linalg.backend.AUTO_SPARSE_THRESHOLD`).
    """

    alpha: float = 1.0
    gamma: float = 25.0
    p: int = 5
    weighting: WeightingScheme | str = WeightingScheme.COSINE
    use_subspace: bool = True
    use_pnn: bool = True
    backend: str = "dense"
    members_: list[_TypeLaplacians] = field(default_factory=list, init=False, repr=False)
    resolved_backend_: str | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.alpha = check_positive_float(self.alpha, name="alpha", minimum=0.0,
                                          inclusive=True)
        self.gamma = check_positive_float(self.gamma, name="gamma")
        self.p = check_positive_int(self.p, name="p")
        check_backend(self.backend)
        if not (self.use_subspace or self.use_pnn):
            raise ValueError("at least one ensemble member must be enabled")

    def resolve(self, n_objects: int) -> str:
        """Resolve the instance's backend knob for ``n_objects`` total objects.

        ``"auto"`` never picks sparse while the subspace member is active.
        The exact subspace affinity is sparse (see the module docstring),
        but the solve returns it as a dense array and the sparse path has
        not been measured against the dense one at the default config, so
        the rule stays until it is.
        """
        resolved = resolve_backend(self.backend, n_objects=n_objects)
        if (resolved == "sparse" and self.backend == "auto"
                and self.use_subspace and self.alpha > 0.0):
            return "dense"
        return resolved

    def build_for_type(self, name: str, features: np.ndarray | None,
                       n_objects: int, *, backend: str | None = None) -> _TypeLaplacians:
        """Build the combined Laplacian for one object type.

        Types without features contribute a zero Laplacian block (no
        intra-type smoothing), matching how the paper treats types whose
        only information is relational; so does a single-object type,
        which has no pair of objects to relate.  That block is an empty
        CSR matrix on either backend: the solver treats an all-zero part
        as absent, so a dense ``(n, n)`` array of zeros would only cost
        memory and scans.  ``backend`` overrides the
        instance knob with an already-resolved concrete backend —
        :meth:`build_blocks` always passes one, resolved once against the
        dataset's *total* object count so every block shares a
        representation.  Only when this method is called standalone with
        the knob still at ``"auto"`` is the choice made from this type's
        own size.
        """
        backend = self.resolve(n_objects) if backend is None else resolve_backend(
            backend, n_objects=n_objects)
        use_sparse = backend == "sparse"
        if features is None or n_objects < 2:
            zero = sp.csr_array((n_objects, n_objects), dtype=np.float64)
            return _TypeLaplacians(name=name, subspace=None, pnn=None, combined=zero)

        subspace_laplacian = None
        pnn_laplacian = None
        outcome = None
        combined = (sp.csr_array((n_objects, n_objects), dtype=np.float64)
                    if use_sparse else np.zeros((n_objects, n_objects)))
        if self.use_subspace and self.alpha > 0.0:
            solved = SubspaceRepresentation(gamma=self.gamma).fit(features)
            affinity = solved.affinity
            outcome = solved.outcome()
            subspace_laplacian = laplacian(affinity)
            if use_sparse:
                # The solve returns a dense array (sparse in value, a few
                # non-zeros per row); converting keeps the combined
                # operator in one representation.
                subspace_laplacian = as_csr(subspace_laplacian)
            combined = combined + self.alpha * subspace_laplacian
        if self.use_pnn:
            affinity = pnn_affinity(features, p=self.p, scheme=self.weighting,
                                    sparse=use_sparse)
            pnn_laplacian = laplacian(affinity)
            combined = combined + pnn_laplacian
        # Each type's Laplacian is divided by its object count, so that
        # tr(Gᵀ L G) measures *average* label smoothness per object rather
        # than a sum that grows with the dataset.  This keeps the paper's λ
        # grid meaningful across dataset sizes and balances the regulariser
        # against the (block-normalised) reconstruction term; it is an
        # implementation deviation from the paper.
        combined = combined / float(n_objects)
        return _TypeLaplacians(name=name, subspace=subspace_laplacian,
                               pnn=pnn_laplacian, combined=combined, outcome=outcome)

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
        self.members_ = []
        blocks = []
        for index, object_type in enumerate(data.types):
            if types is not None and index not in types:
                self.members_.append(None)
                blocks.append(None)
                continue
            member = self.build_for_type(object_type.name, object_type.features,
                                         object_type.n_objects, backend=backend)
            self.members_.append(member)
            blocks.append(member.combined)
        return blocks
