"""Shared skeleton of the NMTF-based HOCC baselines.

SRC, SNMTF and RMC all minimise variants of

    ‖R − G S Gᵀ‖²_F + λ tr(Gᵀ L G)          (Eq. 1 of the paper)

with different choices of ``L`` (none / single p-NN Laplacian / homogeneous
candidate ensemble).  That is RHCHME's objective (Eq. 15) without the error
matrix E_R, so the baselines run on RHCHME's blocked solver core: the same
per-pair S update, the same per-type multiplicative G update (without
Eq. 22's ℓ1 row normalisation, matching how those methods were published)
and the same blockwise objective, on the same unit-Frobenius relation
blocks and the same k-means initialisation.  The subclasses only customise
the regulariser, supplied as per-type Laplacian blocks.  One engine keeps
the comparison honest — every method, Table V's timings included, runs on
the same numerical substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import time

import numpy as np
import scipy.sparse as sp

from .._validation import check_positive_float, check_positive_int
from ..core.convergence import TraceRecorder
from ..core.objective import evaluate_objective_blocks
from ..core.rhchme import LabelScores
from ..core.rspace import ProductCache
from ..core.state import FactorizationState, initialize_state
from ..core.updates import update_association_blocks, update_membership_blocks
from ..exceptions import NotFittedError
from ..relational.dataset import MultiTypeRelationalData

__all__ = ["HOCCResult", "BaseHOCC"]


@dataclass
class HOCCResult:
    """Outcome of fitting one HOCC baseline.

    Attributes
    ----------
    labels:
        Mapping from type name to that type's hard cluster labels.
    state:
        Final factorisation state (``E_R`` is ``None``: the baselines have
        no error matrix).
    trace:
        Objective / metric history per iteration.
    converged:
        Whether the relative decrease dropped below tolerance early.
    n_iterations:
        Iterations performed.
    fit_seconds:
        Wall-clock fitting time.
    """

    labels: dict[str, np.ndarray]
    state: FactorizationState
    trace: TraceRecorder
    converged: bool
    n_iterations: int
    fit_seconds: float
    extras: dict = field(default_factory=dict)


class BaseHOCC:
    """Common driver of the NMTF-based HOCC baselines.

    Subclasses implement :meth:`build_regularizer` (returning the per-type
    Laplacian blocks ``L_t``, or ``None`` for no intra-type regularisation)
    and may override :meth:`update_regularizer` to adapt the regulariser
    between iterations (RMC refits its candidate weights this way).

    Parameters
    ----------
    lam:
        Graph regularisation weight λ (ignored when no regulariser is used).
    max_iter, tol:
        Iteration budget and relative-decrease tolerance.
    init, random_state:
        Initialisation controls (same semantics as RHCHME).
    track_metrics_every:
        Metric recording cadence against ground-truth labels (0 disables).
    """

    method_name = "base-hocc"

    def __init__(self, *, lam: float = 0.1, max_iter: int = 100, tol: float = 1e-5,
                 init: str = "kmeans", random_state: int | None = None,
                 track_metrics_every: int = 1) -> None:
        self.lam = check_positive_float(lam, name="lam", minimum=0.0, inclusive=True)
        self.max_iter = check_positive_int(max_iter, name="max_iter")
        self.tol = check_positive_float(tol, name="tol")
        self.init = init
        self.random_state = random_state
        self.track_metrics_every = int(track_metrics_every)
        self.result_: HOCCResult | None = None

    # --------------------------------------------------------- customisation
    def build_regularizer(self, data: MultiTypeRelationalData) -> list | None:
        """Return the per-type Laplacian blocks ``L_t`` (``None``: no regulariser)."""
        raise NotImplementedError

    def update_regularizer(self, L_blocks: list,
                           state: FactorizationState) -> list:
        """Hook to adapt the regulariser between iterations (default: keep it).

        Return the same list object to keep the regulariser, or a new list
        of per-type blocks to replace it.
        """
        return L_blocks

    # ------------------------------------------------------------------- fit
    def fit(self, data: MultiTypeRelationalData) -> HOCCResult:
        """Run the alternating optimisation on a multi-type dataset."""
        start = time.perf_counter()
        R_pairs = data.relation_blocks(normalize=True)
        L_blocks = self.build_regularizer(data)
        lam = self.lam
        if L_blocks is None:
            # No intra-type term: zero graphs at λ = 0 leave both the
            # multiplicative step and the objective exactly graph-free.
            L_blocks = [sp.csr_array((t.n_objects, t.n_objects), dtype=np.float64)
                        for t in data.types]
            lam = 0.0
        # The fit's shared products (see repro.core.rspace), L's split
        # among them.
        products = ProductCache()
        L_parts = [products.laplacian_parts(t, block)
                   for t, block in enumerate(L_blocks)]
        state = initialize_state(data, R_pairs, init=self.init,
                                 random_state=self.random_state)
        state.E_R = None  # the NMTF baselines have no error matrix
        pairs = sorted(R_pairs)
        trace = TraceRecorder()
        scores = LabelScores()
        # This S solve doubles as iteration 1's S step: nothing changes
        # between recording the initial objective and the first G step.
        state.S = update_association_blocks(R_pairs, state, pairs=pairs,
                                            products=products)
        self._record(trace, scores, data, R_pairs, L_blocks, state, pairs,
                     lam, products)

        converged = False
        iteration = 0
        for iteration in range(1, self.max_iter + 1):
            if iteration > 1:
                state.S = update_association_blocks(R_pairs, state,
                                                    pairs=pairs,
                                                    products=products)
            # Unlike RHCHME, the published baselines do not apply Eq. 22's
            # ℓ1 row normalisation.
            state.G_blocks = update_membership_blocks(
                R_pairs, L_parts, state, lam=lam, pairs=pairs,
                normalize=False, products=products)
            state.iteration = iteration
            updated = self.update_regularizer(L_blocks, state)
            if updated is not L_blocks:
                # Split L± once per regulariser change, not per iteration.
                L_blocks = updated
                L_parts = [products.laplacian_parts(t, block)
                           for t, block in enumerate(L_blocks)]
            self._record(trace, scores, data, R_pairs, L_blocks, state,
                         pairs, lam, products)
            decrease = trace.last_relative_decrease()
            if 0.0 <= decrease < self.tol:
                converged = True
                break

        labels = {object_type.name: state.labels_for_type(index)
                  for index, object_type in enumerate(data.types)}
        result = HOCCResult(labels=labels, state=state, trace=trace,
                            converged=converged, n_iterations=iteration,
                            fit_seconds=time.perf_counter() - start,
                            extras={"method": self.method_name})
        self.result_ = result
        return result

    def fit_predict(self, data: MultiTypeRelationalData,
                    type_name: str | None = None) -> np.ndarray:
        """Fit and return labels for one type (default: the first type)."""
        result = self.fit(data)
        if type_name is None:
            type_name = data.type_names[0]
        return result.labels[type_name]

    # -------------------------------------------------------------- internals
    def _record(self, trace: TraceRecorder, scores: LabelScores,
                data: MultiTypeRelationalData, R_pairs, L_blocks,
                state: FactorizationState, pairs, lam: float,
                products: ProductCache) -> None:
        breakdown = evaluate_objective_blocks(R_pairs, state, L_blocks,
                                              lam=lam, beta=0.0, pairs=pairs,
                                              products=products)
        metrics: dict[str, float] = {}
        if self.track_metrics_every and (
                state.iteration % self.track_metrics_every == 0):
            scores.record(metrics, data, state)
        trace.record(state.iteration, breakdown.total,
                     terms={
                         "reconstruction": breakdown.reconstruction,
                         "graph_smoothness": breakdown.graph_smoothness,
                     },
                     metrics=metrics)

    @property
    def labels_(self) -> dict[str, np.ndarray]:
        """Labels from the last fit (raises before fitting)."""
        if self.result_ is None:
            raise NotFittedError(f"{self.method_name} has not been fitted yet")
        return self.result_.labels
