"""The RHCHME estimator — Algorithm 2 of the paper, on the blocked core.

The estimator ties the pieces together:

1. split the dataset's relations into per-pair blocks ``R_tu`` (no global
   stacked R is ever assembled inside the fit);
2. build the heterogeneous manifold ensemble as per-type Laplacian blocks
   ``L_t`` (Eq. 12 — L is block diagonal by construction, so the stacked
   form is never materialised either);
3. initialise the per-type membership blocks ``G_t`` (k-means on relational
   profiles) and ``E_R`` (zeros);
4. iterate the blockwise S / G / E_R updates until the objective stops
   decreasing, fanning the independent per-type / per-pair tasks across the
   ``n_jobs`` worker pool;
5. return per-type hard labels, the factor matrices and the full iteration
   trace (objective decomposition, per-update wall-clock accounting, plus
   optional FScore/NMI against ground truth).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
import time

import numpy as np

from ..exceptions import NotFittedError, ValidationError
from ..obs import Span, activate_span, current_span
from ..linalg.parts import split_parts
from ..linalg.rowsparse import RowSparseMatrix
from ..manifold.ensemble import HeterogeneousManifoldEnsemble
from ..metrics.fscore import clustering_fscore
from ..metrics.nmi import normalized_mutual_information
from ..relational.dataset import MultiTypeRelationalData
from .config import RHCHMEConfig
from .convergence import TraceRecorder
from .objective import evaluate_objective_blocks
from .parallel import TypeWorkPool
from .schedule import DeltaSchedule, DirtySet
from .state import FactorizationState, initialize_state, warm_start_state
from .updates import (active_relation_pairs, update_association_blocks,
                      update_error_matrix_blocks, update_membership_blocks)

__all__ = ["RHCHME", "RHCHMEResult"]


@contextmanager
def _span_scope(parent, name: str, **attributes):
    """Open a child span, activate it for the block, finish it on exit.

    A no-op yielding ``None`` when ``parent`` is ``None`` (fit tracing is
    gated on ``diagnostics=True``), so the solver body reads identically
    either way.
    """
    if parent is None:
        yield None
        return
    span = parent.child(name, **attributes)
    try:
        with activate_span(span):
            yield span
    finally:
        span.finish()


@dataclass
class RHCHMEResult:
    """Outcome of one RHCHME fit.

    Attributes
    ----------
    labels:
        Mapping from type name to the hard cluster labels of that type.
    state:
        Final factorisation state (per-type G blocks, S, E_R and block
        structure).
    trace:
        Iteration history (objective terms and optional metrics per
        iteration, plus per-update wall-clock buckets).
    converged:
        Whether the relative objective decrease dropped below the tolerance
        before ``max_iter`` was reached.
    n_iterations:
        Number of update iterations performed.
    fit_seconds:
        Wall-clock time of the fit (including ensemble construction).
    extras:
        Fit metadata; ``extras["update_seconds"]`` breaks the iteration
        loop's wall clock down by update family (``s_update`` /
        ``g_update`` / ``e_update`` / ``objective``), and
        ``extras["subspace"]`` maps each type that ran the Eq. 9 solve to
        its SPG outcome (``iterations``, ``converged``, ``objective``,
        ``step_norm``).
    """

    labels: dict[str, np.ndarray]
    state: FactorizationState
    trace: TraceRecorder
    converged: bool
    n_iterations: int
    fit_seconds: float
    ensemble_seconds: float = 0.0
    extras: dict = field(default_factory=dict)

    def to_model(self, data: MultiTypeRelationalData,
                 config: RHCHMEConfig) -> "RHCHMEModel":
        """Convert this fit outcome into a servable, persistable artifact.

        Captures the per-type training features, the factorisation state
        (membership blocks, S, E_R), the hard labels and the configuration
        into an immutable :class:`repro.serve.RHCHMEModel` that supports
        ``save``/``load`` round-trips and out-of-sample batch prediction.
        """
        from ..serve.artifact import RHCHMEModel
        return RHCHMEModel.from_fit(self, data, config)


class RHCHME:
    """Robust High-order Co-clustering via Heterogeneous Manifold Ensemble.

    Parameters
    ----------
    config:
        A :class:`~repro.core.config.RHCHMEConfig`; keyword overrides can be
        passed directly for convenience (``RHCHME(lam=500, beta=10)``).

    Examples
    --------
    >>> from repro.data import make_dataset
    >>> from repro.core import RHCHME
    >>> data = make_dataset("multi5-small", random_state=0)
    >>> model = RHCHME(max_iter=15, random_state=0)
    >>> result = model.fit(data)
    >>> sorted(result.labels)
    ['concepts', 'documents', 'terms']
    """

    def __init__(self, config: RHCHMEConfig | None = None, **overrides) -> None:
        if config is None:
            config = RHCHMEConfig(**overrides)
        elif overrides:
            config = config.with_overrides(**overrides)
        self.config = config
        self.result_: RHCHMEResult | None = None

    # ------------------------------------------------------------------ fit
    def fit(self, data: MultiTypeRelationalData, *,
            warm_start: FactorizationState | dict | None = None,
            dirty: DirtySet | None = None) -> RHCHMEResult:
        """Run Algorithm 2 on a multi-type relational dataset.

        Parameters
        ----------
        data:
            The multi-type relational dataset to co-cluster.
        warm_start:
            Optional informed initial iterate instead of the cold k-means
            initialisation: either a full
            :class:`~repro.core.state.FactorizationState` whose block
            structure matches ``data``, or a mapping from type name to a
            non-negative ``(n_objects, n_clusters)`` membership block (see
            :func:`~repro.core.state.warm_start_state`).  The incremental
            refresh path of :mod:`repro.runtime` uses this to refit a grown
            dataset from a previously fitted model's blocks in a fraction
            of the cold iterations.
        dirty:
            Optional :class:`~repro.core.schedule.DirtySet` declaring which
            types' data changed; requires ``warm_start``.  Clean ``G_t``
            blocks are frozen at their warm-start values, clean pairs skip
            their S/E_R kernels, clean Laplacians are never built, and the
            objective reuses cached terms for frozen blocks — turning the
            refit's per-iteration cost into ``O(dirty neighbourhood)``.
            ``dirty.full_sweep_every=k`` runs every k-th iteration
            unrestricted.  ``None`` (default) is the full refit,
            bit-identical to the behaviour without delta scheduling.
        """
        config = self.config
        start = time.perf_counter()

        dirty_indices: frozenset[int] | None = None
        if dirty is not None:
            if not isinstance(dirty, DirtySet):
                raise ValidationError(
                    f"dirty must be a DirtySet or None, got "
                    f"{type(dirty).__name__}")
            if warm_start is None:
                raise ValidationError(
                    "dirty-scheduled fits require warm_start=: clean blocks "
                    "are frozen at their warm-start values, so there is "
                    "nothing to freeze in a cold fit")
            dirty_indices = dirty.resolve(data.type_names)

        ensemble_start = time.perf_counter()
        ensemble = HeterogeneousManifoldEnsemble(
            alpha=config.alpha,
            gamma=config.gamma,
            p=config.p,
            weighting=config.weighting,
            laplacian_kind=config.laplacian_kind,
            subspace_max_iter=config.subspace_max_iter,
            subspace_tol=config.subspace_tol,
            use_subspace=config.use_subspace_member and config.alpha > 0,
            use_pnn=config.use_pnn_member,
            subspace_topk=config.subspace_topk,
            backend=config.backend,
            random_state=config.random_state,
        )
        # Without sweeps only dirty types ever run a G update, so only
        # their Laplacian blocks are built; sweep iterations need them all.
        build_types = None
        if dirty is not None and dirty.full_sweep_every <= 0:
            build_types = dirty_indices
        L_blocks = ensemble.build_blocks(data, types=build_types)
        backend = ensemble.resolved_backend_
        ensemble_seconds = time.perf_counter() - ensemble_start

        engine = None
        if backend == "torch":
            # Lazy import: the torch engine (and torch itself) only loads
            # when a fit actually resolves to it.
            from ..linalg.torch_engine import TorchSolverEngine
            engine = TorchSolverEngine(device=config.torch_device)

        # The relations follow the backend the ensemble resolved, so the
        # whole fit — graph side and R-space — shares one representation:
        # CSR relation blocks, row-sparse E_R and factored G_t S_tu G_uᵀ
        # products under "sparse", plain arrays under "dense".  Only the
        # per-pair blocks exist; the stacked (n, n) R is never assembled.
        # The torch engine runs with dense-backend semantics (dense R
        # blocks moved to the device once, dense E_R), so it fetches the
        # dense carrier.
        R_pairs = data.relation_blocks(normalize=config.normalize_relations,
                                       backend="dense" if engine is not None
                                       else backend)

        # L is fixed for the whole fit; split each type's block into
        # (L_t⁺, L_t⁻) once instead of re-splitting inside every membership
        # update.  Types the delta schedule never updates carry no block.
        L_parts = [None if block is None else split_parts(block)
                   for block in L_blocks]
        if engine is not None:
            # L and its splits are loop-invariant: one host→device transfer
            # per fit, after which every L± @ G product runs device-side.
            engine.register_laplacians(L_blocks, L_parts)
        if warm_start is None:
            state = initialize_state(data, R_pairs, init=config.init,
                                     smoothing=config.init_smoothing,
                                     random_state=config.random_state)
        else:
            state = self._coerce_warm_start(warm_start, data)
            if backend == "sparse" and isinstance(state.E_R, np.ndarray) \
                    and not np.any(state.E_R):
                # Warm starts built without a backend in sight (e.g. a
                # refresh of a use_error_matrix=False model) default E_R to
                # dense zeros; under the sparse backend that block would
                # drag O(n²) memory and per-iteration work through the
                # whole refit for nothing — represent it row-sparse like a
                # cold sparse initialisation does.
                state.E_R = RowSparseMatrix.zeros(state.E_R.shape)
            if engine is not None and isinstance(state.E_R, RowSparseMatrix):
                # The inverse coercion: a warm start carried over from a
                # sparse-backend fit stores E_R row-sparse, but the torch
                # engine speaks dense-backend semantics.
                state.E_R = state.E_R.to_dense()

        # The ordered pairs the updates must visit: every observed relation
        # (both orientations) plus any block a warm-start E_R carries mass
        # on.  Activity is closed under the update rules, so this is
        # computed once per fit.
        pairs = active_relation_pairs(R_pairs, state.E_R, state.object_spec)

        schedule = None
        objective_cache = None
        if dirty is not None:
            schedule = DeltaSchedule(dirty, data.type_names, pairs,
                                     track_errors=config.use_error_matrix)
            objective_cache = {}

        monitor = None
        fit_span = None
        if config.diagnostics:
            if schedule is None:
                # One eigensolve per type up front (L is fixed for the
                # whole fit), then O(n) churn per recorded iterate — see
                # repro.diagnostics.spectral for the cost contract.  A
                # delta-scheduled fit skips the monitor: clean Laplacians
                # are deliberately never built, and eigensolving them here
                # would defeat the schedule's whole point.
                from ..diagnostics.spectral import SpectralMonitor
                monitor = SpectralMonitor([t.name for t in data.types],
                                          L_blocks)
            # Diagnostics also buys the hierarchical fit trace: one span
            # tree per fit (per-iteration -> per-family -> per-kernel),
            # persisted with the spectral summary in the artifact sidecar.
            fit_span = Span("fit", backend=str(backend),
                            n_jobs=int(config.n_jobs),
                            executor=str(config.executor),
                            max_iter=int(config.max_iter),
                            n_types=len(data.types),
                            warm_start=warm_start is not None,
                            start=start)

        trace = TraceRecorder()
        converged = False
        iteration = 0
        with TypeWorkPool(config.n_jobs, kind=config.executor) as pool:
            # This S solve doubles as iteration 1's S step: the state does
            # not change between recording the initial objective and the
            # first loop pass, so re-solving there would recompute the
            # identical matrix (one full wasted S solve per fit).
            setup_sweep = schedule is not None and schedule.sweep(1)
            with _span_scope(fit_span, "setup"):
                state.S = self._timed(
                    trace, "s_update", update_association_blocks,
                    R_pairs, state, pairs=pairs, pool=pool,
                    dirty_pairs=(schedule.dirty_pairs
                                 if schedule is not None and not setup_sweep
                                 else None),
                    S_prev=state.S if schedule is not None else None,
                    engine=engine)
                self._record(trace, data, R_pairs, L_blocks, state, pairs,
                             pool, monitor=monitor, schedule=schedule,
                             sweep=setup_sweep, cache=objective_cache,
                             engine=engine)

            for iteration in range(1, config.max_iter + 1):
                sweep = schedule is not None and schedule.sweep(iteration)
                restrict = schedule is not None and not sweep
                with _span_scope(fit_span, "iteration", iteration=iteration):
                    if iteration > 1:
                        state.S = self._timed(
                            trace, "s_update", update_association_blocks,
                            R_pairs, state, pairs=pairs, pool=pool,
                            dirty_pairs=(schedule.dirty_pairs if restrict
                                         else None),
                            S_prev=(state.S if schedule is not None
                                    else None),
                            engine=engine)
                    state.G_blocks = self._timed(
                        trace, "g_update", update_membership_blocks,
                        R_pairs, L_parts, state,
                        lam=config.lam, pairs=pairs, pool=pool,
                        dirty_types=(schedule.dirty_types if restrict
                                     else None),
                        engine=engine)
                    if config.use_error_matrix:
                        state.E_R = self._timed(
                            trace, "e_update", update_error_matrix_blocks,
                            R_pairs, state,
                            beta=config.beta,
                            zeta=config.zeta,
                            row_tol=config.error_row_tol,
                            pairs=pairs, pool=pool,
                            dirty_types=(schedule.error_types if restrict
                                         else None),
                            E_prev=(state.E_R if schedule is not None
                                    else None),
                            engine=engine)
                    state.iteration = iteration
                    self._record(trace, data, R_pairs, L_blocks, state, pairs,
                                 pool, monitor=monitor, schedule=schedule,
                                 sweep=sweep, cache=objective_cache,
                                 engine=engine)
                decrease = trace.last_relative_decrease()
                if 0.0 <= decrease < config.tol:
                    converged = True
                    break

        labels = {object_type.name: state.labels_for_type(index)
                  for index, object_type in enumerate(data.types)}
        subspace_outcomes = {member.name: member.spg
                             for member in ensemble.members_
                             if member is not None and member.spg is not None}
        result = RHCHMEResult(labels=labels, state=state, trace=trace,
                              converged=converged, n_iterations=iteration,
                              fit_seconds=time.perf_counter() - start,
                              ensemble_seconds=ensemble_seconds,
                              extras={"config": config.describe(),
                                      "backend": backend,
                                      "n_jobs": config.n_jobs,
                                      "executor": config.executor,
                                      "update_seconds": trace.timings,
                                      "warm_start": warm_start is not None,
                                      "subspace": subspace_outcomes})
        if engine is not None:
            result.extras["device"] = engine.device
        if schedule is not None:
            result.extras["dirty"] = schedule.describe()
        if monitor is not None:
            result.extras["diagnostics"] = monitor.summary(trace)
        if fit_span is not None:
            fit_span.annotate(converged=converged,
                              n_iterations=int(iteration))
            fit_span.finish()
            trace.span_tree = fit_span
            result.extras.setdefault("diagnostics", {})["trace"] = \
                fit_span.to_dict()
        self.result_ = result
        return result

    @staticmethod
    def _timed(trace: TraceRecorder, bucket: str, fn, *args, **kwargs):
        """Run one update, charging its wall clock to a trace bucket.

        When a fit span is active (diagnostics on), the update family
        additionally becomes a child span, activated for the duration so
        the blockwise kernels under it can attach their own children.
        """
        parent = current_span()
        span = None if parent is None else parent.child(bucket)
        start = time.perf_counter()
        with activate_span(span):
            result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        if span is not None:
            span.finish()
        trace.add_timing(bucket, elapsed)
        return result

    @staticmethod
    def _coerce_warm_start(warm_start, data: MultiTypeRelationalData
                           ) -> FactorizationState:
        """Validate a warm start against ``data`` and return a private copy."""
        if isinstance(warm_start, FactorizationState):
            if (warm_start.object_spec != data.object_block_spec()
                    or warm_start.cluster_spec != data.cluster_block_spec()):
                raise ValidationError(
                    f"warm-start state (objects {warm_start.object_spec.sizes}, "
                    f"clusters {warm_start.cluster_spec.sizes}) does not match "
                    f"the dataset ({data.describe()})")
            return warm_start.copy()
        try:
            blocks = dict(warm_start)
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                "warm_start must be a FactorizationState or a mapping from "
                f"type name to membership block, got {type(warm_start).__name__}"
            ) from exc
        return warm_start_state(data, blocks)

    def fit_predict(self, data: MultiTypeRelationalData,
                    type_name: str | None = None) -> np.ndarray:
        """Fit and return the labels of one type (default: the first type)."""
        result = self.fit(data)
        if type_name is None:
            type_name = data.type_names[0]
        return result.labels[type_name]

    def export_model(self, data: MultiTypeRelationalData) -> "RHCHMEModel":
        """Return the fitted model as a servable artifact (see ``repro.serve``)."""
        if self.result_ is None:
            raise NotFittedError("RHCHME has not been fitted yet")
        return self.result_.to_model(data, self.config)

    # -------------------------------------------------------------- internal
    def _record(self, trace: TraceRecorder, data: MultiTypeRelationalData,
                R_pairs, L_blocks, state: FactorizationState, pairs,
                pool, monitor=None, schedule=None, sweep: bool = False,
                cache=None, engine=None) -> None:
        """Record the objective breakdown and optional metrics for one iterate."""
        config = self.config
        breakdown = self._timed(trace, "objective", evaluate_objective_blocks,
                                R_pairs, state, L_blocks, lam=config.lam,
                                beta=config.beta, pairs=pairs, pool=pool,
                                schedule=schedule, sweep=sweep, cache=cache,
                                engine=engine)
        metrics: dict[str, float] = {}
        if monitor is not None:
            metrics.update(monitor.observe(state))
        if config.track_metrics_every and (
                state.iteration % config.track_metrics_every == 0):
            for index, object_type in enumerate(data.types):
                if not object_type.has_labels:
                    continue
                predicted = state.labels_for_type(index)
                metrics[f"fscore/{object_type.name}"] = clustering_fscore(
                    object_type.labels, predicted)
                metrics[f"nmi/{object_type.name}"] = normalized_mutual_information(
                    object_type.labels, predicted)
        trace.record(state.iteration, breakdown.total,
                     terms={
                         "reconstruction": breakdown.reconstruction,
                         "error_sparsity": breakdown.error_sparsity,
                         "graph_smoothness": breakdown.graph_smoothness,
                     },
                     metrics=metrics)

    # ------------------------------------------------------------ properties
    @property
    def labels_(self) -> dict[str, np.ndarray]:
        """Labels of the last fit (raises if the model has not been fitted)."""
        if self.result_ is None:
            raise NotFittedError("RHCHME has not been fitted yet")
        return self.result_.labels
