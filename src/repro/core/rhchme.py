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
   decreasing;
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
from ..manifold.ensemble import HeterogeneousManifoldEnsemble
from ..metrics.fscore import clustering_fscore
from ..metrics.nmi import normalized_mutual_information
from ..relational.dataset import MultiTypeRelationalData
from .config import RHCHMEConfig
from .convergence import TraceRecorder
from .objective import evaluate_objective_blocks
from .rspace import ProductCache
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


class LabelScores:
    """Each labelled type's F-score and NMI over one fit's records.

    Both scores are functions of a type's hard labels alone, and those
    labels are unchanged from the previous record in most records, so a
    type is scored again only when its labels differ from the ones it was
    last scored on; otherwise the stored values, which that recompute
    would reproduce bit for bit, are reused.  A recompute calls this
    module's ``clustering_fscore`` and ``normalized_mutual_information``.
    One instance serves one fit (RHCHME and the NMTF baselines alike).
    """

    def __init__(self) -> None:
        self._last: dict[str, tuple[np.ndarray, float, float]] = {}

    @staticmethod
    def unchanged(previous: np.ndarray, labels: np.ndarray) -> bool:
        """Whether ``labels`` equal the labels last scored."""
        return np.array_equal(previous, labels)

    def score(self, name: str, labels_true, labels: np.ndarray
              ) -> tuple[float, float]:
        """``(fscore, nmi)`` of type ``name``'s predicted ``labels``."""
        last = self._last.get(name)
        if last is not None and self.unchanged(last[0], labels):
            return last[1], last[2]
        fscore = clustering_fscore(labels_true, labels)
        nmi = normalized_mutual_information(labels_true, labels)
        self._last[name] = (labels, fscore, nmi)
        return fscore, nmi

    def record(self, metrics: dict, data: MultiTypeRelationalData,
               state: FactorizationState) -> None:
        """Add ``fscore/<type>`` and ``nmi/<type>`` of every labelled type."""
        for index, object_type in enumerate(data.types):
            if not object_type.has_labels:
                continue
            fscore, nmi = self.score(object_type.name, object_type.labels,
                                     state.labels_for_type(index))
            metrics[f"fscore/{object_type.name}"] = fscore
            metrics[f"nmi/{object_type.name}"] = nmi


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
        its active-set outcome: ``iterations`` (the passes), ``converged``,
        ``objective`` and ``kkt_residual``.
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
            ``None`` (default) is the full refit, bit-identical to the
            behaviour without delta scheduling.
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
            use_subspace=config.use_subspace_member and config.alpha > 0,
            use_pnn=config.use_pnn_member,
            backend=config.backend,
        )
        # Only dirty types ever run a G update, so only their Laplacian
        # blocks are built.
        L_blocks = ensemble.build_blocks(data, types=dirty_indices)
        backend = ensemble.resolved_backend_
        ensemble_seconds = time.perf_counter() - ensemble_start

        # The relations follow the backend the ensemble resolved, so the
        # whole fit — graph side and R-space — shares one representation:
        # CSR relation blocks under "sparse", plain arrays under "dense".
        # E_R is row-sparse and G_t S_tu G_uᵀ stays factored on both.  Only
        # the per-pair blocks exist; the stacked (n, n) R is never assembled.
        # Every block is scaled to unit Frobenius norm (see RHCHMEConfig).
        R_pairs = data.relation_blocks(normalize=True, backend=backend)

        # Every product the S, G and E_R steps and the objective share is
        # computed once per iterate in this fit-scoped cache, which dies
        # with the fit.  L is fixed for the whole fit: each type's block
        # is split into (L_t⁺, L_t⁻) once, there, for the G step and the
        # objective alike.  Types the delta schedule never updates carry
        # no block.
        products = ProductCache()
        L_parts = [None if block is None
                   else products.laplacian_parts(t, block)
                   for t, block in enumerate(L_blocks)]
        if warm_start is None:
            state = initialize_state(data, R_pairs, init=config.init,
                                     random_state=config.random_state)
        else:
            state = self._coerce_warm_start(warm_start, data)

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
                            max_iter=int(config.max_iter),
                            n_types=len(data.types),
                            warm_start=warm_start is not None,
                            start=start)

        trace = TraceRecorder()
        scores = LabelScores()
        converged = False
        iteration = 0
        restrict = schedule is not None
        # This S solve doubles as iteration 1's S step: the state does
        # not change between recording the initial objective and the
        # first loop pass, so re-solving there would recompute the
        # identical matrix (one full wasted S solve per fit).
        with _span_scope(fit_span, "setup"):
            state.S = self._timed(
                trace, "s_update", update_association_blocks,
                R_pairs, state, pairs=pairs,
                dirty_pairs=schedule.dirty_pairs if restrict else None,
                S_prev=state.S if restrict else None,
                products=products)
            self._record(trace, scores, data, R_pairs, L_blocks, state,
                         pairs, products, monitor=monitor, schedule=schedule,
                         cache=objective_cache)

        for iteration in range(1, config.max_iter + 1):
            with _span_scope(fit_span, "iteration", iteration=iteration):
                if iteration > 1:
                    state.S = self._timed(
                        trace, "s_update", update_association_blocks,
                        R_pairs, state, pairs=pairs,
                        dirty_pairs=(schedule.dirty_pairs if restrict
                                     else None),
                        S_prev=state.S if restrict else None,
                        products=products)
                state.G_blocks = self._timed(
                    trace, "g_update", update_membership_blocks,
                    R_pairs, L_parts, state,
                    lam=config.lam, pairs=pairs,
                    dirty_types=(schedule.dirty_types if restrict
                                 else None),
                    normalize=True, products=products)
                if config.use_error_matrix:
                    state.E_R = self._timed(
                        trace, "e_update", update_error_matrix_blocks,
                        R_pairs, state, beta=config.beta, pairs=pairs,
                        dirty_types=(schedule.error_types if restrict
                                     else None),
                        E_prev=state.E_R if restrict else None,
                        products=products)
                state.iteration = iteration
                self._record(trace, scores, data, R_pairs, L_blocks, state,
                             pairs, products, monitor=monitor,
                             schedule=schedule, cache=objective_cache)
            decrease = trace.last_relative_decrease()
            if 0.0 <= decrease < config.tol:
                converged = True
                break

        labels = {object_type.name: state.labels_for_type(index)
                  for index, object_type in enumerate(data.types)}
        subspace_outcomes = {member.name: member.outcome
                             for member in ensemble.members_
                             if member is not None and member.outcome is not None}
        result = RHCHMEResult(labels=labels, state=state, trace=trace,
                              converged=converged, n_iterations=iteration,
                              fit_seconds=time.perf_counter() - start,
                              ensemble_seconds=ensemble_seconds,
                              extras={"config": config.describe(),
                                      "backend": backend,
                                      "update_seconds": trace.timings,
                                      "warm_start": warm_start is not None,
                                      "subspace": subspace_outcomes})
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
    def _record(self, trace: TraceRecorder, scores: LabelScores,
                data: MultiTypeRelationalData, R_pairs, L_blocks,
                state: FactorizationState, pairs, products: ProductCache,
                monitor=None, schedule=None, cache=None) -> None:
        """Record the objective breakdown and optional metrics for one iterate."""
        config = self.config
        breakdown = self._timed(trace, "objective", evaluate_objective_blocks,
                                R_pairs, state, L_blocks, lam=config.lam,
                                beta=config.beta, pairs=pairs,
                                schedule=schedule, cache=cache,
                                products=products)
        metrics: dict[str, float] = {}
        if monitor is not None:
            metrics.update(monitor.observe(state))
        if config.track_metrics_every and (
                state.iteration % config.track_metrics_every == 0):
            scores.record(metrics, data, state)
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
