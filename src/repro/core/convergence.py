"""Iteration history bookkeeping for the HOCC solvers.

Records the objective decomposition and (optionally) FScore/NMI against
ground truth at every iteration.  The recorded traces are what the
Figure 3 reproduction (FScore/NMI versus iteration count) plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

__all__ = ["IterationRecord", "TraceRecorder"]


@dataclass(frozen=True)
class IterationRecord:
    """Snapshot of one optimisation iteration.

    Attributes
    ----------
    iteration:
        Iteration counter (0 = initial state before any update).
    objective:
        Total objective value.
    terms:
        Named contribution of each objective term.
    metrics:
        Optional evaluation metrics (e.g. per-type FScore/NMI) at this iterate.
    """

    iteration: int
    objective: float
    terms: dict[str, float] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)


class TraceRecorder:
    """Accumulates :class:`IterationRecord` entries during optimisation.

    Besides the per-iteration objective records, the recorder keeps a
    per-phase wall-clock account (:meth:`add_timing` / :attr:`timings`):
    the solver charges each S / G / E_R update and each objective
    evaluation to its named bucket, so a benchmark regression can be
    localised to one update family without re-profiling the fit.

    Under ``diagnostics=True`` the solver additionally attaches a
    hierarchical fit trace (:attr:`span_tree`, a completed
    :class:`repro.obs.Span` root): the flat buckets answer *how much*
    each update family cost in total, the span tree answers *where* —
    per iteration, per family, per kernel task.
    """

    def __init__(self) -> None:
        self._records: list[IterationRecord] = []
        self._timings: dict[str, float] = {}
        self._timing_counts: dict[str, int] = {}
        #: The fit's hierarchical span tree (``None`` unless the solver
        #: ran with diagnostics enabled).
        self.span_tree = None

    def record(self, iteration: int, objective: float,
               terms: Mapping[str, float] | None = None,
               metrics: Mapping[str, float] | None = None) -> IterationRecord:
        """Append a record and return it."""
        entry = IterationRecord(iteration=int(iteration), objective=float(objective),
                                terms=dict(terms or {}), metrics=dict(metrics or {}))
        self._records.append(entry)
        return entry

    def add_timing(self, name: str, seconds: float) -> None:
        """Charge ``seconds`` of wall clock to the named phase bucket."""
        self._timings[name] = self._timings.get(name, 0.0) + float(seconds)
        self._timing_counts[name] = self._timing_counts.get(name, 0) + 1

    @property
    def timings(self) -> dict[str, float]:
        """Accumulated wall-clock seconds per phase (copy)."""
        return dict(self._timings)

    @property
    def timing_counts(self) -> dict[str, int]:
        """How many times each phase was charged (copy)."""
        return dict(self._timing_counts)

    @property
    def records(self) -> list[IterationRecord]:
        """All records in iteration order."""
        return list(self._records)

    @property
    def objectives(self) -> np.ndarray:
        """Array of objective values per recorded iteration."""
        return np.array([r.objective for r in self._records], dtype=np.float64)

    def metric_series(self, name: str) -> np.ndarray:
        """Array of one metric across iterations (NaN where not recorded)."""
        return np.array([r.metrics.get(name, np.nan) for r in self._records],
                        dtype=np.float64)

    def terms_series(self, name: str) -> np.ndarray:
        """Array of one objective term across iterations (NaN where absent)."""
        return np.array([r.terms.get(name, np.nan) for r in self._records],
                        dtype=np.float64)

    def last_relative_decrease(self) -> float:
        """Relative objective decrease between the last two records.

        Returns infinity when fewer than two records exist so the caller's
        convergence check never triggers prematurely.
        """
        if len(self._records) < 2:
            return float("inf")
        previous = self._records[-2].objective
        current = self._records[-1].objective
        scale = max(abs(previous), 1e-12)
        return (previous - current) / scale

    def __len__(self) -> int:
        return len(self._records)
