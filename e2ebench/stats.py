"""Sample statistics shared by every workload: median, tail rule, rates.

Nothing here imports the library under test, so the harness tests can
exercise the reporting rules without building a model.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

#: A tail percentile is only reported where at least this many samples lie
#: beyond it; fewer would make the "tail" one or two outliers.
TAIL_BEYOND = 10

#: Highest percentile ``op_tail_ms`` reports.  Over ten ``serve-http``
#: runs on a shared 2-core host, p95 and p99 spread by 0.27 and 0.74 of
#: their median (host stalls land in the last percent) and p90 by 0.11,
#: so the tail stops at p90.  ``tail(samples, cap=100)`` is the uncapped
#: reading.
TAIL_CAP = 90.0


@dataclass(frozen=True)
class Tail:
    """The tail latency of a sample set and how it was chosen.

    ``percentile`` is the highest percentile, up to the cap, with at least
    :data:`TAIL_BEYOND` samples beyond it; ``beyond`` counts the samples
    ranked above the reported one and ``n`` is the sample count.  Under
    20 samples not even the median has ten beyond it, so no tail can be
    told from noise: the median is reported and ``rule_met`` is false.
    """

    value: float
    percentile: float
    beyond: int
    n: int

    @property
    def rule_met(self) -> bool:
        return self.beyond >= TAIL_BEYOND


def tail(samples, cap: float = TAIL_CAP) -> Tail:
    """Highest percentile (p50 to ``cap``) with ``TAIL_BEYOND`` samples beyond.

    Percentiles use the nearest rank: the ``p``-th percentile of ``n``
    sorted samples is the one at rank ``ceil(p n / 100)``.  The percentile
    moves smoothly with ``n`` (``100 (n - 10) / n`` between the bounds),
    so runs that complete a few more or fewer ops report nearby values.
    """
    ordered = sorted(float(x) for x in samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of an empty sample set")
    percentile = min(cap, max(50.0, 100.0 * (n - TAIL_BEYOND) / n))
    rank = max(1, math.ceil(percentile * n / 100.0 - 1e-9))
    return Tail(value=ordered[rank - 1], percentile=percentile,
                beyond=n - rank, n=n)


def median(samples) -> float:
    values = [float(x) for x in samples]
    if not values:
        raise ValueError("median of an empty sample set")
    return float(statistics.median(values))


@dataclass
class OpLog:
    """Outcome counts and latencies of one workload's timed phase.

    ``timed_seconds`` is the wall clock the timed phase ran for, excluding
    harness pauses that belong to no op (the ``grow-log`` cycle restore).
    ``traced`` flags, per completed op, whether it ran with layer spans on.
    """

    latencies: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    timed_seconds: float = 0.0

    def record(self, seconds: float | None, traced: bool = False) -> None:
        """Count one attempted op; ``None`` marks it failed."""
        self.attempted += 1
        if seconds is None:
            self.failed += 1
        else:
            self.latencies.append(float(seconds))
            self.traced.append(bool(traced))

    def merge(self, other: "OpLog") -> None:
        """Fold in another caller's ops (same timed phase, so no time)."""
        self.latencies.extend(other.latencies)
        self.traced.extend(other.traced)
        self.attempted += other.attempted
        self.failed += other.failed

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def ops_per_second(self) -> float:
        if self.timed_seconds <= 0:
            raise ValueError("timed phase has no duration")
        return self.completed / self.timed_seconds

    def overhead_ratio(self) -> float:
        """Median traced op over median untraced op (0 without both kinds)."""
        traced = [x for x, on in zip(self.latencies, self.traced) if on]
        plain = [x for x, on in zip(self.latencies, self.traced) if not on]
        if not traced or not plain:
            return 0.0
        return median(traced) / median(plain)
