"""Worker-pool fan-out for the blocked solver kernels.

The blocked representation of Algorithm 2 decomposes every update into
independent per-type or per-pair tasks: given the other factors fixed, the
G update of one type never reads another type's block, and the S / E_R /
objective contributions of one ``(t, u)`` relation pair never read another
pair's.  :class:`TypeWorkPool` maps such task lists across worker threads:
numpy and scipy release the GIL inside their matmul/reduction kernels, so
plain threads give real parallelism without copying any matrix.

``n_jobs=1`` (the default) bypasses the executor entirely: the serial path
is a plain loop with zero scheduling overhead.  Every path returns results
in task order, so the numbers are identical for every ``n_jobs`` — the
solver's kernels are deterministic functions of their operands.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, TypeVar

__all__ = ["TypeWorkPool", "resolve_n_jobs"]

_Item = TypeVar("_Item")
_Result = TypeVar("_Result")


def resolve_n_jobs(n_jobs: int) -> int:
    """Concrete worker count for an ``n_jobs`` knob (``-1`` = all CPUs)."""
    if n_jobs == -1:
        return max(os.cpu_count() or 1, 1)
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1 or -1, got {n_jobs}")
    return int(n_jobs)


class TypeWorkPool:
    """Ordered map over independent blockwise tasks, serial or threaded.

    Usable as a context manager; the serial variant holds no resources and
    the threaded variant shuts its executor down on exit.  One pool is
    created per ``RHCHME.fit`` and shared by every update of the iteration
    loop, so worker start-up costs are paid once per fit, not per kernel.
    """

    def __init__(self, n_jobs: int = 1) -> None:
        self.n_jobs = resolve_n_jobs(n_jobs)
        self._executor: ThreadPoolExecutor | None = None
        if self.n_jobs > 1:
            self._executor = ThreadPoolExecutor(
                max_workers=self.n_jobs,
                thread_name_prefix="rhchme-block")

    def map(self, fn: Callable[[_Item], _Result],
            items: Iterable[_Item]) -> list[_Result]:
        """Apply ``fn`` to every item, in order, and return all results.

        Exceptions propagate to the caller exactly as in the serial loop
        (the first failing task's exception is re-raised).
        """
        items = list(items)
        if self._executor is None or len(items) <= 1:
            return [fn(item) for item in items]
        return list(self._executor.map(fn, items))

    def close(self) -> None:
        """Shut the executor down (idempotent; serial pools are a no-op)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "TypeWorkPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
