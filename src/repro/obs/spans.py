"""Span primitives: the tree-structured timing vocabulary of the stack.

A :class:`Span` is one named, timed node of a trace tree — a request, a
coalesced batch, a fit iteration, one update kernel.  Spans carry a
``trace_id`` (shared by every span of one tree, carried on the wire as the
optional ``trace_id`` field of the schema documents), a ``span_id``/
``parent_id`` pair linking the tree together, wall-clock ``start``/``end``
timestamps and free-form attributes.

Two construction styles cover the stack's threading reality:

* **context propagation** — :func:`activate_span` installs a span as the
  contextvar-visible *current* span; downstream code that has no reference
  to the tracer (the predictor's numerics, the out-of-sample extension,
  the blocked update kernels) attaches children to :func:`current_span`.
  Contexts are per-thread, so a worker thread activates the span it was
  handed and its callees nest correctly without any plumbing.
* **explicit timestamps** — :meth:`Span.record` appends an
  already-completed child from ``(start, end)`` readings taken on another
  thread (the micro-batcher enqueues on one thread and computes on
  another; the queue-wait span spans both).

All timestamps are ``time.perf_counter()`` readings: monotonic, high
resolution, comparable across threads of one process.  Serialised trees
(:meth:`Span.to_dict`) report offsets relative to the tree root instead of
raw counter values, so dumps are meaningful across processes.

Child appends are guarded by one module lock, because the serving
runtime's threads hand request trees between them; everything else on a
span is touched by one thread at a time by construction (a request's tree
moves *between* threads, never into two at once).
"""

from __future__ import annotations

import contextvars
import threading
import time
import uuid
from contextlib import contextmanager

__all__ = ["Span", "new_trace_id", "new_span_id", "current_span",
           "activate_span"]

# One lock for every child append: the critical section is a single
# list.append, so a finer-grained per-span lock would cost more in
# per-span memory than it saves in contention.
_CHILD_LOCK = threading.Lock()

_CURRENT: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
    "repro_obs_current_span", default=None)


def new_trace_id() -> str:
    """A fresh 32-hex-character trace id (shared by one span tree)."""
    return uuid.uuid4().hex


def new_span_id() -> str:
    """A fresh 16-hex-character span id (unique within a process)."""
    return uuid.uuid4().hex[:16]


def current_span() -> Span | None:
    """The span the calling context is executing under (``None`` outside)."""
    return _CURRENT.get()


@contextmanager
def activate_span(span: Span | None):
    """Install ``span`` as the context's current span for the block.

    ``None`` is accepted and is a no-op, so call sites can write
    ``with activate_span(maybe_span):`` without branching on whether
    tracing is enabled.
    """
    if span is None:
        yield None
        return
    token = _CURRENT.set(span)
    try:
        yield span
    finally:
        _CURRENT.reset(token)


class Span:
    """One timed node of a trace tree (see the module docstring)."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "start", "end",
                 "status", "error", "attributes", "children", "marks")

    def __init__(self, name: str, *, trace_id: str | None = None,
                 parent: "Span | None" = None, start: float | None = None,
                 **attributes) -> None:
        self.name = str(name)
        if trace_id is None:
            trace_id = parent.trace_id if parent is not None else new_trace_id()
        self.trace_id = str(trace_id)
        self.span_id = new_span_id()
        self.parent_id = parent.span_id if parent is not None else None
        self.start = time.perf_counter() if start is None else float(start)
        self.end: float | None = None
        self.status = "ok"
        self.error: str | None = None
        self.attributes: dict = dict(attributes)
        self.children: list[Span] = []
        # Scratch timestamps the stack stashes on a span while its tree is
        # in flight (e.g. the perf-counter enqueue time the queue-wait span
        # is later recorded from); never serialised.
        self.marks: dict[str, float] = {}

    # ------------------------------------------------------------ construction
    def child(self, name: str, *, start: float | None = None,
              **attributes) -> "Span":
        """Append and return an open child span (same ``trace_id``)."""
        span = Span(name, parent=self, start=start, **attributes)
        with _CHILD_LOCK:
            self.children.append(span)
        return span

    def record(self, name: str, start: float, end: float,
               **attributes) -> "Span":
        """Append a completed child from explicit ``perf_counter`` readings.

        Thread-safe: worker threads record children of a shared parent
        concurrently (the append is the only shared mutation).
        """
        span = Span(name, parent=self, start=start, **attributes)
        span.end = float(end)
        with _CHILD_LOCK:
            self.children.append(span)
        return span

    def annotate(self, **attributes) -> "Span":
        """Merge attributes into the span; returns ``self`` for chaining."""
        self.attributes.update(attributes)
        return self

    def finish(self, *, end: float | None = None,
               error: BaseException | str | None = None) -> "Span":
        """Close the span (idempotent), optionally marking it errored."""
        if self.end is None or end is not None:
            self.end = time.perf_counter() if end is None else float(end)
        if error is not None:
            self.status = "error"
            self.error = (error if isinstance(error, str)
                          else f"{type(error).__name__}: {error}")
        return self

    # -------------------------------------------------------------- inspection
    @property
    def duration(self) -> float:
        """Seconds from start to end (to *now* while the span is open)."""
        end = time.perf_counter() if self.end is None else self.end
        return max(0.0, end - self.start)

    def iter_spans(self):
        """Yield this span and every descendant, depth first."""
        yield self
        for child in list(self.children):
            yield from child.iter_spans()

    def to_dict(self, *, origin: float | None = None) -> dict:
        """JSON-safe tree with timestamps as offsets from ``origin``.

        ``origin`` defaults to this span's own start, so a root span
        serialises with ``start_offset_seconds == 0`` and every descendant
        reports where it sat inside the root's wall clock.
        """
        if origin is None:
            origin = self.start
        document = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_offset_seconds": round(self.start - origin, 9),
            "duration_seconds": round(self.duration, 9),
            "status": self.status,
        }
        if self.error is not None:
            document["error"] = self.error
        if self.attributes:
            document["attributes"] = dict(self.attributes)
        if self.children:
            document["children"] = [child.to_dict(origin=origin)
                                    for child in list(self.children)]
        return document
