"""In-memory span recorder wrapped around the library's layer boundaries.

The benchmark measures each layer from outside: :class:`Tracer` replaces a
public function or method with a wrapper that records a span (name, start,
end, parent) and puts the original back on :meth:`Tracer.uninstall`.
Functions are wrapped where their caller looks them up, since several
modules import their kernels by name (``rhchme.py`` binds
``update_error_matrix_blocks`` at import, ``ensemble.py`` binds
``pnn_affinity``), and patching only the defining module would miss those
calls.  The harness itself calls ``repro.stream.open_model_view`` and
``repro.stream.refresh_from_log`` through the package attribute, so those
are wrapped there.

Spans stay in memory and are written out once the run ends.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None = None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end, **self.attrs}


def _nbytes(matrix) -> int:
    """Bytes held by a dense array or a ``RowSparseMatrix`` (its stored rows)."""
    values = getattr(matrix, "values", None)
    if values is not None and hasattr(values, "nbytes"):
        return int(values.nbytes) + int(matrix.rows.nbytes)
    return int(getattr(matrix, "nbytes", 0))


# --------------------------------------------------------------------- hooks
# A hook runs after its span closes, so its bookkeeping is never charged
# to the layer: hook(span, args, result).

def _spg_outcome(span: Span, args, result) -> None:
    span.attrs.update(n=int(args[1].shape[0]),
                      iterations=int(result.n_iterations),
                      converged=bool(result.converged),
                      objective=float(result.objective))


def _flop(per_n_cubed: int):
    """``subspace_objective`` forms ``gram @ W`` and ``W @ Wᵀ`` (4n³ flop);
    the gradient forms ``gram @ W`` only (2n³ flop)."""
    def hook(span: Span, args, result) -> None:
        n = int(args[0].shape[0])
        span.attrs["flop"] = per_n_cubed * n ** 3
    return hook


def _type_name(span: Span, args, result) -> None:
    span.attrs["type"] = str(args[1])


def _fit_outcome(span: Span, args, result) -> None:
    span.attrs.update(iterations=int(result.n_iterations),
                      converged=bool(result.converged),
                      e_bytes=_nbytes(result.state.E_R))


def _artifact_bytes(span: Span, args, result) -> None:
    path = Path(result)
    span.attrs["bytes"] = sum(
        entry.stat().st_size for entry in path.parent.iterdir()
        if entry.name.startswith(path.stem + "."))


def _append_bytes(span: Span, args, result) -> None:
    log = args[0]
    written = [log.directory / "manifest.json",
               *log.directory.glob(f"seg{int(result):06d}.*")]
    span.attrs["bytes"] = sum(path.stat().st_size for path in written)


#: (module, attribute path, span name, hook).  Span names are
#: ``<module>.<layer>`` so per-layer metrics group by ``src/repro`` module.
LAYER_PATCHES = (
    ("repro.subspace.representation", "SubspaceRepresentation.fit",
     "subspace.fit", _spg_outcome),
    ("repro.subspace.representation", "subspace_objective",
     "subspace.objective", _flop(4)),
    ("repro.subspace.representation", "subspace_objective_gradient",
     "subspace.gradient", _flop(2)),
    ("repro.manifold.ensemble", "pnn_affinity", "graph.pnn", None),
    ("repro.manifold.ensemble", "laplacian", "graph.laplacian", None),
    ("repro.manifold.ensemble", "HeterogeneousManifoldEnsemble.build_blocks",
     "manifold.build", None),
    ("repro.manifold.ensemble", "HeterogeneousManifoldEnsemble.build_for_type",
     "manifold.type", _type_name),
    ("repro.core.rhchme", "RHCHME.fit", "core.fit", _fit_outcome),
    ("repro.core.rhchme", "initialize_state", "core.init", None),
    ("repro.runtime.refresh", "warm_start_state", "core.init", None),
    ("repro.core.rhchme", "update_association_blocks", "core.s_update", None),
    ("repro.core.rhchme", "update_membership_blocks", "core.g_update", None),
    ("repro.core.rhchme", "update_error_matrix_blocks", "core.e_update", None),
    ("repro.core.rhchme", "evaluate_objective_blocks", "core.objective", None),
    ("repro.core.rhchme", "clustering_fscore", "metrics.track", None),
    ("repro.core.rhchme", "normalized_mutual_information", "metrics.track",
     None),
    ("repro.core.rhchme", "RHCHMEResult.to_model", "serve.export", None),
    ("repro.serve.artifact", "RHCHMEModel.save", "serve.save",
     _artifact_bytes),
    ("repro.serve.artifact", "RHCHMEModel.load", "serve.open", None),
    ("repro.stream", "open_model_view", "serve.open", None),
    ("repro.serve.artifact", "out_of_sample_predict", "serve.extension", None),
    ("repro.stream.log", "ObjectLog.append_objects", "stream.append",
     _append_bytes),
    ("repro.stream.log", "ObjectLog.append_edges", "stream.append",
     _append_bytes),
    ("repro.stream.log", "ObjectLog.dataset", "stream.dataset", None),
    ("repro.stream", "refresh_from_log", "stream.refresh", None),
)

#: Spans that only group other layers.  Their self time is the part of an
#: op no layer span accounts for, which is what ``trace.coverage_ratio``
#: measures.
CONTAINERS = frozenset({"op", "core.fit", "stream.refresh"})


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attribute


class Tracer:
    """Span recorder plus the wrappers that feed it.

    Use :meth:`span` for harness-level spans (ops, set-up) and
    ``with tracer.installed():`` to wrap the library's layer boundaries
    for the duration of a block.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    # ------------------------------------------------------------- recording
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        with self._lock:
            span = Span(id=len(self.spans), name=name,
                        start=time.perf_counter(),
                        parent=stack[-1].id if stack else None, attrs=attrs)
            self.spans.append(span)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    # -------------------------------------------------------------- patching
    def _wrap(self, name: str, function, hook):
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as span:
                result = function(*args, **kwargs)
            if hook is not None:
                hook(span, args, result)
            return result
        return wrapper

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module, path, name, hook in LAYER_PATCHES:
                owner, attribute = _resolve(module, path)
                raw = (owner.__dict__[attribute] if isinstance(owner, type)
                       else getattr(owner, attribute))
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(name, raw.__func__, hook))
                else:
                    patched = self._wrap(name, raw, hook)
                saved.append((owner, attribute, raw))
                setattr(owner, attribute, patched)
            yield self
        finally:
            for owner, attribute, raw in reversed(saved):
                setattr(owner, attribute, raw)

    # -------------------------------------------------------------- analysis
    def children(self) -> dict[int, list[Span]]:
        index: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                index[span.parent].append(span)
        return index

    def roots(self, name: str) -> list[Span]:
        return [span for span in self.spans
                if span.parent is None and span.name == name]


def descendants(root: Span, children: dict[int, list[Span]]):
    """Every span under ``root`` (depth first), root excluded."""
    pending = list(children.get(root.id, ()))
    while pending:
        span = pending.pop()
        yield span
        pending.extend(children.get(span.id, ()))


def outermost(root: Span, children: dict[int, list[Span]]):
    """Spans under ``root`` with no same-named span between them and root.

    A layer's time is the sum of its outermost spans, so a layer that
    re-enters itself is not counted twice.
    """
    pending = [(span, frozenset()) for span in children.get(root.id, ())]
    while pending:
        span, above = pending.pop()
        if span.name not in above:
            yield span
        inner = above | {span.name}
        pending.extend((child, inner) for child in children.get(span.id, ()))


def uncovered_seconds(root: Span, children) -> float:
    """Self time of ``root`` and of the container spans beneath it."""
    total = 0.0
    for span in [root, *descendants(root, children)]:
        if span.name in CONTAINERS:
            total += span.seconds - sum(child.seconds
                                        for child in children.get(span.id, ()))
    return total


def solver_outcomes(root: Span, children) -> list[dict]:
    """Per-fit SPG and outer-loop outcomes recorded under ``root``."""
    by_id = {span.id: span for span in descendants(root, children)}
    fits = []
    for span in sorted(by_id.values(), key=lambda s: s.id):
        if span.name != "core.fit":
            continue
        types = {}
        for inner in sorted(descendants(span, children), key=lambda s: s.id):
            if inner.name != "subspace.fit":
                continue
            owner = by_id.get(inner.parent)
            type_name = (owner.attrs.get("type") if owner is not None
                         else None) or f"n={inner.attrs.get('n')}"
            types[type_name] = {key: inner.attrs.get(key) for key in
                                ("n", "iterations", "converged", "objective")}
        fits.append({"outer": {"iterations": span.attrs.get("iterations"),
                               "converged": span.attrs.get("converged")},
                     "spg": types})
    return fits
