"""Delta scheduling of the blocked solver — which blocks a refit recomputes.

The blocked core (PR 5) decomposed Algorithm 2 into independent per-type
and per-pair kernels; growth made that a *scheduling* problem: when only
one of T types received new objects, the other types' ``G_t`` blocks, the
pairs among them and their ``E_R`` rows are already at (or within noise
of) their fixed point, so recomputing them every iteration buys nothing.

:class:`DirtySet` is the caller-facing declaration — the *names* of the
object types whose data changed (new rows appended, relations touched).
:class:`DeltaSchedule` resolves it against a concrete fit (type order
plus the active relation pairs) into the index sets the kernels consume:

``dirty_types``
    Types whose ``G_t`` block is re-optimised.  Every other block is
    frozen at its warm-start value — ``update_membership_blocks`` never
    touches it.
``dirty_pairs``
    Ordered active pairs with at least one dirty endpoint.  Only these
    recompute their ``S_tu`` block (clean blocks carry over from the
    warm-start association) and their reconstruction term.
``error_types``
    Row types whose ``E_R`` rows must be recomputed: a row's L2,1 norm
    spans *all* of its cross-type blocks, so any type with at least one
    dirty pair re-solves its whole row block; fully clean row types
    splice their previous rows through unchanged.

Freezing clean blocks turns the refit's per-iteration cost from
``O(all types + all pairs)`` into ``O(dirty neighbourhood)``.  The
trade-off is explicit: frozen blocks stop tracking the moving factors of
their dirty neighbours within the refresh.

``dirty=None`` remains the correctness escape hatch throughout the
stack: without a schedule every code path is byte-for-byte the full
refit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exceptions import ValidationError

__all__ = ["DirtySet", "DeltaSchedule"]


@dataclass(frozen=True)
class DirtySet:
    """Declaration of which object types' data changed since the last fit.

    Attributes
    ----------
    types:
        Names of the dirty object types, as a set (``{"docs"}``; a bare
        string is rejected rather than split into characters).  May be
        empty — an empty dirty set makes the refit a (cheap) no-op that
        re-records the objective and converges immediately.
    """

    types: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if isinstance(self.types, str):
            raise ValidationError(
                f"DirtySet types must be a set of type names, got the "
                f"string {self.types!r}; pass types={{{self.types!r}}}")
        object.__setattr__(self, "types",
                           frozenset(str(name) for name in self.types))

    @classmethod
    def from_growth(cls, grown) -> "DirtySet":
        """Dirty set from a per-type growth delta (``{name: n_new}``)."""
        return cls(types=frozenset(name for name, count in dict(grown).items()
                                   if count > 0))

    def resolve(self, type_names) -> frozenset[int]:
        """Map the dirty names onto a fit's type order (validating them)."""
        order = {name: index for index, name in enumerate(type_names)}
        unknown = sorted(self.types - set(order))
        if unknown:
            raise ValidationError(
                f"dirty set names unknown object types {unknown}; the "
                f"dataset has {list(type_names)}")
        return frozenset(order[name] for name in self.types)

    def describe(self) -> dict:
        """JSON-safe summary recorded in fit extras and refresh telemetry."""
        return {"types": sorted(self.types)}


class DeltaSchedule:
    """A :class:`DirtySet` resolved against one fit's concrete structure.

    Parameters
    ----------
    dirty:
        The caller's dirty-type declaration.
    type_names:
        The dataset's type order (index space of the blocked kernels).
    pairs:
        The fit's active ordered relation pairs (the output of
        :func:`repro.core.updates.active_relation_pairs`).
    """

    def __init__(self, dirty: DirtySet, type_names, pairs, *,
                 track_errors: bool = True) -> None:
        self.dirty = dirty
        self.type_names = [str(name) for name in type_names]
        self.n_types = len(self.type_names)
        self.dirty_types = dirty.resolve(self.type_names)
        self.dirty_pairs = frozenset(
            pair for pair in pairs
            if pair[0] in self.dirty_types or pair[1] in self.dirty_types)
        # A row type's L2,1 norm couples all of its cross-type blocks, so
        # one dirty pair dirties the type's entire E_R row block.  With
        # the error matrix ablated (``use_error_matrix=False``) E_R is
        # identically zero and never updated, so the coupling is vacuous:
        # tracking it would re-evaluate every objective pair that merely
        # shares a row type with the dirty neighbourhood.
        self.error_types = (frozenset(pair[0] for pair in self.dirty_pairs)
                            if track_errors else frozenset())
        # Types whose Laplacian block the fit builds (and smooths over).
        # Only dirty types ever run a G update, so only their ``L_t``
        # blocks are built — the clean types' smoothness terms are a
        # constant the trace simply omits.
        self.laplacian_types = tuple(sorted(self.dirty_types))
        # Pairs whose reconstruction term changes between iterations.  A
        # pair's term moves when its ``S_tu``/``G`` factors move (a dirty
        # endpoint) or when its ``E_tu`` rows were re-shrunk (a row type
        # with any dirty pair re-solves its whole row block).
        self.objective_pairs = self.dirty_pairs | frozenset(
            (t, u) for t in self.error_types
            for u in range(self.n_types)
            if t != u)

    def describe(self) -> dict:
        """JSON-safe schedule summary (fit extras)."""
        return {
            "dirty": self.dirty.describe(),
            "dirty_types": sorted(self.type_names[t]
                                  for t in self.dirty_types),
            "error_types": sorted(self.type_names[t]
                                  for t in self.error_types),
            "n_dirty_pairs": len(self.dirty_pairs),
        }
