"""The multi-type relational dataset container.

:class:`MultiTypeRelationalData` holds the object types and the observed
pairwise relations between them, and provides what the HOCC solvers
operate on:

* the per-pair relation blocks ``R_kl`` / ``R_lk = R_klᵀ`` of the symmetric
  ``n × n`` inter-type matrix ``R`` (its diagonal blocks are zero and it is
  never assembled);
* the :class:`~repro.linalg.blocks.BlockSpec` partitions of objects and
  clusters used to interpret the factor matrices ``G`` and ``S``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .._validation import ensure_dense
from ..exceptions import ValidationError
from ..linalg.backend import resolve_backend
from ..linalg.blocks import BlockSpec
from ..linalg.norms import frobenius_norm
from .types import ObjectType, Relation

__all__ = ["MultiTypeRelationalData"]


class MultiTypeRelationalData:
    """Container for K object types and their pairwise relations.

    Parameters
    ----------
    types:
        The object types in a fixed order; this order defines the block
        layout of every assembled matrix.
    relations:
        Observed relations.  Each unordered pair of types may appear at most
        once; the reverse direction is derived by transposition.  Pairs with
        no observed relation contribute zero blocks.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.relational import MultiTypeRelationalData, ObjectType, Relation
    >>> docs = ObjectType("documents", n_objects=4, n_clusters=2)
    >>> terms = ObjectType("terms", n_objects=3, n_clusters=2)
    >>> rel = Relation("documents", "terms", np.ones((4, 3)))
    >>> data = MultiTypeRelationalData([docs, terms], [rel])
    >>> sorted(data.relation_blocks())
    [(0, 1), (1, 0)]
    >>> data.relation_blocks()[(1, 0)].shape
    (3, 4)
    """

    def __init__(self, types: Sequence[ObjectType],
                 relations: Iterable[Relation]) -> None:
        types = list(types)
        if len(types) < 2:
            raise ValidationError("multi-type relational data needs at least two types")
        names = [t.name for t in types]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate type names in {names}")
        self._types: list[ObjectType] = types
        self._index: dict[str, int] = {t.name: i for i, t in enumerate(types)}
        self._relations: dict[tuple[int, int], Relation] = {}
        for relation in relations:
            self.add_relation(relation)

    # ------------------------------------------------------------------ types
    @property
    def types(self) -> list[ObjectType]:
        """The object types in block order."""
        return list(self._types)

    @property
    def type_names(self) -> list[str]:
        """Names of the object types in block order."""
        return [t.name for t in self._types]

    @property
    def n_types(self) -> int:
        """Number of object types K."""
        return len(self._types)

    @property
    def n_objects_total(self) -> int:
        """Total number of objects across every type."""
        return sum(t.n_objects for t in self._types)

    @property
    def n_clusters_total(self) -> int:
        """Total number of clusters across every type."""
        return sum(t.n_clusters for t in self._types)

    def type_index(self, name: str) -> int:
        """Return the block index of the type called ``name``."""
        try:
            return self._index[name]
        except KeyError as exc:
            raise ValidationError(
                f"unknown object type {name!r}; known types: {self.type_names}") from exc

    def get_type(self, name: str) -> ObjectType:
        """Return the :class:`ObjectType` called ``name``."""
        return self._types[self.type_index(name)]

    # -------------------------------------------------------------- relations
    def add_relation(self, relation: Relation) -> None:
        """Register a relation, validating shapes against the declared types."""
        source = self.type_index(relation.source)
        target = self.type_index(relation.target)
        expected = (self._types[source].n_objects, self._types[target].n_objects)
        if relation.matrix.shape != expected:
            raise ValidationError(
                f"relation {relation.source}->{relation.target} has shape "
                f"{relation.matrix.shape}, expected {expected}")
        key = (min(source, target), max(source, target))
        if key in self._relations:
            raise ValidationError(
                f"relation between {relation.source!r} and {relation.target!r} "
                "is already defined")
        # store in canonical (low index -> high index) orientation
        if source <= target:
            self._relations[key] = relation
        else:
            self._relations[key] = relation.transposed()

    @property
    def relations(self) -> list[Relation]:
        """Registered relations in canonical orientation."""
        return [self._relations[key] for key in sorted(self._relations)]

    def relation_between(self, name_a: str, name_b: str) -> Relation | None:
        """Return the relation connecting two named types (or ``None``)."""
        a, b = self.type_index(name_a), self.type_index(name_b)
        key = (min(a, b), max(a, b))
        relation = self._relations.get(key)
        if relation is None:
            return None
        if self.type_index(relation.source) == a:
            return relation
        return relation.transposed()

    # ------------------------------------------------------------ block specs
    def object_block_spec(self) -> BlockSpec:
        """Partition of the n total objects into per-type segments."""
        return BlockSpec(tuple(t.n_objects for t in self._types))

    def cluster_block_spec(self) -> BlockSpec:
        """Partition of the c total clusters into per-type segments."""
        return BlockSpec(tuple(t.n_clusters for t in self._types))

    # -------------------------------------------------------- matrix assembly
    def relation_blocks(self, *, normalize: bool = False,
                        backend: str = "dense") -> dict:
        """Per-pair relation blocks ``R_tu`` in both orientations.

        This is the solvers' view of the inter-type matrix R: a mapping from
        ordered type-index pairs ``(t, u)`` to the ``(n_t, n_u)`` relation
        block, with every observed relation present in both orientations
        (``R_ut = R_tuᵀ``) and unrelated pairs absent.  No global ``(n, n)``
        matrix is assembled.

        Blocks are scaled by their relation ``weight``; with
        ``normalize=True`` each is first scaled to unit Frobenius norm so
        that types with very different co-occurrence magnitudes contribute
        comparably.  ``backend`` selects dense arrays (``"dense"``) or CSR
        matrices built from the blocks' non-zeros (``"sparse"``, ``O(nnz)``
        memory — the entry point of the sparse R-space pipeline);
        ``"auto"`` resolves by total object count (see
        :func:`repro.linalg.backend.resolve_backend`).  Both representations
        hold identical values.
        """
        backend = resolve_backend(backend, n_objects=self.n_objects_total)
        blocks: dict[tuple[int, int], np.ndarray | sp.csr_array] = {}
        for (row, col), relation in self._relations.items():
            scale = relation.weight
            if normalize:
                norm = frobenius_norm(relation.matrix)
                if norm > 0:
                    scale = scale / norm
            if backend == "sparse":
                block = sp.csr_array(relation.matrix, dtype=np.float64) * scale
                transposed = sp.csr_array(block.T)
            else:
                block = ensure_dense(relation.matrix) * scale
                transposed = block.T
            blocks[(row, col)] = block
            blocks[(col, row)] = transposed
        return blocks

    def describe(self) -> str:
        """One-line summary used in logs and experiment reports."""
        parts = [f"{t.name}(n={t.n_objects}, c={t.n_clusters})" for t in self._types]
        return " + ".join(parts) + f", {len(self._relations)} relations"

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"MultiTypeRelationalData({self.describe()})"
