"""Block partitions of multi-type relational data.

The paper organises a K-type dataset into symmetric block matrices:

* ``R`` — inter-type relationships: zero diagonal blocks, submatrix ``R_kl``
  relating type k to type l on the off-diagonal (``R_lk = R_klᵀ``).
* ``W`` — intra-type relationships: block diagonal with one affinity matrix
  per type.
* ``G`` — cluster membership: block diagonal with one ``n_k × c_k`` block per
  type.
* ``S`` — cluster association: zero diagonal blocks, ``S_kl`` on the
  off-diagonal.

The solvers never assemble the stacked R, W or G: they keep per-pair and
per-type blocks.  :class:`BlockSpec` records the row/column partition once
(the offsets of each type inside the stacked layout, which ``S`` and
``E_R`` still use), so no code hand-rolls the index arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["BlockSpec"]


@dataclass(frozen=True)
class BlockSpec:
    """Partition of a square block matrix into per-type segments.

    Parameters
    ----------
    sizes:
        Number of rows/columns contributed by each type, in type order.
    """

    sizes: tuple[int, ...]
    offsets: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        sizes = tuple(int(s) for s in self.sizes)
        if not sizes or any(s <= 0 for s in sizes):
            raise ValueError(f"sizes must be positive, got {self.sizes!r}")
        object.__setattr__(self, "sizes", sizes)
        offsets = (0, *np.cumsum(sizes).tolist())
        object.__setattr__(self, "offsets", tuple(int(o) for o in offsets))

    @property
    def n_types(self) -> int:
        """Number of blocks along each axis."""
        return len(self.sizes)

    @property
    def total(self) -> int:
        """Total number of rows/columns covered by the partition."""
        return self.offsets[-1]

    def slice(self, index: int) -> slice:
        """Return the row/column slice covering block ``index``."""
        if not 0 <= index < self.n_types:
            raise IndexError(f"block index {index} out of range [0, {self.n_types})")
        return slice(self.offsets[index], self.offsets[index + 1])

    def block(self, matrix: np.ndarray, row: int, col: int) -> np.ndarray:
        """Extract the ``(row, col)`` block from a full matrix."""
        matrix = np.asarray(matrix)
        if matrix.shape[0] != self.total:
            raise ValueError(
                f"matrix has {matrix.shape[0]} rows, spec expects {self.total}")
        return matrix[self.slice(row), self.slice(col)]

    def type_of_index(self, position: int) -> int:
        """Return the type index owning global row/column ``position``."""
        if not 0 <= position < self.total:
            raise IndexError(f"position {position} out of range [0, {self.total})")
        return int(np.searchsorted(self.offsets, position, side="right") - 1)
