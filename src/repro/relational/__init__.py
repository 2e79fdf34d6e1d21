"""Multi-type relational data model.

Multi-type relational data (Section I.A of the paper) consists of K object
types, each with its own feature matrix, connected by pairwise co-occurrence
matrices.  This package provides:

* :mod:`repro.relational.types` — :class:`ObjectType` and :class:`Relation`
  descriptors.
* :mod:`repro.relational.dataset` — :class:`MultiTypeRelationalData`, the
  container every HOCC method consumes, with the per-pair blocks of the
  inter-type matrix ``R`` and the block partitions of objects and clusters
  that structure ``G`` and ``S``.
"""

from .types import ObjectType, Relation
from .dataset import MultiTypeRelationalData

__all__ = ["MultiTypeRelationalData", "ObjectType", "Relation"]
