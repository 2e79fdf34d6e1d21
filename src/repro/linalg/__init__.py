"""Shared linear-algebra utilities used by every solver in the library.

The module groups small, well-tested numerical primitives:

* :mod:`repro.linalg.parts` — positive/negative part splits used by the
  multiplicative update rules.
* :mod:`repro.linalg.norms` — the ℓ1, ℓ2, Frobenius and L2,1 norms that appear
  in the paper's objective functions.
* :mod:`repro.linalg.normalize` — row/column and symmetric normalisations
  (including the row-ℓ1 normalisation applied to the cluster membership
  matrix G).
* :mod:`repro.linalg.blocks` — the per-type block partition of the
  matrices R, W, G and S used by multi-type relational data.
* :mod:`repro.linalg.projections` — projection operators onto the feasible
  sets of the subspace solve and the RMC candidate weights.
* :mod:`repro.linalg.safe` — numerically safe inverses and divisions.
* :mod:`repro.linalg.backend` — dense/sparse compute-backend selection and
  conversion helpers used to thread scipy.sparse through the pipeline.
* :mod:`repro.linalg.rowsparse` — the row-sparse matrix representation of
  the sample-wise error matrix E_R.
"""

from .backend import (
    AUTO_SPARSE_THRESHOLD,
    BACKENDS,
    as_csr,
    check_backend,
    is_sparse,
    resolve_backend,
    to_backend,
    to_dense,
)
from .parts import negative_part, positive_part, split_parts
from .norms import (
    frobenius_norm,
    l1_norm,
    l2_norm,
    l21_norm,
    row_l2_norms,
    trace_quadratic,
)
from .normalize import (
    column_normalize_l1,
    row_normalize_l1,
    row_normalize_l2,
    symmetric_normalize,
    tfidf_transform,
)
from .blocks import BlockSpec
from .projections import (
    project_box,
    project_nonnegative,
    project_nonnegative_zero_diagonal,
    project_simplex_rows,
)
from .rowsparse import RowSparseMatrix
from .safe import gram_pinv, safe_divide, safe_inverse, safe_sqrt, stable_pinv

__all__ = [
    "AUTO_SPARSE_THRESHOLD",
    "BACKENDS",
    "BlockSpec",
    "RowSparseMatrix",
    "as_csr",
    "check_backend",
    "is_sparse",
    "resolve_backend",
    "to_backend",
    "to_dense",
    "column_normalize_l1",
    "frobenius_norm",
    "gram_pinv",
    "l1_norm",
    "l21_norm",
    "l2_norm",
    "negative_part",
    "positive_part",
    "project_box",
    "project_nonnegative",
    "project_nonnegative_zero_diagonal",
    "project_simplex_rows",
    "row_l2_norms",
    "row_normalize_l1",
    "row_normalize_l2",
    "safe_divide",
    "safe_inverse",
    "safe_sqrt",
    "split_parts",
    "stable_pinv",
    "symmetric_normalize",
    "tfidf_transform",
    "trace_quadratic",
]
