"""Dense-vs-sparse R-space benchmark for the RHCHME fit loop.

PR 1 sparsified the graph pipeline (p-NN affinities, ensemble Laplacian);
this benchmark tracks the other half: the R-space — CSR relation matrix
``R``, row-sparse error matrix ``E_R`` and the factored S / G / E_R updates
and objective of :mod:`repro.core.rspace` that never materialise the
``G S Gᵀ`` product.  Two measurements per size N:

* **fit** — wall clock of a full iteration-capped ``RHCHME.fit`` per
  backend on the same sparse relational dataset (CSR relation blocks, a
  small fraction of corrupted rows for the error matrix to absorb — the
  paper's robust setting, and the regime where a row-sparse E_R is the
  honest representation).  The gated metric is the full-fit speedup at the
  largest N: **sparse must be ≥ 3× dense** (``--check`` turns a miss into a
  non-zero exit for CI).
* **R-space memory** — peak bytes of the R-space stage alone (relation
  blocks, state initialisation, one S update, one E_R update, one objective
  evaluation, all on the blocked kernels ``RHCHME.fit`` iterates), measured
  with :mod:`tracemalloc` in a separate untimed pass.
  Dense allocates the ``O(N²)`` R blocks; sparse must stay at
  ``O(nnz + N·c + k·N)`` for ``k`` surviving error rows — the report
  records the growth exponent of the sparse peak vs N (sublinear in N²
  means < 2) and the stored-row fraction of E_R.  Both backends hold E_R
  row-sparse; at β = 50 on unit-Frobenius relation blocks the exact E
  step keeps no row.

Both backends run the same objective: final objectives are compared at
``rtol=1e-6`` inside the run and a mismatch fails the benchmark outright —
a speedup over a *different* optimisation would be meaningless.

Usage::

    PYTHONPATH=src python benchmarks/bench_rspace.py            # full run
    PYTHONPATH=src python benchmarks/bench_rspace.py --smoke    # CI smoke
    PYTHONPATH=src python benchmarks/bench_rspace.py --check    # gate ≥3×

Writes ``BENCH_rspace.json`` (see ``--output``).
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import scipy.sparse as sp

from common import (bootstrap_sys_path, emit_report, environment_metadata,
                    gate, make_parser, select_sizes)

bootstrap_sys_path()

from repro.core import RHCHME  # noqa: E402
from repro.core.objective import evaluate_objective_blocks  # noqa: E402
from repro.core.state import initialize_state  # noqa: E402
from repro.core.updates import (update_association_blocks,  # noqa: E402
                                update_error_matrix_blocks)
from repro.linalg.backend import is_sparse  # noqa: E402
from repro.linalg.rowsparse import RowSparseMatrix  # noqa: E402
from repro.relational.dataset import MultiTypeRelationalData  # noqa: E402
from repro.relational.types import ObjectType, Relation  # noqa: E402

DEFAULT_SIZES = (750, 1500, 3000)
SMOKE_SIZES = (400, 1200)
LAM = 250.0
BETA = 50.0
MAX_ITER = 8
PARITY_RTOL = 1e-6


def make_sparse_relational(n_total: int, *, n_features: int = 10,
                           n_clusters: int = 5, row_nnz: float = 12.0,
                           corrupt_fraction: float = 0.01,
                           seed: int = 0) -> MultiTypeRelationalData:
    """Two-type dataset with a CSR relation block and corrupted samples.

    The relation is a sparse non-negative co-occurrence matrix carrying the
    planted co-cluster structure, with ``O(row_nnz)`` expected non-zeros per
    row *independent of N* — the bounded-degree regime of real relational
    data (a document touches a bounded number of terms however large the
    corpus), which is what makes ``O(nnz)`` genuinely subquadratic.
    ``corrupt_fraction`` of the first type's objects have their relation
    rows replaced by dense noise — exactly the sample-wise corruption the
    L2,1 error matrix is built to absorb, and what keeps its row-sparse
    representation at ``O(k)`` stored rows.
    """
    rng = np.random.default_rng(seed)
    n_a = max((2 * n_total) // 3, 2)
    n_b = max(n_total - n_a, 2)
    n_clusters = max(1, min(n_clusters, n_a, n_b))
    relation_density = min(row_nnz / n_b, 0.25)
    types = []
    assignments = {}
    for name, n_objects in (("rows", n_a), ("cols", n_b)):
        centers = rng.normal(scale=4.0, size=(n_clusters, n_features))
        labels = rng.integers(0, n_clusters, size=n_objects)
        features = centers[labels] + rng.normal(size=(n_objects, n_features))
        assignments[name] = labels
        types.append(ObjectType(name, n_objects=n_objects,
                                n_clusters=n_clusters,
                                features=features, labels=labels))
    co_cluster = (assignments["rows"][:, None] == assignments["cols"][None, :])
    mask = co_cluster & (rng.random((n_a, n_b)) < 4 * relation_density)
    mask |= rng.random((n_a, n_b)) < relation_density
    matrix = np.where(mask, rng.random((n_a, n_b)), 0.0)
    corrupted = rng.choice(n_a, size=max(1, int(corrupt_fraction * n_a)),
                           replace=False)
    matrix[corrupted] = 2.0 * rng.random((corrupted.size, n_b))
    relation = Relation("rows", "cols", sp.csr_array(matrix))
    return MultiTypeRelationalData(types, [relation])


def _model(backend: str, seed: int) -> RHCHME:
    return RHCHME(backend=backend, max_iter=MAX_ITER, init="random",
                  use_subspace_member=False, track_metrics_every=0,
                  lam=LAM, beta=BETA, random_state=seed)


def time_fit(data: MultiTypeRelationalData, *, backend: str, seed: int) -> dict:
    """Time one full (iteration-capped) fit and describe its E_R."""
    model = _model(backend, seed)
    start = time.perf_counter()
    result = model.fit(data)
    seconds = time.perf_counter() - start
    E_R = result.state.E_R
    stored = E_R.n_stored_rows
    representation = ("row-sparse" if isinstance(E_R, RowSparseMatrix)
                      else type(E_R).__name__)
    return {
        "backend": backend,
        "fit_seconds": round(seconds, 6),
        "ensemble_seconds": round(result.ensemble_seconds, 6),
        "n_iterations": result.n_iterations,
        "final_objective": float(result.trace.objectives[-1]),
        "error_rows_stored": stored,
        "error_rows_fraction": round(stored / E_R.shape[0], 6),
        "error_matrix_representation": representation,
        "labels": result.labels,
    }


def measure_rspace_memory(data: MultiTypeRelationalData, *, backend: str,
                          seed: int) -> dict:
    """Peak bytes of the R-space stage alone (untimed tracemalloc pass)."""
    tracemalloc.start()
    R_pairs = data.relation_blocks(normalize=True, backend=backend)
    state = initialize_state(data, R_pairs, init="random", random_state=seed)
    state.S = update_association_blocks(R_pairs, state)
    state.E_R = update_error_matrix_blocks(R_pairs, state, beta=BETA)
    # Zero sparse Laplacian blocks for both backends: only R-space
    # allocations count here.
    zero_L = [sp.csr_array((n, n), dtype=np.float64)
              for n in state.object_spec.sizes]
    evaluate_objective_blocks(R_pairs, state, zero_L, lam=LAM, beta=BETA)
    _, peak_bytes = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    sparse = any(is_sparse(block) for block in R_pairs.values())
    nnz = sum(int(block.nnz) if is_sparse(block)
              else int(np.count_nonzero(block)) for block in R_pairs.values())
    n_total = state.object_spec.total
    return {
        "backend": backend,
        "peak_rspace_bytes": int(peak_bytes),
        "r_nnz": nnz,
        "r_density": round(nnz / float(n_total * n_total), 6),
        "r_representation": "csr" if sparse else "ndarray",
    }


def _labels_agreement(a: dict, b: dict) -> float:
    """Fraction of objects on which two fits' hard labels agree."""
    total = matched = 0
    for name in a:
        total += a[name].size
        matched += int(np.sum(a[name] == b[name]))
    return matched / max(total, 1)


def run(sizes, *, seed: int) -> dict:
    results = []
    for n_total in sizes:
        data = make_sparse_relational(n_total, seed=seed)
        entry = {"n_total": int(n_total), "max_iter": MAX_ITER}
        fits = {}
        for backend in ("dense", "sparse"):
            print(f"[bench] N={n_total} fit backend={backend} ...", flush=True)
            fits[backend] = time_fit(data, backend=backend, seed=seed)
            entry[f"fit_{backend}"] = {k: v for k, v in fits[backend].items()
                                       if k != "labels"}
            entry[f"memory_{backend}"] = measure_rspace_memory(
                data, backend=backend, seed=seed)
        dense_obj = fits["dense"]["final_objective"]
        sparse_obj = fits["sparse"]["final_objective"]
        parity_gap = abs(dense_obj - sparse_obj) / max(abs(dense_obj), 1e-30)
        if parity_gap > PARITY_RTOL:
            raise SystemExit(
                f"[bench] FAIL: dense/sparse objective parity broken at "
                f"N={n_total} (relative gap {parity_gap:.3e} > {PARITY_RTOL})")
        entry["objective_parity_gap"] = float(parity_gap)
        entry["labels_agreement"] = round(_labels_agreement(
            fits["dense"]["labels"], fits["sparse"]["labels"]), 6)
        entry["speedup_fit"] = round(
            fits["dense"]["fit_seconds"] / fits["sparse"]["fit_seconds"], 3)
        entry["memory_ratio_dense_over_sparse"] = round(
            entry["memory_dense"]["peak_rspace_bytes"]
            / max(entry["memory_sparse"]["peak_rspace_bytes"], 1), 3)
        results.append(entry)
        print(f"[bench] N={n_total}: fit speedup ×{entry['speedup_fit']}, "
              f"R-space memory ratio ×{entry['memory_ratio_dense_over_sparse']}, "
              f"E_R rows {entry['fit_sparse']['error_rows_fraction']:.1%}",
              flush=True)

    largest = results[-1]
    # Growth exponent of the sparse R-space peak vs N (log-log slope between
    # the smallest and largest size): sublinear in N² means < 2.
    mem_exponent = None
    if len(results) >= 2:
        n0, n1 = results[0]["n_total"], largest["n_total"]
        m0 = results[0]["memory_sparse"]["peak_rspace_bytes"]
        m1 = largest["memory_sparse"]["peak_rspace_bytes"]
        if m0 > 0 and m1 > 0 and n1 > n0:
            mem_exponent = round(float(np.log(m1 / m0) / np.log(n1 / n0)), 3)
    return {
        "benchmark": "rhchme-rspace",
        **environment_metadata(),
        "sizes": [int(n) for n in sizes],
        "lam": LAM,
        "beta": BETA,
        "max_iter": MAX_ITER,
        "results": results,
        "summary": {
            "largest_n": largest["n_total"],
            "speedup_fit_at_largest": largest["speedup_fit"],
            "meets_3x_target": bool(largest["speedup_fit"] >= 3.0),
            "rspace_memory_ratio_at_largest":
                largest["memory_ratio_dense_over_sparse"],
            "sparse_peak_memory_growth_exponent_vs_n": mem_exponent,
            "sparse_memory_sublinear_in_n_squared": (
                bool(mem_exponent < 2.0) if mem_exponent is not None else None),
            "error_rows_fraction_at_largest":
                largest["fit_sparse"]["error_rows_fraction"],
        },
    }


def main(argv=None) -> int:
    parser = make_parser(
        __doc__, "BENCH_rspace.json",
        sizes_help=f"total object counts to benchmark (default {DEFAULT_SIZES})",
        with_check="exit non-zero unless the ≥3× fit speedup holds "
                   "at the largest size")
    args = parser.parse_args(argv)

    sizes = select_sizes(args, DEFAULT_SIZES, SMOKE_SIZES)
    report = run(sizes, seed=args.seed)
    emit_report(report, args)
    summary = report["summary"]
    print(f"[bench] largest N={summary['largest_n']}: "
          f"fit speedup ×{summary['speedup_fit_at_largest']} "
          f"(target ≥3: {'PASS' if summary['meets_3x_target'] else 'MISS'}), "
          f"R-space memory ratio ×{summary['rspace_memory_ratio_at_largest']}, "
          f"sparse peak-memory exponent vs N: "
          f"{summary['sparse_peak_memory_growth_exponent_vs_n']}")
    if args.check:
        return gate(summary["meets_3x_target"],
                    "sparse R-space fit speedup below the 3x gate")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
