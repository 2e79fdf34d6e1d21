"""Two-engine backend benchmark for the RHCHME solver pipeline.

Times the stages the compute backend actually differentiates, across growing
total object counts N, for the numpy ``dense`` and ``sparse`` engines:

* **pipeline** — the graph-side stages the backend owns, on the blocked
  kernels: **build** (p-NN affinity + per-type ensemble Laplacian blocks +
  the one-time positive/negative split) and **update** (repeated membership
  updates forming ``L_t± @ G_t``), with ``pipeline = build + update``.  The report records the
  dense-over-sparse pipeline speedup at every size and whether it meets
  the ≥ 3× target at the largest one; the target is reported, not gated.
  Peak *additional* backend memory is measured with :mod:`tracemalloc` in
  a separate untimed pass.
* **engine sweep** — the blocked hot loop (S / G / E_R updates + objective,
  exactly the kernels ``RHCHME.fit`` iterates) timed per engine; the
  summary names the faster engine at the largest size.

The runner has no ``--check`` gate.

Usage::

    PYTHONPATH=src python benchmarks/bench_backend.py            # full run
    PYTHONPATH=src python benchmarks/bench_backend.py --smoke    # CI smoke
    PYTHONPATH=src python benchmarks/bench_backend.py --with-fit

Writes ``BENCH_backend.json`` (see ``--output``).
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np

from common import (bootstrap_sys_path, emit_report, environment_metadata,
                    make_parser, select_sizes)

bootstrap_sys_path()

from repro.core import RHCHME  # noqa: E402
from repro.core.objective import evaluate_objective_blocks  # noqa: E402
from repro.core.state import initialize_state  # noqa: E402
from repro.core.updates import (update_association_blocks,  # noqa: E402
                                update_error_matrix_blocks,
                                update_membership_blocks)
from repro.linalg.backend import is_sparse  # noqa: E402
from repro.linalg.norms import trace_quadratic  # noqa: E402
from repro.linalg.parts import split_parts  # noqa: E402
from repro.manifold.ensemble import HeterogeneousManifoldEnsemble  # noqa: E402
from repro.relational.dataset import MultiTypeRelationalData  # noqa: E402
from repro.relational.types import ObjectType, Relation  # noqa: E402

DEFAULT_SIZES = (300, 1000, 3000)
SMOKE_SIZES = (150, 400)
LAM = 250.0
BETA = 50.0


def make_synthetic(n_total: int, *, n_features: int = 10, n_clusters: int = 5,
                   relation_density: float = 0.05, seed: int = 0) -> MultiTypeRelationalData:
    """Two-type dataset (2:1 split) with Gaussian blob features.

    The inter-type relation is a sparse non-negative co-occurrence matrix;
    features carry the cluster structure so the p-NN graph is meaningful.
    """
    rng = np.random.default_rng(seed)
    n_a = max((2 * n_total) // 3, 2)
    n_b = max(n_total - n_a, 2)
    n_clusters = max(1, min(n_clusters, n_b, n_a))
    types = []
    assignments = {}
    for name, n_objects in (("rows", n_a), ("cols", n_b)):
        centers = rng.normal(scale=4.0, size=(n_clusters, n_features))
        labels = rng.integers(0, n_clusters, size=n_objects)
        features = centers[labels] + rng.normal(size=(n_objects, n_features))
        assignments[name] = labels
        types.append(ObjectType(name, n_objects=n_objects, n_clusters=n_clusters,
                                features=features, labels=labels))
    co_cluster = (assignments["rows"][:, None] == assignments["cols"][None, :])
    matrix = np.where(co_cluster & (rng.random((n_a, n_b)) < 4 * relation_density),
                      rng.random((n_a, n_b)), 0.0)
    background = rng.random((n_a, n_b)) < relation_density
    matrix = np.maximum(matrix, np.where(background, rng.random((n_a, n_b)), 0.0))
    return MultiTypeRelationalData(types, [Relation("rows", "cols", matrix)])


def _make_ensemble(backend: str, p: int) -> HeterogeneousManifoldEnsemble:
    return HeterogeneousManifoldEnsemble(use_subspace=False, use_pnn=True,
                                         p=p, backend=backend)


def time_pipeline(data: MultiTypeRelationalData, *, backend: str, p: int,
                  n_iters: int, seed: int) -> dict:
    """Time the backend-owned graph-side stages and their peak memory.

    Timed (without tracemalloc, which inflates allocation-heavy code):
    ensemble build, ``n_iters`` membership updates, ``n_iters`` objective
    evaluations.  Measured (untimed pass): peak memory of Laplacian assembly
    plus one regulariser application — the allocations the backend choice is
    responsible for.  The relations stay dense for both backends, so only
    the graph side differs.
    """
    R_pairs = data.relation_blocks(normalize=True)
    state = initialize_state(data, R_pairs, init="random", random_state=seed)
    state.S = update_association_blocks(R_pairs, state)

    start = time.perf_counter()
    L_blocks = _make_ensemble(backend, p).build_blocks(data)
    L_parts = [split_parts(block) for block in L_blocks]
    build_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(n_iters):
        state.G_blocks = update_membership_blocks(R_pairs, L_parts, state,
                                                  lam=LAM)
    update_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(n_iters):
        evaluate_objective_blocks(R_pairs, state, L_blocks, lam=LAM, beta=BETA)
    objective_seconds = time.perf_counter() - start

    del L_blocks, L_parts
    tracemalloc.start()
    L_blocks = _make_ensemble(backend, p).build_blocks(data)
    for G_t, L_t in zip(state.G_blocks, L_blocks):
        L_pos, L_neg = split_parts(L_t)
        _ = L_pos @ G_t
        _ = L_neg @ G_t
        trace_quadratic(G_t, L_t)
    _, peak_bytes = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    nnz = sum(int(L.nnz) if is_sparse(L) else int(np.count_nonzero(L))
              for L in L_blocks)
    n = state.object_spec.total
    return {
        "engine": backend,
        "backend": backend,
        "build_seconds": round(build_seconds, 6),
        "update_seconds": round(update_seconds, 6),
        "objective_seconds": round(objective_seconds, 6),
        "pipeline_seconds": round(build_seconds + update_seconds, 6),
        "peak_additional_bytes": int(peak_bytes),
        "laplacian_nnz": nnz,
        "laplacian_density": round(nnz / float(n * n), 6),
        "representation": "csr" if is_sparse(L_blocks[0]) else "ndarray",
    }


def _blocked_problem(data: MultiTypeRelationalData, *, engine_name: str,
                     p: int, seed: int):
    """Blocked operands (R_pairs, L_blocks, L_parts, state) for one engine."""
    R_pairs = data.relation_blocks(normalize=True, backend=engine_name)
    ensemble = _make_ensemble(engine_name, p)
    L_blocks = ensemble.build_blocks(data)
    L_parts = [split_parts(block) for block in L_blocks]
    state = initialize_state(data, R_pairs, init="random", random_state=seed)
    return R_pairs, L_blocks, L_parts, state


def time_engine_updates(data: MultiTypeRelationalData, *, engine_name: str,
                        p: int, n_iters: int, seed: int) -> dict:
    """Time the blocked hot loop (S / G / E_R / objective) on one engine.

    This is the per-iteration work ``RHCHME.fit`` repeats, driven
    identically for numpy dense and numpy sparse so the timings are
    comparable.
    """
    R_pairs, L_blocks, L_parts, state = _blocked_problem(
        data, engine_name=engine_name, p=p, seed=seed)

    # One warm pass populates S so the timed rounds measure steady-state
    # iterations.
    state.S = update_association_blocks(R_pairs, state)

    start = time.perf_counter()
    for _ in range(n_iters):
        S = update_association_blocks(R_pairs, state)
    s_seconds = time.perf_counter() - start
    state.S = S

    start = time.perf_counter()
    for _ in range(n_iters):
        G = update_membership_blocks(R_pairs, L_parts, state, lam=LAM)
    g_seconds = time.perf_counter() - start
    state.G_blocks = G

    start = time.perf_counter()
    for _ in range(n_iters):
        E = update_error_matrix_blocks(R_pairs, state, beta=BETA)
    e_seconds = time.perf_counter() - start
    state.E_R = E

    start = time.perf_counter()
    for _ in range(n_iters):
        breakdown = evaluate_objective_blocks(R_pairs, state, L_blocks,
                                              lam=LAM, beta=BETA)
    objective_seconds = time.perf_counter() - start

    total = s_seconds + g_seconds + e_seconds + objective_seconds
    return {
        "engine": engine_name,
        "s_seconds": round(s_seconds, 6),
        "g_seconds": round(g_seconds, 6),
        "e_seconds": round(e_seconds, 6),
        "objective_seconds": round(objective_seconds, 6),
        "update_total_seconds": round(total, 6),
        "final_objective": float(breakdown.total),
    }


def time_fit(data: MultiTypeRelationalData, *, backend: str, p: int,
             max_iter: int, seed: int) -> dict:
    """Time a full (iteration-capped) RHCHME fit with the given backend."""
    model = RHCHME(backend=backend, p=p, max_iter=max_iter, init="random",
                   use_subspace_member=False, track_metrics_every=0,
                   random_state=seed)
    start = time.perf_counter()
    result = model.fit(data)
    seconds = time.perf_counter() - start
    return {
        "engine": backend,
        "backend": backend,
        "fit_seconds": round(seconds, 6),
        "ensemble_seconds": round(result.ensemble_seconds, 6),
        "n_iterations": result.n_iterations,
        "final_objective": float(result.trace.objectives[-1]),
    }


def run(sizes, *, p: int, n_iters: int, seed: int, with_fit: bool,
        fit_max_iter: int) -> dict:
    engine_names = ["dense", "sparse"]
    results = []
    for n_total in sizes:
        data = make_synthetic(n_total, seed=seed)
        entry = {"n_total": int(n_total), "p": int(p), "n_iters": int(n_iters)}
        for backend in ("dense", "sparse"):
            print(f"[bench] N={n_total} backend={backend} ...", flush=True)
            entry[backend] = time_pipeline(data, backend=backend, p=p,
                                           n_iters=n_iters, seed=seed)
        entry["speedup_pipeline"] = round(
            entry["dense"]["pipeline_seconds"] / entry["sparse"]["pipeline_seconds"], 3)
        entry["memory_ratio_dense_over_sparse"] = round(
            entry["dense"]["peak_additional_bytes"]
            / max(entry["sparse"]["peak_additional_bytes"], 1), 3)
        entry["engines"] = []
        for name in engine_names:
            print(f"[bench] N={n_total} engine={name} hot loop ...", flush=True)
            entry["engines"].append(time_engine_updates(
                data, engine_name=name, p=p, n_iters=n_iters, seed=seed))
        if with_fit:
            for backend in engine_names:
                print(f"[bench] N={n_total} full fit backend={backend} ...", flush=True)
                entry[f"fit_{backend}"] = time_fit(data, backend=backend, p=p,
                                                   max_iter=fit_max_iter, seed=seed)
            entry["speedup_fit"] = round(
                entry["fit_dense"]["fit_seconds"] / entry["fit_sparse"]["fit_seconds"], 3)
        results.append(entry)
        print(f"[bench] N={n_total}: pipeline speedup ×{entry['speedup_pipeline']}"
              + (f", fit speedup ×{entry['speedup_fit']}" if with_fit else ""),
              flush=True)

    largest = results[-1]
    # Peak-memory growth exponent of the sparse pipeline vs N (log-log slope
    # between the smallest and largest size): sublinear in N² means < 2.
    mem_exponent = None
    if len(results) >= 2:
        n0, n1 = results[0]["n_total"], largest["n_total"]
        m0 = results[0]["sparse"]["peak_additional_bytes"]
        m1 = largest["sparse"]["peak_additional_bytes"]
        if m0 > 0 and m1 > 0 and n1 > n0:
            mem_exponent = round(float(np.log(m1 / m0) / np.log(n1 / n0)), 3)

    engine_totals = {e["engine"]: e["update_total_seconds"]
                     for e in largest["engines"]}
    fastest = min(engine_totals, key=engine_totals.get)
    return {
        "benchmark": "rhchme-backend",
        **environment_metadata(),
        "sizes": [int(n) for n in sizes],
        "p": int(p),
        "lam": LAM,
        "beta": BETA,
        "engines": engine_names,
        "results": results,
        "summary": {
            "largest_n": largest["n_total"],
            "speedup_pipeline_at_largest": largest["speedup_pipeline"],
            "meets_3x_target": bool(largest["speedup_pipeline"] >= 3.0),
            "sparse_peak_memory_growth_exponent_vs_n": mem_exponent,
            "sparse_memory_sublinear_in_n_squared": (
                bool(mem_exponent < 2.0) if mem_exponent is not None else None),
            "fastest_engine_at_largest": fastest,
            "engine_update_seconds_at_largest": engine_totals,
        },
    }


def main(argv=None) -> int:
    parser = make_parser(
        __doc__, "BENCH_backend.json",
        sizes_help=f"total object counts to benchmark (default {DEFAULT_SIZES})")
    parser.add_argument("--p", type=int, default=5, help="p-NN neighbour count")
    parser.add_argument("--iters", type=int, default=10,
                        help="membership/objective rounds per pipeline timing")
    parser.add_argument("--with-fit", action="store_true",
                        help="also time full RHCHME fits (slower)")
    parser.add_argument("--fit-max-iter", type=int, default=5)
    args = parser.parse_args(argv)

    sizes = select_sizes(args, DEFAULT_SIZES, SMOKE_SIZES)
    report = run(sizes, p=args.p, n_iters=args.iters, seed=args.seed,
                 with_fit=args.with_fit, fit_max_iter=args.fit_max_iter)
    emit_report(report, args)
    summary = report["summary"]
    print(f"[bench] largest N={summary['largest_n']}: "
          f"pipeline speedup ×{summary['speedup_pipeline_at_largest']} "
          f"(target ≥3: {'PASS' if summary['meets_3x_target'] else 'MISS'}), "
          f"sparse peak-memory exponent vs N: "
          f"{summary['sparse_peak_memory_growth_exponent_vs_n']}")
    print(f"[bench] engines at largest N: "
          f"{summary['engine_update_seconds_at_largest']} "
          f"(fastest: {summary['fastest_engine_at_largest']})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
