"""``grow-log``: streaming growth through the write path, default config.

One caller, closed loop.  Set-up cold-fits a default model on a star
schema (a relational-only hub plus three featured satellites, the shape
of ``benchmarks/bench_stream.make_stream_pair``), saves it with
``per-type-mmap`` and starts an ``ObjectLog`` on the base.  Each op
appends one segment (+4% objects to the smallest satellite, plus their
hub edges) and runs ``append_objects``/``append_edges`` ->
``refresh_from_log`` -> ``save(per-type-mmap)`` -> ``open_model_view``.

With E_R on, the ensemble resolves dense and E_R is a dense N x N array,
so most of an op is the warm, delta-scheduled solver over that E_R plus
export and artifact writes.  Successive refreshes do not cost the same,
so ops replay a fixed cycle of :data:`CYCLE` segments and the base
artifact and log are restored from a pristine copy between cycles (with
the clock stopped): op i of every cycle does the same work.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

import repro.stream as stream
from repro.core import RHCHME
from repro.linalg import row_normalize_l1
from repro.metrics import clustering_fscore, normalized_mutual_information
from repro.relational.dataset import MultiTypeRelationalData
from repro.relational.types import ObjectType, Relation

from common import (Checks, Context, Outcome, checked_config, default_config,
                    fresh_dir, labels_complete, monotone, peak_rss_mb,
                    remove_dir, repeated_setup, single_caller)

#: Objects in the base dataset.  The hub holds half; the satellites a
#: tenth, 15% and a quarter.  At 1000 objects an op takes 0.9-1.3 s on
#: one core, so a 20 s run sees 16-21 ops (2000 objects quadruples the
#: dense E_R work and leaves four or five).
N_TOTAL = 1000
HUB = "docs"
SATELLITES = (("words", 0.10), ("authors", 0.15), ("venues", 0.25))
GROWING = "words"           # the smallest satellite
GROW_FRACTION = 0.04
CYCLE = 4                   # segments replayed per cycle
N_CLUSTERS = 4
N_FEATURES = 64
#: Standard deviation of the satellites' cluster centres (unit noise
#: around them).  At 6 the warm refresh's relative decrease settles
#: between 1e-5 and 1e-4 per step, so some seeds (2 of 37 tried) stop
#: under ``tol`` within ten steps while the rest run all 100: op cost
#: would depend on the seed.  At 3 it settles at 2.5e-3 to 4.4e-3 on each
#: of 12 seeds tried, and every refresh runs the full budget.
CENTER_SCALE = 3.0
#: Separated blobs: the default refresh labels the grown satellite
#: near-perfectly, so these floors only catch a broken refresh.
FSCORE_FLOOR = 0.8
NMI_FLOOR = 0.7


def type_sizes(n_total: int = N_TOTAL) -> dict[str, int]:
    sizes = {name: int(round(n_total * share)) for name, share in SATELLITES}
    return {HUB: n_total - sum(sizes.values()), **sizes}


@dataclass
class StarData:
    """Base dataset plus the cycle's appended segments, all from one seed."""

    base: MultiTypeRelationalData
    sizes: dict
    n_grow: int
    features: np.ndarray        # every growing-type row, base + cycle
    relation: np.ndarray        # hub x growing-type, base + cycle columns
    truth: np.ndarray           # generator labels of every growing-type row

    def segment(self, position: int):
        """Features and hub edges of the cycle's ``position``-th append."""
        lo = self.sizes[GROWING] + position * self.n_grow
        hi = lo + self.n_grow
        rows, cols = np.nonzero(self.relation[:, lo:hi])
        return (self.features[lo:hi], rows, cols + lo,
                self.relation[rows, cols + lo])


def make_star(seed: int, n_total: int = N_TOTAL) -> StarData:
    """Star schema with all randomness drawn at the cycle's final size."""
    rng = np.random.default_rng(seed)
    sizes = type_sizes(n_total)
    n_grow = max(1, int(round(sizes[GROWING] * GROW_FRACTION)))
    pool = dict(sizes)
    pool[GROWING] += CYCLE * n_grow
    labels = {name: np.arange(count) % N_CLUSTERS
              for name, count in pool.items()}
    features = {}
    relations = {}
    for name, _ in SATELLITES:
        centers = rng.normal(scale=CENTER_SCALE,
                             size=(N_CLUSTERS, N_FEATURES))
        features[name] = (centers[labels[name]]
                          + rng.normal(size=(pool[name], N_FEATURES)))
        co_cluster = labels[HUB][:, None] == labels[name][None, :]
        noise = rng.random((pool[HUB], pool[name])) < 0.02
        relations[name] = np.where(co_cluster, 1.0, np.where(noise, 0.5, 0.0))
    types = [ObjectType(HUB, n_objects=sizes[HUB], n_clusters=N_CLUSTERS)]
    types += [ObjectType(name, n_objects=sizes[name], n_clusters=N_CLUSTERS,
                         features=features[name][:sizes[name]])
              for name, _ in SATELLITES]
    rels = [Relation(HUB, name,
                     sp.csr_matrix(relations[name][:, :sizes[name]]))
            for name, _ in SATELLITES]
    return StarData(base=MultiTypeRelationalData(types, rels), sizes=sizes,
                    n_grow=n_grow, features=features[GROWING],
                    relation=relations[GROWING], truth=labels[GROWING])


class GrowLog:
    """The live artifact + log, restorable to the pristine base."""

    def __init__(self, ctx: Context, star: StarData, config) -> None:
        self.star = star
        self.root = fresh_dir(ctx.workdir, "grow-")
        self.live = self.root / "live"
        self.pristine = self.root / "pristine"
        result = RHCHME(config).fit(star.base)
        model = result.to_model(star.base, config)
        model.save(self.pristine / "model.npz", shards="per-type-mmap")
        stream.ObjectLog.create(self.pristine / "log", star.base)
        self.view = None
        self.restore()

    def restore(self) -> None:
        """Reset artifact and log to the base (untimed between cycles)."""
        self.close()
        shutil.rmtree(self.live, ignore_errors=True)
        shutil.copytree(self.pristine, self.live)
        self.path = self.live / "model.npz"
        self.log = stream.ObjectLog(self.live / "log")
        self.view = stream.open_model_view(self.path)
        self.version = self.log.version

    def op(self, position: int) -> dict:
        """Append segment ``position`` and run the write path."""
        features, rows, cols, values = self.star.segment(position)
        self.log.append_objects(GROWING, features)
        self.log.append_edges(HUB, GROWING, rows, cols, values)
        outcome = stream.refresh_from_log(self.view.model, self.log,
                                          since=self.version)
        info = self.view.cache_info()
        self.path = outcome.model.save(self.path, shards="per-type-mmap")
        previous = self.view
        self.view = stream.open_model_view(self.path)
        self.version = self.log.version
        return {"outcome": outcome, "previous": previous,
                "touched_ratio": (info["resident_bytes"] + info["mapped_bytes"])
                / info["total_bytes"]}

    def close(self) -> None:
        if self.view is not None:
            self.view.close()
            self.view = None


def check_op(checks: Checks, star: StarData, seed: int, step: dict,
             tag: str) -> dict:
    """Output checks of one op; returns its homogeneity signature."""
    outcome = step["outcome"]
    previous = step["previous"]
    try:
        model = outcome.model
        checked_config(model.config, seed)
        objectives = np.asarray(outcome.result.trace.objectives)
        # The delta refresh's first step from its warm start can raise the
        # objective (by up to 7e-4 relative at a centre scale of 6; no rise
        # seen at CENTER_SCALE); every later step must obey Theorem 1.  The
        # first change is kept per op.
        checks(f"{tag}: objective never increases after step 1",
               monotone(objectives[1:]))
        for info in model.types:
            checks(f"{tag}: every {info.name} object labelled",
                   labels_complete(model.labels[info.name], info.n_objects,
                                   info.n_clusters))
        # A frozen block keeps its warm-start value, which is the previous
        # block re-normalised onto the simplex; the solver never moves it.
        clean = [info.name for info in model.types
                 if info.name not in outcome.dirty.types]
        checks(f"{tag}: clean types {clean} stay frozen",
               bool(clean) and all(
                   np.array_equal(model.membership[name], row_normalize_l1(
                       np.asarray(previous.model.membership[name])))
                   for name in clean))
        n_grown = model.type_info(GROWING).n_objects
        truth = star.truth[:n_grown]
        predicted = np.asarray(model.labels[GROWING])
        return {"sizes": {info.name: info.n_objects for info in model.types},
                "iterations": int(outcome.result.n_iterations),
                "dirty": sorted(outcome.dirty.types),
                "first_step_change": float(objectives[1] - objectives[0]),
                "fscore": clustering_fscore(truth, predicted),
                "nmi": normalized_mutual_information(truth, predicted)}
    finally:
        previous.close()


def run(ctx: Context) -> Outcome:
    checks = Checks()
    config = default_config(ctx.seed)

    def build():
        with ctx.span("setup"), ctx.layers():
            star = make_star(ctx.seed)
            grow = GrowLog(ctx, star, config)
            warm = grow.op(0)
        check_op(checks, star, ctx.seed, warm, "warm-up")
        grow.restore()
        return grow

    def dispose(grow):
        grow.close()
        remove_dir(grow.root)

    grow, setup_seconds = repeated_setup(ctx.n_setups, build, dispose)
    signatures: dict[int, dict] = {}

    def pause(index):
        if index and index % CYCLE == 0:
            grow.restore()

    def after(index, step, span):
        signature = check_op(checks, grow.star, ctx.seed, step, f"op {index}")
        signature["touched_ratio"] = step["touched_ratio"]
        signatures[index] = signature
        if span is not None:
            span.attrs["touched_ratio"] = step["touched_ratio"]

    try:
        ops, errors = single_caller(ctx, lambda index: grow.op(index % CYCLE),
                                    after=after, pause=pause,
                                    trace_group=lambda index: index // CYCLE)
    finally:
        dispose(grow)
    for error in errors:
        checks("op raised", False, error)
    for index, entry in signatures.items():
        first = signatures.get(index % CYCLE)
        if index >= CYCLE and first is not None:
            checks(f"op {index}: same sizes and iterations as op "
                   f"{index % CYCLE}",
                   (entry["sizes"], entry["iterations"])
                   == (first["sizes"], first["iterations"]),
                   f"{entry['sizes']}/{entry['iterations']} vs "
                   f"{first['sizes']}/{first['iterations']}")

    fscore = float(np.median([entry["fscore"] for entry in signatures.values()]))
    nmi = float(np.median([entry["nmi"] for entry in signatures.values()]))
    checks(f"fscore >= {FSCORE_FLOOR}", fscore >= FSCORE_FLOOR, f"{fscore}")
    checks(f"nmi >= {NMI_FLOOR}", nmi >= NMI_FLOOR, f"{nmi}")
    return Outcome(
        setup_seconds=setup_seconds, ops=ops, fscore=fscore, nmi=nmi,
        peak_rss_mb=peak_rss_mb(), checks=checks,
        details={"sizes": grow.star.sizes, "n_grow": grow.star.n_grow,
                 "cycle": CYCLE, "ops": signatures})
