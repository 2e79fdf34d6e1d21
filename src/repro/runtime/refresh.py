"""Incremental artifact refresh: warm-start refits for grown datasets.

A deployed model goes stale as new training objects arrive.  A cold refit
from k-means forgets everything the previous fit learned and pays the full
iteration budget again; :func:`refresh_model` instead *warm-starts* the
refit from the fitted artifact's own factorisation state:

* old objects keep their fitted membership rows (the previous ``G_k``);
* new objects of feature-carrying types are seeded with their out-of-sample
  smoothed membership (the same anchor-style extension serving uses), so
  they start from an informed estimate rather than noise;
* new objects of featureless types start from the type's mean membership;
* the association matrix ``S`` is carried over, and the old error matrix
  ``E_R`` is embedded at the old objects' positions in the grown block
  layout.

The per-type blocks built here are adopted by the blocked solver state
as-is (``FactorizationState`` stores G per type) — the refresh never
stacks a global membership matrix, so a warm start costs the grown blocks
and nothing more.

The refit then runs Algorithm 2 as usual (see
``RHCHME.fit(data, warm_start=...)``), typically converging in a fraction
of the cold iteration count while agreeing with a cold refit on the vast
majority of objects (test-enforced at ≥ 90%, the same bar the serving
extension meets).

On top of the warm start, ``refresh_model(..., dirty=...)`` adds *delta
scheduling* (see :mod:`repro.core.schedule`): only the types whose data
actually changed — and their neighbourhood of pairs — recompute, so a
refresh touching 1 of T types costs a fraction of even the warm-start
refit.  ``dirty="auto"`` derives the dirty set from the growth delta
itself; ``dirty=None`` keeps the full warm-start refit.  The export
computes no drift fingerprint, whatever the schedule: a drift-scoring
server builds a type's fingerprint from the refreshed features the first
time it scores that type (see :mod:`repro.diagnostics.drift`).

``refresh_model`` requires the grown dataset to *extend* the fitted one:
same types in the same order, same cluster counts, old objects forming a
prefix of each type (new objects append).  That is exactly the shape of a
streaming ingest; reshuffled or shrunk datasets need a cold fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import time

import numpy as np

from ..core.config import RHCHMEConfig
from ..core.rhchme import RHCHME, RHCHMEResult
from ..core.schedule import DirtySet
from ..core.state import warm_start_state
from ..exceptions import ValidationError
from ..linalg.rowsparse import RowSparseMatrix
from ..relational.dataset import MultiTypeRelationalData
from ..serve.artifact import RHCHMEModel

__all__ = ["RefreshOutcome", "refresh_model", "warm_start_blocks"]

#: Accepted values of the ``validate`` knob.
_VALIDATE_MODES = ("full", "shapes")


@dataclass(frozen=True)
class RefreshOutcome:
    """Result of one incremental refresh.

    Attributes
    ----------
    model:
        The refreshed, servable artifact (fitted on the grown dataset).
    result:
        The underlying fit result (trace, convergence, timings).
    grown:
        Mapping from type name to how many new objects it gained.
    dirty:
        The :class:`~repro.core.schedule.DirtySet` the refit was scheduled
        with, or ``None`` for a full warm-start refit.
    seconds:
        Wall-clock time of the refresh (warm start + refit + export).
    agreement_proxy:
        Fraction of objects whose final hard label matches their
        warm-start seed — a cheap online stand-in for cold-refit
        agreement (``None`` when the dataset carries no objects).
    """

    model: RHCHMEModel
    result: RHCHMEResult
    grown: dict[str, int]
    dirty: DirtySet | None = None
    seconds: float = 0.0
    agreement_proxy: float | None = field(default=None)

    @property
    def n_new_objects(self) -> int:
        """Total number of newly added objects across all types."""
        return int(sum(self.grown.values()))

    @property
    def delta_scheduled(self) -> bool:
        """Whether the refit ran under a delta schedule."""
        return self.dirty is not None

    @property
    def types_touched(self) -> list[str]:
        """Names of the types the refit re-optimised (all when full)."""
        if self.dirty is None:
            return [info.name for info in self.model.types]
        return sorted(self.dirty.types)

    def telemetry(self) -> dict:
        """JSON-safe refresh summary (served on ``/v1/stats`` and metrics)."""
        return {
            "delta": self.delta_scheduled,
            "types_touched": self.types_touched,
            "n_types_touched": len(self.types_touched),
            "iterations": int(self.result.n_iterations),
            "converged": bool(self.result.converged),
            "seconds": float(self.seconds),
            "agreement_proxy": (None if self.agreement_proxy is None
                                else float(self.agreement_proxy)),
            "n_new_objects": self.n_new_objects,
            "grown": {name: int(count) for name, count in self.grown.items()},
        }


def _check_extends(model: RHCHMEModel, data: MultiTypeRelationalData, *,
                   validate: str = "full") -> dict[str, int]:
    """Validate that ``data`` extends the model's training set; return growth.

    ``validate="shapes"`` skips the element-wise feature-prefix comparison
    (sizes and widths are still checked) — the append-only object log
    guarantees the prefix property by construction, and the comparison
    would page every clean type's features into RAM on an mmap-opened
    artifact, defeating the point of the mapped layout.
    """
    if validate not in _VALIDATE_MODES:
        raise ValidationError(
            f"validate must be one of {_VALIDATE_MODES}, got {validate!r}")
    if data.type_names != model.type_names:
        if sorted(data.type_names) == sorted(model.type_names):
            raise ValidationError(
                f"refresh dataset reordered the fitted types: got "
                f"{data.type_names}, the model was fitted on "
                f"{model.type_names} — an incremental refresh needs the "
                "same types in the same order")
        missing = [name for name in model.type_names
                   if name not in data.type_names]
        unexpected = [name for name in data.type_names
                      if name not in model.type_names]
        raise ValidationError(
            f"refresh dataset types do not match the fitted model's: "
            f"missing {missing or 'none'}, unexpected {unexpected or 'none'} "
            f"(the model was fitted on {model.type_names})")
    grown: dict[str, int] = {}
    for info in model.types:
        object_type = data.get_type(info.name)
        if object_type.n_clusters != info.n_clusters:
            raise ValidationError(
                f"type {info.name!r} changed cluster count "
                f"({info.n_clusters} -> {object_type.n_clusters}); an "
                "incremental refresh cannot change the factorisation shape")
        if object_type.n_objects < info.n_objects:
            raise ValidationError(
                f"type {info.name!r} shrank ({info.n_objects} -> "
                f"{object_type.n_objects} objects); refresh only supports "
                "appended objects — run a cold fit instead")
        if info.n_features is not None:
            if object_type.features is None:
                raise ValidationError(
                    f"type {info.name!r} lost its feature matrix (fitted "
                    f"with {info.n_objects} feature rows); the grown "
                    "dataset must extend the fitted one")
            new = object_type.features
            # width from TypeInfo metadata, not the stored array: on a lazy
            # mmap-opened artifact this check must not touch feature files
            if new.shape[1] != info.n_features:
                raise ValidationError(
                    f"features of type {info.name!r} changed width "
                    f"({info.n_features} -> {new.shape[1]} columns); the "
                    "grown dataset must extend the fitted training features")
            if validate == "full" and not np.allclose(
                    new[: info.n_objects], model.features[info.name]):
                raise ValidationError(
                    f"features of type {info.name!r} do not extend the "
                    f"fitted training features (the first {info.n_objects} "
                    f"of {object_type.n_objects} rows must form an "
                    "unchanged prefix); refresh assumes appended objects")
        grown[info.name] = object_type.n_objects - info.n_objects
    return grown


def warm_start_blocks(model: RHCHMEModel, data: MultiTypeRelationalData, *,
                      batch_size: int = 256,
                      validate: str = "full") -> dict[str, np.ndarray]:
    """Per-type warm-start membership blocks for a grown dataset.

    Old rows are the model's fitted blocks; appended rows are seeded with
    the out-of-sample smoothed membership when the type has features, else
    with the type's mean membership row.  Only the appended rows' features
    are ever read, so an mmap-opened artifact seeds growth without paging
    clean types in (pass ``validate="shapes"`` to also skip the
    feature-prefix content check — see :func:`_check_extends`).
    """
    grown = _check_extends(model, data, validate=validate)
    blocks: dict[str, np.ndarray] = {}
    for info in model.types:
        old_block = model.membership[info.name]
        n_new = grown[info.name]
        if n_new == 0:
            blocks[info.name] = np.array(old_block, copy=True)
            continue
        if info.n_features is not None:
            new_features = data.get_type(info.name).features[info.n_objects:]
            seeded = model.predict(info.name, new_features,
                                   batch_size=batch_size).membership
        else:
            seeded = np.repeat(old_block.mean(axis=0, keepdims=True),
                               n_new, axis=0)
        blocks[info.name] = np.vstack([old_block, seeded])
    return blocks


def _embed_error_matrix(model: RHCHMEModel, data: MultiTypeRelationalData
                        ) -> RowSparseMatrix | None:
    """Scatter the old E_R into the grown block layout (zeros for new rows).

    The stored row indices are remapped into the grown layout and the
    value block gains zero columns at the new objects' positions.
    """
    if model.error_matrix is None:
        return None
    old_sizes = [info.n_objects for info in model.types]
    new_sizes = [data.get_type(info.name).n_objects for info in model.types]
    old_positions = []
    offset = 0
    for n_old, n_new in zip(old_sizes, new_sizes):
        old_positions.append(offset + np.arange(n_old))
        offset += n_new
    index = np.concatenate(old_positions)
    n_total = sum(new_sizes)
    old = model.error_matrix
    values = np.zeros((old.n_stored_rows, n_total))
    values[:, index] = old.values
    # ``index`` is strictly increasing, so the remapped rows stay sorted.
    return RowSparseMatrix(index[old.rows], values, (n_total, n_total))


def _seed_agreement(blocks: dict[str, np.ndarray],
                    result: RHCHMEResult) -> float | None:
    """Fraction of objects keeping their warm-start hard label."""
    agree = 0
    total = 0
    for name, block in blocks.items():
        seeds = np.argmax(np.asarray(block), axis=1)
        final = result.labels[name]
        agree += int(np.sum(seeds == final))
        total += int(seeds.size)
    return agree / total if total else None


def refresh_model(model: RHCHMEModel | str, data: MultiTypeRelationalData, *,
                  dirty: DirtySet | str | None = None,
                  validate: str = "full",
                  **overrides) -> RefreshOutcome:
    """Warm-start refit ``model`` on the grown dataset ``data``.

    Parameters
    ----------
    model:
        A fitted :class:`~repro.serve.RHCHMEModel`, or a path to load one
        from.
    data:
        The grown dataset: the model's training objects plus newly appended
        objects (validated — see module docstring).
    dirty:
        Delta schedule for the refit.  ``None`` (default) is the full
        warm-start refit — unchanged behaviour.  A
        :class:`~repro.core.schedule.DirtySet` restricts the refit to the
        named types' neighbourhood, and ``"auto"`` builds that set from
        the growth delta (types that gained objects).  Warm-start
        smoothing is then applied only to the dirty types, so frozen
        blocks keep their fitted values exactly.
    validate:
        ``"full"`` (default) checks the feature prefix element-wise;
        ``"shapes"`` trusts the append-only contract and checks only
        sizes/widths — required to keep an mmap-opened artifact's clean
        types unpaged.
    overrides:
        Config overrides for the refit, validated through
        :meth:`RHCHMEConfig.with_overrides` (e.g. ``max_iter=10`` to cap
        the refresh budget below the cold-fit budget).

    Returns
    -------
    RefreshOutcome
        The refreshed artifact plus the underlying fit result, growth
        accounting and refresh telemetry.
    """
    start = time.perf_counter()
    if not isinstance(model, RHCHMEModel):
        model = RHCHMEModel.load(model)
    config: RHCHMEConfig = model.config
    if overrides:
        config = config.with_overrides(**overrides)
    blocks = warm_start_blocks(model, data, validate=validate)
    grown = {info.name: data.get_type(info.name).n_objects - info.n_objects
             for info in model.types}
    if isinstance(dirty, str):
        if dirty != "auto":
            raise ValidationError(
                f'dirty must be a DirtySet, "auto" or None, got {dirty!r}')
        dirty = DirtySet.from_growth(grown)
    elif dirty is not None and not isinstance(dirty, DirtySet):
        raise ValidationError(
            f'dirty must be a DirtySet, "auto" or None, got '
            f"{type(dirty).__name__}")
    smooth_types = None if dirty is None else sorted(dirty.types)
    state = warm_start_state(data, blocks, association=model.association,
                             error_matrix=_embed_error_matrix(model, data),
                             smooth_types=smooth_types)
    estimator = RHCHME(config)
    result = estimator.fit(data, warm_start=state, dirty=dirty)
    refreshed = result.to_model(data, config)
    return RefreshOutcome(model=refreshed, result=result, grown=grown,
                          dirty=dirty, seconds=time.perf_counter() - start,
                          agreement_proxy=_seed_agreement(blocks, result))
