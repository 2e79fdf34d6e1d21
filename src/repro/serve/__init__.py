"""Model persistence and out-of-sample batch prediction (the serving layer).

A full ``RHCHME.fit`` labels only the objects it was trained on; this
package turns one fit into a *servable model*:

* :class:`RHCHMEModel` — an immutable fitted-model artifact (config,
  per-type training features, factorisation state, labels, schema stamp)
  with exact ``save``/``load`` round-trips via compressed ``.npz`` + JSON
  sidecar;
* :func:`out_of_sample_predict` / :meth:`RHCHMEModel.predict` — the
  anchor-style out-of-sample extension: a query's p-NN affinities to the
  training objects smooth the fitted membership block onto the query, in
  micro-batches with bounded memory;
* :class:`BatchPredictor` — the thread-safe serving front-end with an LRU
  model cache, per-type input validation and latency/throughput counters;
* per-type **sharded artifacts** — ``save(path, shards="per-type-mmap")``
  writes one raw ``.npy`` per array plus a manifest sidecar;
  :func:`open_model` returns an :class:`RHCHMEModel` for every layout.
  On such an artifact the model's arrays are memory-mapped through a
  :class:`ShardedModelReader` (``model.reader``): S and E_R at open, each
  type's arrays only when that type is queried.  Every other layout
  (monolithic, legacy ``per-type`` npz) is loaded eagerly;
* :func:`holdout_split` — train/query splits of relational datasets for
  evaluating served predictions against full refits;
* ``python -m repro.serve`` — ``fit-save`` / ``predict`` / ``info`` CLI.

The async multi-worker front-end with dynamic micro-batching lives one
layer up, in :mod:`repro.runtime`.
"""

from .artifact import (MMAP_LAYOUT, RHCHMEModel, SCHEMA_VERSION,
                       SHARD_LAYOUTS, TypeInfo, load_model)
from .extension import Prediction, out_of_sample_predict
from .holdout import HoldoutSplit, holdout_split
from .predictor import BatchPredictor, ServingStats
from .shards import ShardedModelReader, open_model

__all__ = [
    "BatchPredictor",
    "HoldoutSplit",
    "MMAP_LAYOUT",
    "Prediction",
    "RHCHMEModel",
    "SCHEMA_VERSION",
    "SHARD_LAYOUTS",
    "ServingStats",
    "ShardedModelReader",
    "TypeInfo",
    "holdout_split",
    "load_model",
    "open_model",
    "out_of_sample_predict",
]
