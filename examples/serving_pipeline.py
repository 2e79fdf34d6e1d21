"""Serving pipeline: fit → save → reload in a fresh process → batch-predict.

This example walks the full lifecycle the ``repro.serve`` subsystem adds on
top of the one-shot reproduction:

1. generate a synthetic multi-type corpus and hold out 20% of the documents;
2. fit RHCHME on the training split and export an :class:`RHCHMEModel`
   artifact (compressed ``.npz`` + JSON sidecar);
3. reload the artifact **in a fresh Python process** and batch-predict the
   held-out documents there, proving the save→load→predict path is
   self-contained and deterministic;
4. serve the same queries in-process through a :class:`BatchPredictor` and
   print its throughput counters;
5. serve them once more with drift scoring on and print the documents'
   drift score against their training distribution;
6. compare the out-of-sample predictions against a full refit on the entire
   corpus (training + held-out documents) — the agreement is what makes the
   extension a faithful stand-in for refitting.

Run with::

    PYTHONPATH=src python examples/serving_pipeline.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro import RHCHME, make_dataset
from repro.metrics import cluster_alignment
from repro.serve import BatchPredictor, holdout_split

FRESH_PROCESS_SNIPPET = """\
import sys
import numpy as np
from repro.serve import RHCHMEModel

model_path, queries_path, out_path = sys.argv[1:4]
model = RHCHMEModel.load(model_path)
prediction = model.predict("documents", np.load(queries_path), batch_size=16)
np.savez(out_path, labels=prediction.labels, membership=prediction.membership)
print(f"    (fresh process: predicted {prediction.n_queries} queries "
      f"in {prediction.n_batches} batches)")
"""


def drift_score(model_path, queries) -> dict:
    """Drift of ``queries`` as one fresh drift-scoring predictor sees them.

    The detector builds the documents' training fingerprint from the saved
    features on the first scored batch.  Twelve held-out documents are
    fewer than its default 64-row window, hence the smaller ``min_rows``.
    """
    predictor = BatchPredictor(diagnostics={"min_rows": 8})
    predictor.predict(path=model_path, type_name="documents", X_new=queries)
    (snapshot,) = predictor.drift_snapshot().values()
    return snapshot["documents"]


def main() -> None:
    data = make_dataset("multi5-small", random_state=0)
    split = holdout_split(data, "documents", fraction=0.2, random_state=0)
    print(f"corpus:   {data.describe()}")
    print(f"training: {split.train.describe()}")
    print(f"held out: {split.query_features.shape[0]} documents\n")

    # 1) fit on the training split and export the artifact
    model = RHCHME(max_iter=40, random_state=0)
    result = model.fit(split.train)
    print(f"fit: {result.n_iterations} iterations, converged={result.converged}, "
          f"{result.fit_seconds:.2f}s")
    with tempfile.TemporaryDirectory() as tmp:
        model_path = model.export_model(split.train).save(Path(tmp) / "model.npz")
        sidecar = model_path.with_suffix(".json")
        print(f"saved: {model_path.name} ({model_path.stat().st_size:,} bytes) "
              f"+ {sidecar.name}\n")

        # 2) reload + predict in a fresh process
        queries_path = Path(tmp) / "queries.npy"
        out_path = Path(tmp) / "fresh.npz"
        np.save(queries_path, split.query_features)
        print("reloading the artifact in a fresh process ...")
        completed = subprocess.run(
            [sys.executable, "-c", FRESH_PROCESS_SNIPPET, str(model_path),
             str(queries_path), str(out_path)],
            capture_output=True, text=True, env=os.environ.copy())
        if completed.returncode != 0:
            raise RuntimeError(f"fresh-process predict failed: {completed.stderr}")
        print(completed.stdout, end="")
        with np.load(out_path) as arrays:
            fresh_labels = np.array(arrays["labels"])

        # 3) serve the same queries in-process through the BatchPredictor
        predictor = BatchPredictor()
        served = predictor.predict(path=model_path, type_name="documents",
                                   X_new=split.query_features, batch_size=16)
        stats = predictor.stats
        print(f"in-process serving: {stats.objects} objects in "
              f"{stats.seconds:.4f}s ({stats.objects_per_second:,.0f} objects/s)")
        assert np.array_equal(served.labels, fresh_labels), \
            "fresh-process and in-process predictions must be identical"
        print("fresh-process predictions are identical to in-process ones")

        # 4) serve them once more, scoring drift, and the same documents
        # shifted by half a feature standard deviation for contrast.
        held_out = drift_score(model_path, split.query_features)
        shifted = drift_score(model_path, split.query_features
                              + 0.5 * split.query_features.std(axis=0))
        print(f"drift score of the held-out documents: "
              f"{held_out['score']:.2f} (feature PSI "
              f"{held_out['feature_psi_mean']:.2f}, affinity-mass PSI "
              f"{held_out['mass_psi']:.2f}); shifted: "
              f"{shifted['score']:.2f}")
        print(f"    ({held_out['rows']} rows are a small window: PSI over "
              "so few rows reads high even without drift)\n")

    # 5) agreement with a full refit on the entire corpus
    refit = RHCHME(max_iter=40, random_state=0).fit(data)
    mapping = cluster_alignment(result.labels["documents"],
                                refit.labels["documents"][split.train_indices])
    aligned_refit = mapping[refit.labels["documents"][split.query_indices]]
    agreement = float(np.mean(aligned_refit == served.labels))
    print(f"agreement with a full refit on the held-out documents: "
          f"{agreement:.1%}")
    if split.query_labels is not None:
        truth_map = cluster_alignment(
            result.labels["documents"],
            split.train.get_type("documents").labels)
        truth_agreement = float(np.mean(
            truth_map[split.query_labels] == served.labels))
        print(f"agreement with ground-truth classes:                  "
              f"{truth_agreement:.1%}")


if __name__ == "__main__":
    main()
