"""repro — a reproduction of RHCHME (Hou & Nayak, ICDE 2015).

Robust High-order Co-clustering via a Heterogeneous Manifold Ensemble
simultaneously clusters multiple types of inter-related objects (documents,
terms, concepts, …) using:

* the inter-type co-occurrence structure (a symmetric block factorisation
  ``R ≈ G S Gᵀ``),
* complete intra-type relationships learnt by multiple-subspace learning,
* accurate intra-type relationships fused in a heterogeneous manifold
  ensemble (subspace Laplacian + p-NN Laplacian),
* robustness to sample-wise corruption via an L2,1-regularised sparse error
  matrix.

Quickstart
----------
>>> from repro import RHCHME, make_dataset, clustering_fscore
>>> data = make_dataset("multi5-small", random_state=0)
>>> result = RHCHME(max_iter=20, random_state=0).fit(data)
>>> fscore = clustering_fscore(data.get_type("documents").labels,
...                            result.labels["documents"])

Subpackages
-----------
``repro.core``
    The RHCHME estimator, its objective and update rules.
``repro.baselines``
    SRC, SNMTF, RMC and the DRCC two-way co-clustering variants.
``repro.relational``
    The multi-type relational data model (object types, relations, block
    matrices).
``repro.subspace``
    Multiple-subspace representation learning (Eq. 9, solved exactly by
    an active-set NNLS).
``repro.graph`` / ``repro.manifold``
    p-NN graphs, Laplacians and the manifold ensembles.
``repro.cluster`` / ``repro.metrics``
    k-means, spectral clustering, FScore, NMI, purity, ARI.
``repro.data``
    Synthetic multi-type corpora mirroring the paper's datasets, plus
    union-of-manifold toy data.
``repro.experiments``
    The harness that regenerates every table and figure of the paper.
``repro.serve``
    Model persistence (``RHCHMEModel`` artifacts, monolithic or per-type
    sharded) and out-of-sample batch prediction: ``save``/``load``
    round-trips, the anchor-style out-of-sample extension, the
    ``BatchPredictor`` serving front-end and the ``python -m repro.serve``
    CLI.
``repro.runtime``
    The async multi-worker serving runtime: dynamic micro-batching of
    small requests, a thread worker pool (or serial in-line execution)
    with explicit backpressure, and incremental artifact refresh from
    warm starts.
``repro.net``
    The asyncio HTTP front-end over the runtime: versioned wire schema,
    multi-model routing with admission control, drain lifecycle, the
    Prometheus ``/v1/metrics`` exposition, a keep-alive client and a
    closed-loop load generator.
``repro.diagnostics``
    Model health monitoring: fit-time spectral metrics of the ensemble
    Laplacian blocks and serving-time covariate-drift detection against
    training fingerprints.
"""

from .core.config import RHCHMEConfig
from .core.rhchme import RHCHME, RHCHMEResult
from .baselines import DRCC, RMC, SNMTF, SRC
from .data.datasets import list_datasets, make_dataset
from .metrics import (
    adjusted_rand_index,
    clustering_fscore,
    normalized_mutual_information,
    purity_score,
)
from .relational import MultiTypeRelationalData, ObjectType, Relation

__version__ = "1.0.0"

__all__ = [
    "DRCC",
    "MultiTypeRelationalData",
    "ObjectType",
    "RHCHME",
    "RHCHMEConfig",
    "RHCHMEResult",
    "RMC",
    "Relation",
    "SNMTF",
    "SRC",
    "adjusted_rand_index",
    "clustering_fscore",
    "list_datasets",
    "make_dataset",
    "normalized_mutual_information",
    "purity_score",
    "__version__",
]
