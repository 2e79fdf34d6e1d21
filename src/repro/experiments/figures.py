"""Reproduction of the paper's figures.

* Figure 1 — why p-NN graphs miss within-manifold neighbours on intersecting
  manifolds while subspace learning finds them (a quantitative analysis of
  the illustration: neighbour completeness and intersection confusion).
* Figure 2 — FScore/NMI sensitivity curves over λ, γ, α and β on the
  R-Min20Max200 analogue.
* Figure 3 — FScore/NMI versus iteration count on every dataset.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core.config import RHCHMEConfig
from ..core.rhchme import RHCHME
from ..data.datasets import make_dataset
from ..data.manifolds import sample_intersecting_circles
from ..graph.pnn import pnn_affinity
from ..linalg.projections import project_nonnegative_zero_diagonal
from ..metrics.fscore import clustering_fscore
from ..metrics.nmi import normalized_mutual_information
from ..relational.dataset import MultiTypeRelationalData
from ..subspace.representation import (
    learn_subspace_affinity,
    subspace_objective,
    subspace_objective_gradient,
)

__all__ = [
    "SensitivityCurve",
    "figure1_neighbour_completeness",
    "figure2_parameter_sensitivity",
    "figure3_convergence_curves",
    "PAPER_PARAMETER_GRIDS",
]

#: The parameter grids swept in Figure 2 of the paper.
PAPER_PARAMETER_GRIDS: dict[str, tuple[float, ...]] = {
    "lam": (0.001, 0.01, 0.1, 1.0, 250.0, 500.0, 750.0, 1000.0),
    "gamma": (0.01, 0.1, 1.0, 10.0, 25.0, 50.0, 75.0, 100.0),
    "alpha": (1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0, 2.0, 4.0, 8.0, 16.0),
    "beta": (1.0, 10.0, 20.0, 30.0, 40.0, 50.0, 80.0, 100.0, 1000.0),
}


@dataclass
class SensitivityCurve:
    """FScore/NMI of RHCHME as one hyper-parameter sweeps its grid.

    Attributes
    ----------
    parameter:
        Name of the swept hyper-parameter (``lam`` / ``gamma`` / ``alpha`` /
        ``beta``).
    values:
        Grid values in sweep order.
    fscore, nmi:
        Document-clustering metrics at each grid value.
    """

    parameter: str
    values: list[float] = field(default_factory=list)
    fscore: list[float] = field(default_factory=list)
    nmi: list[float] = field(default_factory=list)

    def best_value(self, metric: str = "fscore") -> float:
        """Grid value with the best score for the chosen metric."""
        scores = getattr(self, metric)
        return self.values[int(np.argmax(scores))]


# --------------------------------------------------------------------- fig 1
def _algorithm1_affinity(points: np.ndarray, gamma: float,
                         max_iter: int) -> np.ndarray:
    """Eq. 9 by the paper's Algorithm 1 for ``max_iter`` steps from ``W = 0``.

    Algorithm 1 is the non-monotone spectral projected gradient of Birgin,
    Martínez & Raydan (memory 10, Armijo constant 1e-4, step halving): each
    step moves along ``Π(W − σ∇J2) − W`` with the Barzilai–Borwein ``σ``.
    Its iterate after a fixed budget is dense; Eq. 9's optimum is sparse.
    """
    gram = points @ points.T
    gram /= np.trace(gram) / len(points)
    W = np.zeros_like(gram)
    grad = subspace_objective_gradient(W, gram, gamma)
    recent = deque([subspace_objective(W, gram, gamma)], maxlen=10)
    sigma = 1.0
    for _ in range(max_iter):
        direction = project_nonnegative_zero_diagonal(W - sigma * grad) - W
        slope = float(np.vdot(grad, direction))
        if slope >= 0.0:
            break
        step = 1.0
        for _ in range(30):
            candidate = W + step * direction
            value = subspace_objective(candidate, gram, gamma)
            if value <= max(recent) + 1e-4 * step * slope:
                break
            step /= 2.0
        new_grad = subspace_objective_gradient(candidate, gram, gamma)
        s, y = candidate - W, new_grad - grad
        sy = float(np.vdot(s, y))
        sigma = float(np.clip(np.vdot(s, s) / sy, 1e-10, 1e10)) if sy > 0 else 1e10
        W, grad = candidate, new_grad
        recent.append(value)
    return (W + W.T) / 2.0


def figure1_neighbour_completeness(n_per_circle: int = 60, *, p: int = 5,
                                   gamma: float = 25.0, separation: float = 1.0,
                                   noise: float = 0.03,
                                   random_state: int = 0) -> dict[str, float]:
    """Quantify the Figure 1 argument on two intersecting circles.

    For each affinity we measure

    * ``within_manifold_mass`` — the fraction of total affinity mass that
      connects points of the same circle (higher = the affinity respects the
      manifolds better);
    * ``neighbour_coverage`` — the average fraction of same-manifold points a
      point is connected to (p-NN is bounded by p/n; subspace learning can
      reach distant within-manifold points).

    The affinities, each under its key prefix, are

    * ``pnn`` — the binary p-NN graph;
    * ``subspace`` — Eq. 9 as the paper computes it, 150 steps of
      Algorithm 1 (SPG), the affinity the paper's Figure 1 argument is about;
    * ``exact`` — Eq. 9's optimum, the library's active-set solve.

    The paper expects the subspace affinity to cover more within-manifold
    neighbours than the small-p graph, and Algorithm 1's iterate does.  The
    optimum covers fewer: on 2-D points an optimal column has at most three
    non-zeros, because circles are not the linear subspaces Eq. 9 models.
    """
    points, labels = sample_intersecting_circles(
        n_per_circle, separation=separation, noise=noise,
        random_state=random_state)
    keep = labels >= 0
    points, labels = points[keep], labels[keep]

    same_manifold = labels[:, None] == labels[None, :]
    np.fill_diagonal(same_manifold, False)

    def analyse(affinity: np.ndarray) -> tuple[float, float]:
        affinity = np.asarray(affinity, dtype=np.float64).copy()
        np.fill_diagonal(affinity, 0.0)
        total_mass = float(affinity.sum())
        within_mass = float(affinity[same_manifold].sum())
        mass_ratio = within_mass / total_mass if total_mass > 0 else 0.0
        connected = affinity > 1e-8
        coverage = float(np.mean(
            np.sum(connected & same_manifold, axis=1)
            / np.maximum(np.sum(same_manifold, axis=1), 1)))
        return mass_ratio, coverage

    affinities = {
        "pnn": pnn_affinity(points, p=p, scheme="binary"),
        "subspace": _algorithm1_affinity(points, gamma, max_iter=150),
        "exact": learn_subspace_affinity(points, gamma=gamma),
    }
    metrics: dict[str, float] = {}
    for name, affinity in affinities.items():
        mass, coverage = analyse(affinity)
        metrics[f"{name}_within_manifold_mass"] = mass
        metrics[f"{name}_neighbour_coverage"] = coverage
    return metrics


# --------------------------------------------------------------------- fig 2
def figure2_parameter_sensitivity(parameter: str,
                                  values: Sequence[float] | None = None, *,
                                  dataset: str = "r-min20max200-small",
                                  data: MultiTypeRelationalData | None = None,
                                  base_config: RHCHMEConfig | None = None,
                                  max_iter: int = 30,
                                  random_state: int = 0) -> SensitivityCurve:
    """Sweep one RHCHME hyper-parameter and record FScore/NMI (Figure 2).

    The paper demonstrates the sweep on R-Min20Max200; the default here is
    the scaled synthetic analogue.  All other parameters stay at the paper's
    defaults, matching the experimental protocol of Section IV.E.
    """
    if parameter not in PAPER_PARAMETER_GRIDS:
        raise ValueError(
            f"unknown parameter {parameter!r}; expected one of "
            f"{sorted(PAPER_PARAMETER_GRIDS)}")
    if values is None:
        values = PAPER_PARAMETER_GRIDS[parameter]
    if data is None:
        data = make_dataset(dataset, random_state=random_state)
    if base_config is None:
        base_config = RHCHMEConfig(max_iter=max_iter, random_state=random_state,
                                   track_metrics_every=0)
    documents = data.get_type("documents")
    curve = SensitivityCurve(parameter=parameter)
    for value in values:
        config = base_config.with_overrides(**{parameter: float(value)},
                                            max_iter=max_iter,
                                            random_state=random_state)
        result = RHCHME(config).fit(data)
        predicted = result.labels["documents"]
        curve.values.append(float(value))
        curve.fscore.append(clustering_fscore(documents.labels, predicted))
        curve.nmi.append(normalized_mutual_information(documents.labels, predicted))
    return curve


# --------------------------------------------------------------------- fig 3
def figure3_convergence_curves(datasets: Sequence[str] = (
        "multi5-small", "multi10-small", "r-min20max200-small", "r-top10-small"), *,
        max_iter: int = 40, random_state: int = 0,
        config: RHCHMEConfig | None = None
        ) -> dict[str, dict[str, list[float]]]:
    """FScore/NMI of RHCHME per iteration on each dataset (Figure 3).

    Returns ``{dataset: {"fscore": [...], "nmi": [...], "objective": [...]}}``
    where index i is the value after iteration i (index 0 is the k-means
    initialisation).
    """
    curves: dict[str, dict[str, list[float]]] = {}
    for dataset_name in datasets:
        data = make_dataset(dataset_name, random_state=random_state)
        base = config or RHCHMEConfig()
        run_config = base.with_overrides(max_iter=max_iter,
                                         random_state=random_state,
                                         track_metrics_every=1)
        result = RHCHME(run_config).fit(data)
        fscore_series = result.trace.metric_series("fscore/documents")
        nmi_series = result.trace.metric_series("nmi/documents")
        curves[dataset_name] = {
            "fscore": [float(v) for v in fscore_series],
            "nmi": [float(v) for v in nmi_series],
            "objective": [float(v) for v in result.trace.objectives],
        }
    return curves
