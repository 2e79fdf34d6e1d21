"""Figure 1 in code: why p-NN graphs fail on intersecting manifolds.

The paper's Figure 1 shows two intersecting circle-shaped manifolds: points
near the intersection share Euclidean nearest neighbours even though they lie
on different manifolds, and distant within-manifold points never become
neighbours in a small-p graph.  This example

1. quantifies both effects on the intersecting circles (how much affinity
   mass respects the manifolds, and what fraction of within-manifold
   neighbours each affinity reaches);
2. demonstrates the practical consequence on intersecting *linear* manifolds
   (two rays meeting at the origin — the geometry the reconstruction model of
   Eq. 9 is designed for): spectral clustering on the p-NN graph confuses the
   points near the intersection, while the subspace affinity separates the
   manifolds cleanly.

Run with::

    python examples/intersecting_manifolds.py
"""

from __future__ import annotations

from repro.cluster.spectral import spectral_clustering
from repro.data.manifolds import sample_union_of_rays
from repro.experiments.figures import figure1_neighbour_completeness
from repro.graph.pnn import pnn_affinity
from repro.metrics import normalized_mutual_information
from repro.subspace.representation import learn_subspace_affinity


def neighbour_analysis() -> None:
    """Part 1: the Figure 1 statistics on two intersecting circles."""
    print("Part 1 — two intersecting circles (the paper's Figure 1 picture)")
    metrics = figure1_neighbour_completeness(n_per_circle=80, p=5, gamma=25.0,
                                             random_state=0)
    print("  affinity quality (higher is better):")
    print(f"    p-NN graph (p=5):        within-manifold mass = "
          f"{metrics['pnn_within_manifold_mass']:.3f},  "
          f"coverage = {metrics['pnn_neighbour_coverage']:.3f}")
    for name, key in [("subspace, Algorithm 1:", "subspace"),
                      ("subspace, exact optimum:", "exact")]:
        print(f"    {name:25s}within-manifold mass = "
              f"{metrics[f'{key}_within_manifold_mass']:.3f},  "
              f"coverage = {metrics[f'{key}_neighbour_coverage']:.3f}")
    spg, exact = (metrics[f"{key}_neighbour_coverage"]
                  / metrics["pnn_neighbour_coverage"] for key in ("subspace", "exact"))
    print("  A small-p graph can reach at most ~p/n of the within-manifold")
    print(f"  neighbours. Algorithm 1's 150-step iterate reaches {spg:.2f}x as many;")
    print(f"  Eq. 9's optimum reaches {exact:.2f}x as many: an optimal column has")
    print("  at most three non-zeros on 2-D points, because circles are not the")
    print("  linear subspaces Eq. 9 models (Part 2 is).\n")


def clustering_demo() -> None:
    """Part 2: clustering two rays that intersect at the origin."""
    print("Part 2 — two rays intersecting at the origin (linear manifolds)")
    points, labels = sample_union_of_rays(n_per_ray=60, n_rays=2, ambient_dim=3,
                                          noise=0.02,
                                          coefficient_range=(0.05, 2.0),
                                          random_state=0)
    print(f"  {points.shape[0]} points; the rays meet at the origin, so points"
          " near it have nearest neighbours on the wrong manifold")

    pnn = pnn_affinity(points, p=5, scheme="binary")
    subspace = learn_subspace_affinity(points, gamma=25.0)
    combined = subspace + 0.5 * pnn   # a miniature heterogeneous ensemble

    print("  spectral clustering NMI against the true manifolds:")
    for name, affinity in [("p-NN graph", pnn),
                           ("subspace affinity", subspace),
                           ("heterogeneous combination", combined)]:
        predicted = spectral_clustering(affinity + 1e-8, 2, random_state=0)
        nmi = normalized_mutual_information(labels, predicted)
        print(f"    {name:26s}: NMI = {nmi:.3f}")

    print("\nThe combination illustrates Eq. 12 of the paper: the p-NN member")
    print("contributes precise local neighbourhoods, the subspace member adds")
    print("the distant within-manifold relationships a small p cannot reach and")
    print("disambiguates the points near the manifold intersection.")


def main() -> None:
    neighbour_analysis()
    clustering_demo()


if __name__ == "__main__":
    main()
