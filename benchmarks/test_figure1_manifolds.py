"""Figure 1 — intersecting manifolds: pNN graphs vs subspace learning.

Figure 1 of the paper illustrates why p-NN graphs learn incomplete
intra-type relationships on a union of manifolds: a small p misses distant
within-manifold neighbours, and points near the intersection of two circles
share the same Euclidean neighbours even though they lie on different
manifolds.  This benchmark quantifies that argument on two intersecting
circles: it measures, for the p-NN affinity and for the subspace affinity,
(a) the fraction of affinity mass that respects the manifolds and (b) the
average within-manifold neighbour coverage, and it times both constructions.
"""

from __future__ import annotations

from repro.data.manifolds import sample_intersecting_circles
from repro.experiments.figures import figure1_neighbour_completeness
from repro.graph.pnn import pnn_affinity
from repro.subspace.representation import learn_subspace_affinity


class TestFigure1:
    def test_neighbour_completeness_analysis(self, capsys):
        metrics = figure1_neighbour_completeness(n_per_circle=60, p=5,
                                                 gamma=25.0, random_state=0)
        with capsys.disabled():
            print("\n\nFigure 1 — neighbour analysis on two intersecting circles")
            print(f"  pNN graph       : within-manifold mass = "
                  f"{metrics['pnn_within_manifold_mass']:.3f}, "
                  f"coverage = {metrics['pnn_neighbour_coverage']:.3f}")
            print(f"  subspace (Alg.1): within-manifold mass = "
                  f"{metrics['subspace_within_manifold_mass']:.3f}, "
                  f"coverage = {metrics['subspace_neighbour_coverage']:.3f}")
            print(f"  subspace (exact): within-manifold mass = "
                  f"{metrics['exact_within_manifold_mass']:.3f}, "
                  f"coverage = {metrics['exact_neighbour_coverage']:.3f}")

        # The paper's argument: the subspace affinity connects clearly more
        # within-manifold pairs than a small-p Euclidean graph can (the graph
        # is capped at roughly p/n coverage by construction).
        assert (metrics["subspace_neighbour_coverage"]
                > 1.3 * metrics["pnn_neighbour_coverage"])
        # Both affinities keep a meaningful share of their mass within
        # manifolds (the subspace one is not random).
        assert metrics["subspace_within_manifold_mass"] > 0.4
        assert metrics["pnn_within_manifold_mass"] > 0.4

    def test_benchmark_pnn_affinity(self, benchmark):
        points, _ = sample_intersecting_circles(60, random_state=0)
        affinity = benchmark(pnn_affinity, points, 5, "cosine")
        assert affinity.shape == (120, 120)

    def test_benchmark_subspace_affinity(self, benchmark):
        points, _ = sample_intersecting_circles(60, random_state=0)
        def learn():
            return learn_subspace_affinity(points, gamma=25.0)
        affinity = benchmark.pedantic(learn, rounds=1, iterations=1)
        assert affinity.shape == (120, 120)
