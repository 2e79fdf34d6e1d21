"""Under Eq. 22 the objective (Eq. 15) has a direction that only lowers it.

Take a fitted state and, per type t with c_t clusters and 0 < ε ≤ 1, a
map A_t = εI + (1 − ε)·1vᵀ with v on the simplex.  Map G_t → G_t·A_t and
S_tu → A_t⁻¹·S_tu·A_u⁻ᵀ:

* each new row of G_t is ε·g + (1 − ε)·v, so it stays on the simplex;
* A_t is invertible, so every G_t S_tu G_uᵀ is unchanged, and so are the
  reconstruction term and E_R;
* the premise: the Laplacian is unnormalised, so L_t·1 = 0, and
  with G_t·1 = 1 the smoothness tr(G_tᵀ L_t G_t) falls by exactly ε².

So from any iterate the smoothness term can be driven towards zero at no
cost to the rest of the objective: for λ > 0 Eq. 15 has no minimiser
under Eq. 22, which is why default fits stop at the iteration cap.  With
v uniform (A_t = εI + (1 − ε)/c_t · 11ᵀ) every row keeps its argmax, so
the labels do not change.  With v = e_k and ε < ½ every row's argmax
becomes k: the infimum is one cluster per type.  Below ε = 0.1 the mapped
S grows like 1/ε² and the reconstruction moves by round-off alone (2e-9
relative at ε = 0.01), so the tests stay at ε ≥ 0.1.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import block_diag

from repro.core import RHCHME, RHCHMEConfig, evaluate_objective_blocks
from repro.data import make_dataset
from repro.manifold import HeterogeneousManifoldEnsemble


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


@pytest.fixture(scope="module")
def fitted():
    """A default multi5-small fit with its Laplacian and relation blocks."""
    config = RHCHMEConfig(random_state=0, max_iter=30)
    assert config.lam > 0
    data = make_dataset("multi5-small", random_state=0)
    result = RHCHME(config).fit(data)
    ensemble = HeterogeneousManifoldEnsemble(
        alpha=config.alpha, gamma=config.gamma, p=config.p,
        weighting=config.weighting,
        use_subspace=config.use_subspace_member and config.alpha > 0,
        use_pnn=config.use_pnn_member, backend=config.backend)
    L_blocks = ensemble.build_blocks(data)
    R_pairs = data.relation_blocks(normalize=True,
                                   backend=ensemble.resolved_backend_)
    # The rebuilt blocks are the fit's own: they reproduce its last record.
    final = _objective(config, result.state, L_blocks, R_pairs).total
    assert _rel(final, result.trace.objectives[-1]) <= 1e-12
    return config, result.state, L_blocks, R_pairs


def _objective(config, state, L_blocks, R_pairs):
    return evaluate_objective_blocks(R_pairs, state, L_blocks,
                                     lam=config.lam, beta=config.beta)


def _mapped(state, A):
    """The state under the gauge map of the per-type matrices ``A``."""
    A_inv = block_diag(*[np.linalg.inv(block) for block in A])
    mapped = state.copy()
    mapped.G_blocks = [G @ block for G, block in zip(state.G_blocks, A)]
    mapped.S = A_inv @ state.S @ A_inv.T
    return mapped


def _uniform_map(state, eps):
    return [eps * np.eye(c) + (1.0 - eps) / c * np.ones((c, c))
            for c in state.cluster_spec.sizes]


@pytest.mark.parametrize("eps", [0.5, 0.1])
def test_gauge_map_scales_only_the_smoothness(fitted, eps):
    config, state, L_blocks, R_pairs = fitted
    mapped = _mapped(state, _uniform_map(state, eps))

    before = _objective(config, state, L_blocks, R_pairs)
    after = _objective(config, mapped, L_blocks, R_pairs)
    assert _rel(after.reconstruction, before.reconstruction) <= 1e-10
    assert after.error_sparsity == before.error_sparsity
    assert before.graph_smoothness > 0
    assert _rel(after.graph_smoothness,
                eps ** 2 * before.graph_smoothness) <= 1e-10

    for t, G in enumerate(mapped.G_blocks):
        np.testing.assert_array_equal(mapped.labels_for_type(t),
                                      state.labels_for_type(t))
        assert np.all(G >= 0)
        np.testing.assert_allclose(G.sum(axis=1), 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("k", [0, 2])
def test_collapsing_map_puts_every_type_in_one_cluster(fitted, k):
    # v = e_k at ε = 0.45.  Measured: the reconstruction moves by at most
    # 2.4e-12 (relative), the smoothness scales by ε² to within 5.6e-14,
    # row sums stay within 4.4e-16 of 1, and the objective falls from
    # 3.794 to 2.260.
    eps = 0.45
    config, state, L_blocks, R_pairs = fitted
    mapped = _mapped(state, [
        eps * np.eye(c) + (1.0 - eps) * np.outer(np.ones(c), np.eye(c)[k])
        for c in state.cluster_spec.sizes])

    before = _objective(config, state, L_blocks, R_pairs)
    after = _objective(config, mapped, L_blocks, R_pairs)
    assert _rel(after.reconstruction, before.reconstruction) <= 1e-10
    assert after.error_sparsity == before.error_sparsity
    assert _rel(after.graph_smoothness,
                eps ** 2 * before.graph_smoothness) <= 1e-10
    assert before.total == pytest.approx(3.794, abs=5e-4)
    assert after.total == pytest.approx(2.260, abs=5e-4)

    for t, G in enumerate(mapped.G_blocks):
        assert np.all(mapped.labels_for_type(t) == k)
        assert np.all(G >= 0)
        np.testing.assert_allclose(G.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_cluster_space_reconstruction_on_a_mapped_state(fitted):
    # The gauge-mapped S at ε = 0.1 is about 100× the fitted one; the
    # reconstruction's cluster-space expansion still meets the dense
    # stacked formula (measured: 2.0e-11 relative).
    config, state, L_blocks, R_pairs = fitted
    mapped = _mapped(state, _uniform_map(state, 0.1))
    spec = mapped.object_spec
    R = np.zeros((spec.total, spec.total))
    for (t, u), block in R_pairs.items():
        R[spec.slice(t), spec.slice(u)] = np.asarray(block)
    G = block_diag(*mapped.G_blocks)
    E = 0.0 if mapped.E_R is None else mapped.E_R.to_dense()
    dense = float(np.sum((R - G @ mapped.S @ G.T - E) ** 2))
    value = _objective(config, mapped, L_blocks, R_pairs).reconstruction
    assert _rel(value, dense) <= 1e-10
