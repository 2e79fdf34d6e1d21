"""Parity gate for the per-pair pseudo-inverse sandwich of the S update.

``update_association_blocks`` evaluates each pair's sandwich as
``P_t (C_tu P_u)``.  It replaced a shape-batched layout that stacked every
group of same-shape cores into one broadcasted ``np.matmul``; the oracle
below is a verbatim copy of that layout, and the gate holds the blocked S
update bit-identical to it — on a dataset whose six pairs all share one
core shape (the stacked path) and on one whose pairs all differ (the
singleton path), for full and delta-restricted solves alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import rspace
from repro.core.state import initialize_state
from repro.core.updates import (active_relation_pairs,
                                update_association_blocks,
                                update_error_matrix_blocks)
from repro.data import make_dataset
from repro.linalg.safe import gram_pinv
from repro.relational.dataset import MultiTypeRelationalData
from repro.relational.types import ObjectType, Relation


# ------------------------------------------------------------------ oracle
def group_by_shape(keys, shape_of):
    """Group ``keys`` by ``shape_of(key)``, preserving first-seen order."""
    groups: dict[tuple, list] = {}
    for key in keys:
        groups.setdefault(tuple(shape_of(key)), []).append(key)
    return list(groups.items())


def batched_pinv_sandwich(pairs, cores, pinvs) -> dict:
    """``{(t, u): P_t @ C_tu @ P_u}`` with same-shape cores batched."""
    blocks: dict = {}
    for _, group in group_by_shape(pairs, lambda pair: cores[pair].shape):
        if len(group) == 1:
            pair = group[0]
            t, u = pair
            blocks[pair] = np.matmul(pinvs[t], np.matmul(cores[pair], pinvs[u]))
            continue
        core_stack = np.stack([cores[pair] for pair in group])
        left = np.stack([pinvs[pair[0]] for pair in group])
        right = np.stack([pinvs[pair[1]] for pair in group])
        solved = np.matmul(left, np.matmul(core_stack, right))
        for pair, block in zip(group, solved):
            blocks[pair] = block
    return blocks


def oracle_association(R_pairs, state, compute, S_prev=None) -> np.ndarray:
    """The S matrix the batched layout assembled for the ``compute`` pairs."""
    G = state.G_blocks
    object_spec = state.object_spec
    cluster_spec = state.cluster_spec
    pinvs = [gram_pinv(block.T @ block) for block in G]
    cores = {}
    for t, u in compute:
        E_tu = state.E_R.block(object_spec.slice(t), object_spec.slice(u))
        cores[(t, u)] = G[t].T @ rspace.project_relations(
            R_pairs.get((t, u)), E_tu, G[u])
    blocks = batched_pinv_sandwich(compute, cores, pinvs)
    if S_prev is None:
        S = np.zeros((cluster_spec.total, cluster_spec.total))
    else:
        S = np.array(S_prev, dtype=np.float64, copy=True)
        for t in range(cluster_spec.n_types):
            S[cluster_spec.slice(t), cluster_spec.slice(t)] = 0.0
    for t, u in compute:
        S[cluster_spec.slice(t), cluster_spec.slice(u)] = blocks[(t, u)]
    return S


# ---------------------------------------------------------------- datasets
def distinct_shapes_dataset() -> MultiTypeRelationalData:
    """Three types with 2 / 3 / 4 clusters: all six core shapes differ."""
    rng = np.random.default_rng(3)
    sizes = {"a": (18, 2), "b": (15, 3), "c": (12, 4)}
    types = [ObjectType(name, n_objects=n, n_clusters=k,
                        features=rng.random((n, 4)))
             for name, (n, k) in sizes.items()]
    relations = [Relation(row, col, rng.random((sizes[row][0],
                                                sizes[col][0])))
                 for row, col in (("a", "b"), ("a", "c"), ("b", "c"))]
    return MultiTypeRelationalData(types, relations)


DATASETS = {
    "multi5-small": lambda: make_dataset("multi5-small", random_state=0),
    "distinct-shapes": distinct_shapes_dataset,
}


#: A β below twice the largest residual row norms of both datasets' first
#: iterate, so the E step keeps rows and the cores subtract them.
KEEP_BETA = 0.1


@pytest.fixture(scope="module", params=sorted(DATASETS))
def problem(request):
    """Relation blocks and a mid-fit state with stored E_R rows."""
    data = DATASETS[request.param]()
    R_pairs = data.relation_blocks(normalize=True, backend="dense")
    state = initialize_state(data, R_pairs, init="random", random_state=0)
    state.S = update_association_blocks(R_pairs, state)
    state.E_R = update_error_matrix_blocks(R_pairs, state, beta=KEEP_BETA)
    pairs = active_relation_pairs(R_pairs, state.E_R, state.object_spec)
    return request.param, R_pairs, state, pairs


class TestSandwichParity:
    def test_oracle_exercises_the_intended_layout(self, problem):
        name, _, state, pairs = problem
        sizes = state.cluster_spec.sizes
        groups = group_by_shape(pairs, lambda pair: (sizes[pair[0]],
                                                     sizes[pair[1]]))
        assert len(pairs) == 6
        if name == "multi5-small":
            assert [len(members) for _, members in groups] == [6]
        else:
            assert all(len(members) == 1 for _, members in groups)
        assert state.E_R.n_stored_rows > 0

    def test_full_solve_matches_oracle(self, problem):
        _, R_pairs, state, pairs = problem
        S = update_association_blocks(R_pairs, state, pairs=pairs)
        np.testing.assert_array_equal(
            S, oracle_association(R_pairs, state, pairs))

    def test_restricted_solve_matches_oracle(self, problem):
        _, R_pairs, state, pairs = problem
        dirty_pairs = {pair for pair in pairs if 1 in pair}
        S_prev = np.random.default_rng(5).random(state.S.shape)
        S = update_association_blocks(R_pairs, state, pairs=pairs,
                                      dirty_pairs=dirty_pairs, S_prev=S_prev)
        compute = [pair for pair in pairs if pair in dirty_pairs]
        assert 0 < len(compute) < len(pairs)
        np.testing.assert_array_equal(
            S, oracle_association(R_pairs, state, compute, S_prev=S_prev))
