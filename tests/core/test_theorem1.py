"""Theorem 1 regressions: the objective never rises once E_R participates.

The E step used to scale each residual row by 2‖q_i‖/(β + 2‖q_i‖), the
first step of the L2,1 reweighting rather than its minimiser, and the
objective could rise under it.  The exact prox makes the E block an exact
minimiser, so the block-coordinate argument of Theorem 1 covers it.  The
first two tests below rose under the one-step rule.  The third fits once
per non-default value a caller can set, at the default β.  The last still
rises: at small β the G and S steps themselves are not descent steps, and
it is recorded as a strict xfail until they are.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import RHCHME, RHCHMEConfig
from repro.data import make_dataset
from repro.relational.dataset import MultiTypeRelationalData
from repro.relational.types import ObjectType, Relation


def _rises(objectives) -> np.ndarray:
    """Records at which the objective rose, at the library's tolerance."""
    values = np.asarray(objectives)
    steps = np.diff(values)
    return np.flatnonzero(steps > np.abs(values[:-1]) * 1e-6 + 1e-8) + 1


@pytest.fixture(scope="module")
def featureless_toy() -> MultiTypeRelationalData:
    """Two featureless types joined by one dense random relation."""
    rng = np.random.default_rng(0)
    types = [ObjectType("a", n_objects=60, n_clusters=3),
             ObjectType("b", n_objects=40, n_clusters=2)]
    return MultiTypeRelationalData(
        types, [Relation("a", "b", rng.random((60, 40)))])


@pytest.mark.parametrize("backend", ["dense", "sparse"])
def test_featureless_toy_never_rises(featureless_toy, backend):
    # The one-step rule went 0.50 -> 1.50 at record 1.
    result = RHCHME(RHCHMEConfig(random_state=0, max_iter=30,
                                 backend=backend)).fit(featureless_toy)
    assert _rises(result.trace.objectives).size == 0


def test_corrupted_multi5_never_rises_at_small_beta():
    # At β = 0.3 the prox keeps the corrupted rows; the one-step rule
    # first rose at record 40.
    data = make_dataset("corrupted-multi5", random_state=3)
    result = RHCHME(beta=0.3, max_iter=50, random_state=3).fit(data)
    assert result.state.E_R.n_stored_rows > 0
    assert _rises(result.trace.objectives).size == 0


@pytest.mark.parametrize("override", [
    {"weighting": "binary"}, {"weighting": "heat_kernel"},
    {"init": "random"}, {"use_error_matrix": False},
    {"use_subspace_member": False}, {"use_pnn_member": False},
    {"backend": "sparse"}],
    ids=lambda override: ",".join(f"{key}={value}"
                                  for key, value in override.items()))
def test_non_default_settings_never_rise(override):
    data = make_dataset("multi5-small", random_state=0)
    result = RHCHME(RHCHMEConfig(random_state=0, **override)).fit(data)
    assert _rises(result.trace.objectives).size == 0


# Strict: once the G and S steps descend at small β this XPASSes and fails
# the suite, and the marker comes off.
@pytest.mark.xfail(strict=True, reason=(
    "Theorem 1 fails at beta = 0.1. Measured at 1 BLAS thread: multi5 seed 0 "
    "rises at 37 records (the first is record 19), keeps 325 E_R rows and "
    "fits in 0.55-0.7 s; seeds 1 and 2 rise 37 and 35 times. The G step "
    "(Eq. 21-22) is not a descent step once R - E has negative parts, and "
    "the S step is exact only while cond(G'G) stays under gram_pinv's "
    "rcond."))
def test_multi5_never_rises_at_beta_0_1():
    data = make_dataset("multi5", random_state=0)
    result = RHCHME(beta=0.1, track_metrics_every=0,
                    random_state=0).fit(data)
    assert result.state.E_R.n_stored_rows > 0
    assert _rises(result.trace.objectives).size == 0
