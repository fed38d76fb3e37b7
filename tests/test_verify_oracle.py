"""Property-based differential tests: engine fast paths vs the oracle.

The deterministic catalog (``python -m repro verify``) holds one seeded
case matrix to :class:`repro.verify.oracle.OracleEngine`; these tests
widen the net with hypothesis — random tiny configs, tiling shapes,
sparsity patterns and input batches from
:mod:`repro.verify.strategies` — at small example counts so tier-1
stays fast.  Every example asserts exact bit equality (the 0-ULP
policy documented in :mod:`repro.verify.oracle`).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import MonkeyPatch

from repro.verify.invariants import (
    check_cache_warm_cold,
    check_dense_vs_zero_row_batch,
    check_kernels_match_oracle,
    check_power_of_two_scaling,
)
from repro.verify.strategies import (
    fault_configs,
    input_batches,
    tiny_configs,
    weights_for,
)
from repro.xbar import _ckernels
from repro.xbar.faults import with_faults
from repro.xbar.simulator import IdealPredictor

pytestmark = pytest.mark.verify


@st.composite
def cases(draw):
    """A (config, weight, input batch, construction seed) quadruple."""
    config = draw(tiny_configs())
    weight = draw(weights_for(config))
    x = draw(input_batches(weight.shape[1]))
    seed = draw(st.integers(0, 2**16))
    return config, weight, x, seed


@settings(max_examples=15, deadline=None)
@given(case=cases())
def test_kernels_match_oracle(case):
    """Both engine kernels reproduce the naive oracle bit for bit."""
    config, weight, x, seed = case
    check_kernels_match_oracle(weight, config, IdealPredictor(), x, seed=seed)


@settings(max_examples=8, deadline=None)
@given(case=cases())
def test_kernels_match_oracle_without_ckernels(case):
    """The pure-numpy fallbacks are held to the same oracle."""
    config, weight, x, seed = case
    with MonkeyPatch.context() as mp:
        mp.setattr(_ckernels, "available", lambda: False)
        check_kernels_match_oracle(weight, config, IdealPredictor(), x, seed=seed)


@settings(max_examples=6, deadline=None)
@given(case=cases(), faults=fault_configs())
def test_faulted_engines_match_oracle(case, faults):
    """Fault injection (a construction-time RNG consumer) stays in sync."""
    config, weight, x, seed = case
    check_kernels_match_oracle(
        weight, with_faults(config, faults), IdealPredictor(), x, seed=seed
    )


@settings(max_examples=6, deadline=None)
@given(case=cases())
def test_cache_hit_matches_cold_build(case):
    """A pristine-clone cache hit is bitwise equal to a cold build."""
    config, weight, x, _seed = case
    check_cache_warm_cold(weight, config, IdealPredictor(), x)


@settings(max_examples=6, deadline=None)
@given(case=cases())
def test_zero_row_compaction_is_transparent(case):
    """Appended all-zero rows read exactly 0 and leave the live rows' bits."""
    config, weight, x, _seed = case
    check_dense_vs_zero_row_batch(weight, config, IdealPredictor(), x)


@settings(max_examples=6, deadline=None)
@given(case=cases())
def test_power_of_two_scaling(case):
    """``matvec(2^k x) == 2^k matvec(x)`` exactly, for random cases."""
    config, weight, x, _seed = case
    check_power_of_two_scaling(weight, config, IdealPredictor(), x)
