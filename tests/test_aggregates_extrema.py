"""Tests for extrema (min/max) spreading."""

import math

import numpy as np
import pytest

from repro.aggregates.extrema import ExtremaProtocol, spread_extrema
from repro.exceptions import ConfigurationError
from repro.gossip.env import GossipEnv


def test_max_spreading_reaches_all_nodes():
    values = np.arange(1.0, 257.0)
    result = spread_extrema(values, mode="max", rng=1)
    assert result.converged
    assert np.all(result.values == 256.0)
    assert result.agreed_value == 256.0


def test_min_spreading_reaches_all_nodes():
    values = np.arange(1.0, 257.0)
    result = spread_extrema(values, mode="min", rng=2)
    assert result.converged
    assert np.all(result.values == 1.0)


def test_rounds_scale_logarithmically():
    small = spread_extrema(np.arange(64.0), mode="max", rng=3)
    large = spread_extrema(np.arange(4096.0), mode="max", rng=3)
    assert small.converged and large.converged
    # push-pull spreading needs O(log n) rounds; allow generous constants
    assert large.rounds <= 4 * math.log2(4096) + 12
    assert large.rounds <= small.rounds + 3 * (math.log2(4096) - math.log2(64)) + 6


def test_spreading_under_failures_converges_with_slowdown():
    values = np.arange(1.0, 257.0)
    clean = spread_extrema(values, mode="max", rng=4)
    faulty = spread_extrema(values, mode="max", rng=4, env=GossipEnv(failure_model=0.5))
    assert faulty.converged
    assert faulty.rounds >= clean.rounds


def test_invalid_mode_and_values():
    with pytest.raises(ConfigurationError):
        ExtremaProtocol(np.arange(8.0), mode="median")
    with pytest.raises(ConfigurationError):
        ExtremaProtocol([1.0], mode="max")


def test_budget_exhaustion_reports_not_converged():
    values = np.arange(1.0, 513.0)
    result = spread_extrema(values, mode="max", rng=5, max_rounds=1)
    assert not result.converged
    assert result.rounds <= 2


@pytest.mark.parametrize("max_rounds", [0, -3, 2.5, True, "4"],
                         ids=["zero", "negative", "fraction", "bool", "str"])
def test_max_rounds_must_be_a_positive_integer(max_rounds):
    with pytest.raises(ConfigurationError, match="max_rounds must be"):
        spread_extrema(np.arange(1.0, 65.0), mode="max", rng=5,
                       max_rounds=max_rounds)


def test_integral_max_rounds_is_the_same_budget():
    values = np.arange(1.0, 513.0)
    as_float = spread_extrema(values, mode="max", rng=5, max_rounds=3.0)
    as_int = spread_extrema(values, mode="max", rng=5, max_rounds=3)
    assert as_float.rounds == as_int.rounds
    np.testing.assert_array_equal(as_float.values, as_int.values)


def test_monotonicity_invariant():
    """A node's best-seen maximum never decreases across rounds."""
    values = np.arange(1.0, 65.0)
    protocol = ExtremaProtocol(values, mode="max", max_rounds=10, stop_when_converged=False)
    from repro.gossip.engine import run_protocol

    previous = np.asarray(protocol.outputs(), dtype=float)
    # run round by round by repeatedly calling the engine with max_rounds=1
    # equivalent: just run fully and check final >= initial
    run_protocol(protocol, rng=6, max_rounds=11, raise_on_budget=False)
    final = np.asarray(protocol.outputs(), dtype=float)
    assert np.all(final >= previous)


def test_nan_is_rejected_and_infinities_spread():
    with pytest.raises(ConfigurationError, match="NaN"):
        spread_extrema([np.nan, 1.0, 2.0, 3.0] * 8, mode="max", rng=1)
    with pytest.raises(ConfigurationError, match="NaN"):
        ExtremaProtocol(np.column_stack([np.arange(8.0), np.full(8, np.nan)]),
                        mode=("min", "max"))
    values = np.array([np.inf, 1.0, -np.inf, 3.0] * 8)
    assert np.all(spread_extrema(values, mode="max", rng=2).values == np.inf)
    assert np.all(spread_extrema(values, mode="min", rng=3).values == -np.inf)


# ---- float32 lanes (the exact driver's rank keys) ----------------------------


def _rank_lanes(n, seed, dtype):
    """Two lanes of rank keys 1..n in random node order, as ``(n, 2)``."""
    rng = np.random.default_rng(seed)
    return np.column_stack(
        [rng.permutation(n) + 1, rng.permutation(n) + 1]
    ).astype(dtype)


def _spread_lanes(dtype, engine, faults):
    from repro.faults import CrashRestart, FaultInjector
    from repro.gossip.engine import run_protocol

    injector = (
        FaultInjector(CrashRestart(0.1, downtime=2), rng=8) if faults else None
    )
    protocol = ExtremaProtocol(_rank_lanes(128, 4, dtype), mode=("min", "max"))
    result = run_protocol(
        protocol, rng=9, max_rounds=protocol._budget + 1,
        raise_on_budget=False, env=GossipEnv(engine=engine, faults=injector),
    )
    return result, protocol.outputs_array()


@pytest.mark.parametrize("engine", ["vectorized", "asyncio"])
def test_float32_lanes_stay_float32(engine):
    result, outputs = _spread_lanes(np.float32, engine, faults=False)
    assert outputs.dtype == np.float32
    assert outputs.shape == (128, 2)
    assert np.all(outputs[:, 0] == 1.0) and np.all(outputs[:, 1] == 128.0)


def test_other_inputs_spread_as_float64():
    assert ExtremaProtocol(np.arange(8)).outputs_array().dtype == np.float64
    assert ExtremaProtocol(
        np.arange(8, dtype=np.float16)
    ).outputs_array().dtype == np.float64


@pytest.mark.parametrize("faults", [False, True], ids=["fault-free", "crash-restart"])
@pytest.mark.parametrize("engine", ["vectorized", "asyncio"])
def test_float32_lanes_replay_the_float64_run(engine, faults):
    """Rank keys are exact in float32: the same rounds, and the same
    per-node values after a cast."""
    single, single_out = _spread_lanes(np.float32, engine, faults)
    double, double_out = _spread_lanes(np.float64, engine, faults)
    assert single.rounds == double.rounds
    assert single.metrics.summary() == double.metrics.summary()
    np.testing.assert_array_equal(single_out.astype(np.float64), double_out)
