"""Tests for extrema (min/max) spreading: one-round pull windows on the
tournament substrate, run for the node-known ``spread_rounds`` budget."""

import numpy as np
import pytest

from repro.aggregates.extrema import spread_extrema, spread_protocol, spread_rounds
from repro.exceptions import ConfigurationError
from repro.faults import (
    CrashRestart,
    FaultInjector,
    MessageDelay,
    MessageDuplication,
    ValueCorruption,
)
from repro.gossip.engine import run_protocol
from repro.gossip.env import GossipEnv
from repro.gossip.metrics import NetworkMetrics


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


def test_a_spread_runs_exactly_its_node_known_budget():
    for n in (64, 4096):
        result = spread_extrema(np.arange(float(n)), mode="max", rng=3)
        assert result.converged
        assert result.rounds == result.metrics.rounds == spread_rounds(n)
    assert [spread_rounds(n) for n in (32, 10**3, 10**4, 10**6)] == [22, 27, 30, 37]


def test_spreading_under_failures_runs_the_stretched_budget():
    values = np.arange(1.0, 257.0)
    clean = spread_extrema(values, mode="max", rng=4)
    faulty = spread_extrema(values, mode="max", rng=4, env=GossipEnv(failure_model=0.5))
    assert faulty.converged
    assert faulty.rounds == spread_rounds(256, 0.5) > clean.rounds
    assert faulty.metrics.summary()["failed_node_rounds"] > 0


def test_spread_budget_validation():
    with pytest.raises(ConfigurationError, match="at least 2"):
        spread_rounds(1)
    with pytest.raises(ConfigurationError, match="outside"):
        spread_rounds(1000, 0.95)
    assert spread_rounds(1000, 0.9) > spread_rounds(1000, 0.5) > spread_rounds(1000)


def test_invalid_mode_and_values():
    with pytest.raises(ConfigurationError, match="mode"):
        spread_extrema(np.arange(8.0), mode="median")
    with pytest.raises(ConfigurationError):
        spread_extrema([1.0], mode="max")
    with pytest.raises(ConfigurationError):
        spread_protocol(np.arange(8.0), mode="median")


def test_budget_exhaustion_reports_not_converged():
    values = np.arange(1.0, 513.0)
    result = spread_extrema(values, mode="max", rng=5, rounds=1)
    assert not result.converged
    assert result.rounds == 1


@pytest.mark.parametrize("rounds", [0, -3, 2.5, True, "4"],
                         ids=["zero", "negative", "fraction", "bool", "str"])
def test_rounds_must_be_a_positive_integer(rounds):
    with pytest.raises(ConfigurationError, match="rounds must be"):
        spread_extrema(np.arange(1.0, 65.0), mode="max", rng=5, rounds=rounds)


def test_integral_rounds_is_the_same_budget():
    values = np.arange(1.0, 513.0)
    as_float = spread_extrema(values, mode="max", rng=5, rounds=3.0)
    as_int = spread_extrema(values, mode="max", rng=5, rounds=3)
    assert as_float.rounds == as_int.rounds == 3
    np.testing.assert_array_equal(as_float.values, as_int.values)


def test_monotonicity_invariant():
    """A node's best-seen maximum never decreases: a run one round longer
    replays the shorter run's rounds and then only raises values."""
    values = np.random.default_rng(6).permutation(64).astype(float)
    previous = values
    for rounds in range(1, 12):
        current = spread_extrema(values, mode="max", rng=6, rounds=rounds).values
        assert np.all(current >= previous)
        previous = current
    assert np.all(previous == 63.0)


def test_nan_is_rejected_and_infinities_spread():
    with pytest.raises(ConfigurationError, match="NaN"):
        spread_extrema([np.nan, 1.0, 2.0, 3.0] * 8, mode="max", rng=1)
    with pytest.raises(ConfigurationError, match="NaN"):
        spread_extrema(np.column_stack([np.arange(8.0), np.full(8, np.nan)]),
                       mode=("min", "max"))
    values = np.array([np.inf, 1.0, -np.inf, 3.0] * 8)
    assert np.all(spread_extrema(values, mode="max", rng=2).values == np.inf)
    assert np.all(spread_extrema(values, mode="min", rng=3).values == -np.inf)


# ---- lanes ------------------------------------------------------------------


def test_two_lanes_equal_two_single_runs():
    """A min and a max lane spread in one run exactly as two one-lane runs
    with the same partners: the lanes share the draws, not their values."""
    values = np.random.default_rng(12).random((400, 2)) * 50.0
    lo = spread_extrema(values[:, 0], mode="min", rng=1)
    hi = spread_extrema(values[:, 1], mode="max", rng=1)
    pair = spread_extrema(values, mode=("min", "max"), rng=1)
    assert pair.converged
    assert pair.values.shape == (400, 2)
    np.testing.assert_array_equal(pair.values[:, 0], lo.values)
    np.testing.assert_array_equal(pair.values[:, 1], hi.values)
    assert pair.rounds == lo.rounds == hi.rounds
    # one framing per message, one extra value per extra lane
    assert pair.metrics.max_message_bits == lo.metrics.max_message_bits + 64
    assert pair.metrics.summary()["messages"] == lo.metrics.summary()["messages"]


def test_per_lane_modes():
    values = np.random.default_rng(13).random((128, 3))
    result = spread_extrema(values, mode=("max", "min", "max"), rng=2)
    assert result.converged
    np.testing.assert_array_equal(
        result.values,
        np.broadcast_to([values[:, 0].max(), values[:, 1].min(), values[:, 2].max()],
                        (128, 3)),
    )
    same = spread_extrema(values, mode="max", rng=2)
    assert np.all(same.values == values.max(axis=0))


# ---- float32 lanes (the exact driver's float32-exact values) -----------------


def _rank_lanes(n, seed, dtype):
    """Two lanes of rank keys 1..n in random node order, as ``(n, 2)``."""
    rng = np.random.default_rng(seed)
    return np.column_stack(
        [rng.permutation(n) + 1, rng.permutation(n) + 1]
    ).astype(dtype)


def _spread_lanes(dtype, engine, faults):
    injector = (
        FaultInjector(CrashRestart(0.1, downtime=2), rng=8) if faults else None
    )
    return spread_extrema(
        _rank_lanes(128, 4, dtype), mode=("min", "max"), rng=9,
        env=GossipEnv(engine=engine, faults=injector),
    )


@pytest.mark.parametrize("engine", ["vectorized", "asyncio"])
def test_float32_lanes_stay_float32(engine):
    result = _spread_lanes(np.float32, engine, faults=False)
    assert result.values.dtype == np.float32
    assert result.values.shape == (128, 2)
    assert np.all(result.values[:, 0] == 1.0) and np.all(result.values[:, 1] == 128.0)


def test_other_inputs_spread_as_float64():
    assert spread_extrema(np.arange(8), rounds=1).values.dtype == np.float64
    assert spread_extrema(
        np.arange(8, dtype=np.float16), rounds=1
    ).values.dtype == np.float64


@pytest.mark.parametrize("faults", [False, True], ids=["fault-free", "crash-restart"])
@pytest.mark.parametrize("engine", ["vectorized", "asyncio"])
def test_float32_lanes_replay_the_float64_run(engine, faults):
    """Rank keys are exact in float32: the same rounds, and the same
    per-node values after a cast."""
    single = _spread_lanes(np.float32, engine, faults)
    double = _spread_lanes(np.float64, engine, faults)
    assert single.rounds == double.rounds
    assert single.metrics.summary() == double.metrics.summary()
    np.testing.assert_array_equal(single.values.astype(np.float64), double.values)


# ---- both engines under message faults ----------------------------------------

FAULT_SPECS = {
    "fault-free": None,
    "delay": lambda: MessageDelay(0.3, max_delay=2),
    "corrupt": lambda: ValueCorruption(0.3),
    "duplicate": lambda: MessageDuplication(0.3),
    "crash-reset": lambda: CrashRestart(0.1, downtime=2, reset_values=True),
}


def _env(engine, kind):
    spec = FAULT_SPECS[kind]
    faults = FaultInjector(spec(), rng=5) if spec is not None else None
    return GossipEnv(engine=engine, faults=faults)


def _engine_runs(kind):
    """``spread_extrema`` and the CLI's ``spread_protocol`` on both engines:
    (values, rounds, metrics summary) per run."""
    values = np.random.default_rng(5).random((64, 2))
    modes = ("min", "max")
    runs = {}
    for engine in ("vectorized", "asyncio"):
        result = spread_extrema(values, mode=modes, rng=5, env=_env(engine, kind))
        runs["spread", engine] = (result.values, result.rounds, result.metrics.summary())
        env = _env(engine, kind)
        protocol = spread_protocol(values, mode=modes, env=env)
        metrics = NetworkMetrics()
        window = run_protocol(protocol, rng=5, metrics=metrics, env=env)
        # the protocol's rows hold the max lane negated
        rows = protocol.rows * np.array([[1.0], [-1.0]])
        runs["cli", engine] = (np.ascontiguousarray(rows.T), window.rounds,
                               metrics.summary())
    return runs


@pytest.mark.parametrize("kind", FAULT_SPECS)
def test_spread_and_cli_window_agree_on_both_engines(kind):
    """The two engines deliver the spread's pulls through the one
    ``tournament.deliver``: byte-equal values, the same rounds and the same
    messages, under every message fault.  A crashed node's endpoint is
    killed on the asyncio engine, where pulls to it are refused rather than
    answered from its window-start row, so there the engines differ in the
    messages charged by design and agree on the values only because every
    run reaches all nodes within the budget."""
    runs = _engine_runs(kind)
    reference = runs["spread", "vectorized"]
    for (_, engine), (values, rounds, summary) in runs.items():
        assert values.tobytes() == reference[0].tobytes(), engine
        assert rounds == reference[1] == spread_rounds(64, _env(engine, kind).mu_bound())
        if kind == "crash-reset" and engine == "asyncio":
            continue
        assert summary == reference[2], engine
