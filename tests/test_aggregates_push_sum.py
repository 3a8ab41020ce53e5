"""Tests for the push-sum aggregation substrate."""

import warnings

import numpy as np
import pytest

from repro.aggregates.push_sum import (
    PushSumProtocol,
    default_push_sum_rounds,
    push_sum_average,
    push_sum_sum,
)
from repro.exceptions import ConfigurationError
from repro.gossip.engine import run_protocol
from repro.gossip.env import GossipEnv
from repro.utils.rand import RandomSource


def test_default_rounds_grow_with_n_and_accuracy():
    assert default_push_sum_rounds(1024) > default_push_sum_rounds(64)
    assert default_push_sum_rounds(256, 1e-6) > default_push_sum_rounds(256, 1e-2)
    with pytest.raises(ConfigurationError):
        default_push_sum_rounds(1)
    with pytest.raises(ConfigurationError):
        default_push_sum_rounds(10, 2.0)


def test_push_sum_average_converges_to_true_average():
    values = np.arange(1.0, 257.0)
    result = push_sum_average(values, rng=1)
    truth = values.mean()
    assert np.all(np.abs(result.estimates - truth) / truth < 1e-3)
    assert result.max_relative_spread < 1e-3


def test_push_sum_sum_converges_to_true_sum():
    values = np.arange(1.0, 129.0)
    result = push_sum_sum(values, rng=2)
    truth = values.sum()
    assert abs(result.mean_estimate - truth) / truth < 1e-3


def test_mass_conservation_invariant():
    values = np.arange(1.0, 65.0)
    protocol = PushSumProtocol(values, rounds=30)
    initial_mass = protocol.total_mass
    initial_weight = protocol.total_weight
    run_protocol(protocol, rng=3, max_rounds=31)
    assert protocol.total_mass == pytest.approx(initial_mass, rel=1e-9)
    assert protocol.total_weight == pytest.approx(initial_weight, rel=1e-9)


def test_mass_conservation_under_failures():
    values = np.arange(1.0, 65.0)
    protocol = PushSumProtocol(values, rounds=30)
    initial_mass = protocol.total_mass
    run_protocol(protocol, rng=4, env=GossipEnv(failure_model=0.4), max_rounds=31)
    assert protocol.total_mass == pytest.approx(initial_mass, rel=1e-9)


def test_push_sum_with_failures_still_converges():
    values = np.arange(1.0, 257.0)
    rounds = default_push_sum_rounds(256) * 2
    result = push_sum_average(values, rng=5, rounds=rounds,
                              env=GossipEnv(failure_model=0.3))
    truth = values.mean()
    assert abs(result.mean_estimate - truth) / truth < 1e-2


def test_round_accounting():
    values = np.arange(1.0, 65.0)
    result = push_sum_average(values, rng=6, rounds=25)
    assert result.rounds == 25
    assert result.metrics.messages == 25 * 64


def test_invalid_inputs():
    with pytest.raises(ConfigurationError):
        PushSumProtocol([1.0])
    with pytest.raises(ConfigurationError):
        PushSumProtocol(np.ones((2, 2)))
    with pytest.raises(ConfigurationError):
        PushSumProtocol(np.arange(4.0), weights=np.arange(3.0))
    with pytest.raises(ConfigurationError):
        PushSumProtocol(np.arange(4.0), weights=np.array([-1.0, 1.0, 1.0, 1.0]))
    with pytest.raises(ConfigurationError):
        PushSumProtocol(np.arange(4.0), rounds=0)


@pytest.mark.parametrize("engine", ("vectorized", "asyncio"))
def test_nan_is_rejected_and_infinities_are_legal(engine):
    env = GossipEnv(engine=engine)
    with pytest.raises(ConfigurationError, match="NaN"):
        push_sum_average([np.nan, 1.0, 2.0, 3.0] * 8, rng=1, env=env)
    with pytest.raises(ConfigurationError, match="NaN"):
        PushSumProtocol(np.arange(4.0), weights=np.array([np.nan, 1.0, 1.0, 1.0]))
    result = push_sum_average([np.inf, 1.0, 2.0, 3.0] * 8, rng=1, env=env)
    assert np.all(result.estimates == np.inf)


def test_message_bits_constant_per_message():
    protocol = PushSumProtocol(np.arange(16.0), rounds=5)
    bits = protocol.message_bits((1.0, 0.5))
    assert bits == protocol.message_bits((100.0, 2.0))
    assert bits > 64


def test_float32_values_gossip_as_complex64_pairs():
    values = np.arange(64, dtype=np.float32)
    protocol = PushSumProtocol(values, weights=np.ones(64), rounds=5)
    assert protocol._sw.dtype == np.complex64
    assert PushSumProtocol(values.astype(int), rounds=5)._sw.dtype == np.complex128


@pytest.mark.parametrize("mu", [None, 0.3], ids=["failure-free", "failures"])
def test_float32_push_sum_reads_out_float64_on_both_engines(mu):
    """A float32 sum (weight on node 0 only) divides in float64: the
    zero weights of the first rounds raise no RuntimeWarning, and both
    engines agree byte for byte."""
    values = (RandomSource(8).random(300) * 100.0).astype(np.float32)
    weights = np.zeros(300)
    weights[0] = 1.0
    outputs = []
    for engine in ("vectorized", "asyncio"):
        protocol = PushSumProtocol(values, weights=weights, rounds=60)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            start = protocol.outputs_array()
            run_protocol(
                protocol, rng=9, max_rounds=61,
                env=GossipEnv(failure_model=mu, engine=engine),
            )
            out = protocol.outputs_array()
            spread = protocol.relative_spread()
        assert start.dtype == out.dtype == np.float64
        assert np.count_nonzero(start) == 1
        assert spread < 1e-3
        outputs.append(out.tobytes())
    assert outputs[0] == outputs[1]
    assert np.allclose(out, values.astype(float).sum(), rtol=1e-3)
