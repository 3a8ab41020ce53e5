"""Tests for single-message rumor spreading."""

import math

import pytest

from repro.aggregates.broadcast import BroadcastProtocol, broadcast_rounds
from repro.exceptions import ConfigurationError
from repro.gossip.env import GossipEnv


def test_broadcast_informs_all_nodes():
    result = broadcast_rounds(256, rng=1)
    assert result.all_informed
    assert result.informed == 256


def test_broadcast_rounds_logarithmic():
    result = broadcast_rounds(2048, rng=2)
    assert result.all_informed
    assert result.rounds <= 4 * math.log2(2048) + 12
    assert result.rounds >= math.log2(2048) / 2  # cannot beat doubling


def test_broadcast_growth_with_n_is_slow():
    small = broadcast_rounds(128, rng=3)
    large = broadcast_rounds(8192, rng=3)
    assert large.rounds - small.rounds <= 12


def test_broadcast_under_failures():
    result = broadcast_rounds(256, rng=4, env=GossipEnv(failure_model=0.4))
    assert result.all_informed


def test_broadcast_with_tiny_budget_partial():
    result = broadcast_rounds(512, rng=5, max_rounds=2)
    assert not result.all_informed
    assert result.informed >= 1


def test_source_validation():
    with pytest.raises(ConfigurationError):
        BroadcastProtocol(10, source=10)
    with pytest.raises(ValueError):
        BroadcastProtocol(1, source=0)


def test_custom_source():
    result = broadcast_rounds(64, rng=6, source=63)
    assert result.all_informed
