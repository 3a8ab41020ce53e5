"""Tests for repro.gossip.network (the pull-kernel handle on the engines)."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.gossip.env import GossipEnv
from repro.gossip.network import GossipNetwork
from repro.utils.rand import RandomSource


def make_network(n=64, seed=1, **kwargs):
    values = np.arange(1.0, n + 1.0)
    return GossipNetwork(values, rng=seed, **kwargs)


def test_construction_and_properties():
    net = make_network(32)
    assert net.values.shape == (32,)
    assert net.metrics.rounds == 0
    assert np.array_equal(net.values, np.arange(1.0, 33.0))
    # a pull is an identity window: nobody's value changes
    net.pull(2)
    assert net.metrics.rounds == 2
    assert np.array_equal(net.values, np.arange(1.0, 33.0))


def test_construction_validation():
    with pytest.raises(ConfigurationError):
        GossipNetwork([1.0])
    # a 2-d array is a valid *multi-lane* network; only >2-d is rejected
    with pytest.raises(ConfigurationError):
        GossipNetwork(np.ones((2, 2, 2)))
    with pytest.raises(ConfigurationError):
        GossipNetwork(np.ones((1, 3)))  # still needs >= 2 nodes
    with pytest.raises(ConfigurationError):
        GossipNetwork(np.ones(4), env=GossipEnv(dtype=np.int64))


def test_pull_advances_rounds_and_counts_messages():
    net = make_network(64)
    batch = net.pull(3)
    assert batch.partners.shape == (64, 3)
    assert batch.values.shape == (64, 3)
    assert batch.ok.all()
    assert not np.isnan(batch.values).any()
    assert net.metrics.rounds == 3
    assert net.metrics.messages == 3 * 64


def test_pull_values_come_from_partners():
    net = make_network(64)
    batch = net.pull(2)
    expected = net.values[batch.partners]
    assert np.array_equal(batch.values, expected)


def test_pull_excludes_self_contacts_by_default():
    net = make_network(16, seed=3)
    for _ in range(5):
        batch = net.pull(4)
        own = np.arange(16)[:, None]
        assert not np.any(batch.partners == own)


def test_pull_with_failures_marks_ok_false_and_reads_own_value():
    net = make_network(200, seed=2, env=GossipEnv(failure_model=0.5))
    batch = net.pull(1)
    failed = ~batch.ok[:, 0]
    assert failed.sum() > 50  # roughly half fail
    assert np.array_equal(batch.partners[:, 0][failed], np.flatnonzero(failed))
    assert np.array_equal(batch.values[:, 0][failed], net.values[failed])
    assert net.metrics.failed_node_rounds == failed.sum()
    assert net.metrics.messages == 200 - failed.sum()


def test_shared_metrics_accumulate_across_networks():
    from repro.gossip.metrics import NetworkMetrics

    shared = NetworkMetrics(keep_history=False)
    a = GossipNetwork(np.arange(8.0), rng=1, metrics=shared)
    b = GossipNetwork(np.arange(8.0), rng=2, metrics=shared)
    a.pull(2)
    b.pull(3)
    assert shared.rounds == 5


def test_invalid_pull_count():
    net = make_network(8)
    with pytest.raises(ConfigurationError):
        net.pull(0)


def test_pull_is_deterministic_given_seed():
    a = make_network(32, seed=9)
    b = make_network(32, seed=9)
    assert np.array_equal(a.pull(2).partners, b.pull(2).partners)
