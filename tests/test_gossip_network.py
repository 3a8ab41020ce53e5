"""Tests for repro.gossip.network (the vectorised pull surface)."""

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
    assert net.n == 32
    assert net.rounds == 0
    assert np.array_equal(net.values, np.arange(1.0, 33.0))
    assert np.array_equal(net.initial_values, net.values)


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
    assert net.rounds == 3
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


def test_pull_with_failures_marks_ok_false_and_nan():
    net = make_network(200, seed=2, env=GossipEnv(failure_model=0.5))
    batch = net.pull(1)
    failed = ~batch.ok[:, 0]
    assert failed.sum() > 50  # roughly half fail
    assert np.all(np.isnan(batch.values[:, 0][failed]))
    assert net.metrics.failed_node_rounds == failed.sum()


def test_set_values_and_snapshot():
    net = make_network(16)
    snap = net.snapshot()
    net.set_values(np.zeros(16))
    assert np.all(net.values == 0.0)
    assert not np.all(snap == 0.0)  # snapshot is independent
    with pytest.raises(ConfigurationError):
        net.set_values(np.zeros(8))


def test_pull_values_override_source():
    net = make_network(32)
    override = np.full(32, 7.0)
    batch = net.pull(1, values=override)
    assert np.all(batch.values == 7.0)
    with pytest.raises(ConfigurationError):
        net.pull(1, values=np.zeros(4))


def test_reset_restores_initial_state():
    net = make_network(16)
    net.pull(2)
    net.set_values(np.zeros(16))
    net.reset()
    assert net.rounds == 0
    assert np.array_equal(net.values, np.arange(1.0, 17.0))


def test_charge_rounds():
    net = make_network(16)
    net.charge_rounds(7, label="external")
    assert net.rounds == 7
    assert net.metrics.rounds_by_label()["external"] == 7


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
