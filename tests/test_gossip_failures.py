"""Tests for repro.gossip.failures."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.gossip.failures import (
    NoFailures,
    PerNodeFailures,
    TopologyFailures,
    UniformFailures,
    resolve_failure_model,
)
from repro.utils.rand import RandomSource


def test_no_failures_never_fails():
    model = NoFailures()
    mask = model.failure_mask(0, 100, RandomSource(1))
    assert mask.dtype == bool
    assert not mask.any()
    assert model.mu == 0.0


def test_uniform_failures_rate_close_to_mu():
    model = UniformFailures(0.3)
    rng = RandomSource(2)
    total = 0
    rounds = 50
    for i in range(rounds):
        total += int(model.failure_mask(i, 1000, rng).sum())
    rate = total / (rounds * 1000)
    assert 0.25 < rate < 0.35
    assert model.expected_failures(1000) == pytest.approx(300.0)


def test_uniform_failures_validation():
    with pytest.raises(ConfigurationError):
        UniformFailures(1.0)
    with pytest.raises(ConfigurationError):
        UniformFailures(-0.1)


def test_per_node_failures_static_vector():
    probs = np.zeros(100)
    probs[:10] = 0.9
    model = PerNodeFailures(probs)
    assert model.mu == pytest.approx(0.9)
    rng = RandomSource(3)
    counts = np.zeros(100)
    for i in range(200):
        counts += model.failure_mask(i, 100, rng)
    # nodes 10.. never fail, nodes 0..9 fail often
    assert counts[10:].sum() == 0
    assert counts[:10].min() > 100


def test_per_node_failures_wrong_length_raises():
    model = PerNodeFailures(np.full(10, 0.2))
    with pytest.raises(ConfigurationError):
        model.failure_mask(0, 20, RandomSource(1))


def test_per_node_failures_callable_schedule():
    def schedule(round_index, n):
        probs = np.zeros(n)
        if round_index % 2 == 0:
            probs[:] = 0.5
        return probs

    model = PerNodeFailures(schedule, mu=0.5)
    rng = RandomSource(4)
    even = model.failure_mask(0, 500, rng).sum()
    odd = model.failure_mask(1, 500, rng).sum()
    assert even > 150
    assert odd == 0


def test_per_node_callable_requires_mu():
    with pytest.raises(ConfigurationError):
        PerNodeFailures(lambda r, n: np.zeros(n))


def test_per_node_schedule_exceeding_mu_raises():
    model = PerNodeFailures(lambda r, n: np.full(n, 0.9), mu=0.5)
    with pytest.raises(ConfigurationError):
        model.failure_mask(0, 10, RandomSource(1))


def test_per_node_invalid_probabilities():
    with pytest.raises(ConfigurationError):
        PerNodeFailures(np.array([0.5, 1.0]))
    with pytest.raises(ConfigurationError):
        PerNodeFailures(np.array([[0.1, 0.2]]))


def test_resolve_failure_model():
    assert isinstance(resolve_failure_model(None), NoFailures)
    assert isinstance(resolve_failure_model(0), NoFailures)
    assert isinstance(resolve_failure_model(0.25), UniformFailures)
    model = UniformFailures(0.1)
    assert resolve_failure_model(model) is model
    with pytest.raises(ConfigurationError):
        resolve_failure_model("half")


# ---- callable-schedule range validation (regression) ------------------------


def test_per_node_callable_out_of_range_names_the_range():
    """A callable returning probs >= 1 must fail with the range error, not a
    misleading mu-bound message — regardless of how large mu is."""
    model = PerNodeFailures(lambda r, n: np.full(n, 1.5), mu=0.9)
    with pytest.raises(ConfigurationError, match=r"\[0, 1\)"):
        model.failure_mask(0, 10, RandomSource(1))


def test_per_node_callable_prob_of_exactly_one_rejected():
    model = PerNodeFailures(lambda r, n: np.full(n, 1.0), mu=0.5)
    with pytest.raises(ConfigurationError, match=r"\[0, 1\)"):
        model.failure_mask(0, 10, RandomSource(1))


def test_per_node_callable_negative_prob_rejected():
    model = PerNodeFailures(lambda r, n: np.full(n, -0.1), mu=0.5)
    with pytest.raises(ConfigurationError, match=r"\[0, 1\)"):
        model.failure_mask(0, 10, RandomSource(1))


def test_per_node_callable_within_mu_still_works():
    model = PerNodeFailures(lambda r, n: np.full(n, 0.4), mu=0.5)
    mask = model.failure_mask(0, 2000, RandomSource(3))
    assert 500 < int(mask.sum()) < 1100


# ---- position-correlated (topology) failures --------------------------------


def _star_degrees(n):
    degrees = np.ones(n, dtype=np.int64)
    degrees[0] = n - 1
    return degrees


def test_topology_failures_degree_mode_hits_hubs_hardest():
    n = 2000
    model = TopologyFailures(_star_degrees(n), mu=0.5, mode="degree")
    counts = np.zeros(n)
    rng = RandomSource(7)
    for r in range(200):
        counts += model.failure_mask(r, n, rng)
    # hub fails at rate mu, leaves at mu/(n-1)
    assert counts[0] > 50
    assert counts[1:].mean() < 1.0


def test_topology_failures_inverse_mode_hits_leaves_hardest():
    n = 2000
    model = TopologyFailures(_star_degrees(n), mu=0.5, mode="inverse-degree")
    counts = np.zeros(n)
    rng = RandomSource(7)
    for r in range(200):
        counts += model.failure_mask(r, n, rng)
    assert counts[0] < 5
    assert counts[1:].mean() > 50


def test_topology_failures_accepts_topology_objects():
    from repro.topology import ring

    model = TopologyFailures(ring(64, k=2), mu=0.3)
    # ring is regular: every node at the full rate mu
    assert np.allclose(model._probabilities(0, 64), 0.3)


def test_topology_failures_validation():
    with pytest.raises(ConfigurationError):
        TopologyFailures(_star_degrees(16), mu=0.2, mode="random")
    with pytest.raises(ConfigurationError):
        TopologyFailures(_star_degrees(16), mu=1.0)
    with pytest.raises(ConfigurationError):
        TopologyFailures(np.zeros(16), mu=0.2)  # isolated nodes
