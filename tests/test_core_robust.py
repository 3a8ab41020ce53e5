"""Tests for the Section-5 failure-tolerant algorithms (Theorem 1.4)."""

import numpy as np
import pytest

from repro.core.robust import default_pulls_per_iteration, robust_approximate_quantile
from repro.exceptions import ConfigurationError
from repro.gossip.env import GossipEnv
from repro.gossip.failures import PerNodeFailures
from repro.utils.stats import rank_error


def test_default_pulls_grow_with_mu():
    assert default_pulls_per_iteration(0.0) == 4
    assert default_pulls_per_iteration(0.5) > default_pulls_per_iteration(0.2)
    assert default_pulls_per_iteration(0.9) > default_pulls_per_iteration(0.5)
    with pytest.raises(ConfigurationError):
        default_pulls_per_iteration(1.0)


def test_accurate_under_moderate_failures(medium_values):
    phi, eps, mu = 0.5, 0.1, 0.3
    result = robust_approximate_quantile(
        medium_values, phi=phi, eps=eps, env=GossipEnv(failure_model=mu), rng=1
    )
    assert rank_error(medium_values, result.estimate, phi) <= eps
    assert result.good_fraction > 0.5
    assert result.answered_fraction > 0.9


def test_accurate_under_heavy_failures(medium_values):
    phi, eps, mu = 0.75, 0.15, 0.5
    result = robust_approximate_quantile(
        medium_values, phi=phi, eps=eps, env=GossipEnv(failure_model=mu), rng=2
    )
    assert rank_error(medium_values, result.estimate, phi) <= eps
    # most answering nodes should individually be within eps
    finite = result.estimates[np.isfinite(result.estimates)]
    errors = [rank_error(medium_values, float(v), phi) for v in finite]
    assert np.mean(np.asarray(errors) <= eps) > 0.8


def test_rounds_increase_with_mu(medium_values):
    light = robust_approximate_quantile(
        medium_values, phi=0.5, eps=0.1, env=GossipEnv(failure_model=0.1), rng=3
    )
    heavy = robust_approximate_quantile(
        medium_values, phi=0.5, eps=0.1, env=GossipEnv(failure_model=0.6), rng=3
    )
    assert heavy.rounds > light.rounds
    assert heavy.pulls_per_iteration > light.pulls_per_iteration


def test_per_node_failure_model(medium_values):
    probs = np.zeros(medium_values.size)
    probs[: medium_values.size // 2] = 0.4
    model = PerNodeFailures(probs)
    result = robust_approximate_quantile(
        medium_values, phi=0.5, eps=0.1, env=GossipEnv(failure_model=model), rng=4
    )
    assert rank_error(medium_values, result.estimate, 0.5) <= 0.1


def test_no_failures_degenerates_gracefully(medium_values):
    result = robust_approximate_quantile(
        medium_values, phi=0.25, eps=0.1, env=GossipEnv(failure_model=0.0), rng=5
    )
    assert result.good_fraction == 1.0
    assert result.answered_fraction == 1.0
    assert rank_error(medium_values, result.estimate, 0.25) <= 0.1


def test_extra_spread_rounds_increase_coverage(medium_values):
    few = robust_approximate_quantile(
        medium_values, phi=0.5, eps=0.1, env=GossipEnv(failure_model=0.6), rng=6,
        extra_spread_rounds=0,
    )
    many = robust_approximate_quantile(
        medium_values, phi=0.5, eps=0.1, env=GossipEnv(failure_model=0.6), rng=6,
        extra_spread_rounds=20,
    )
    assert many.answered_fraction >= few.answered_fraction


def test_summary_keys(medium_values):
    result = robust_approximate_quantile(
        medium_values, phi=0.5, eps=0.1, env=GossipEnv(failure_model=0.2), rng=7
    )
    summary = result.summary()
    assert summary["n"] == medium_values.size
    assert 0.0 <= summary["good_fraction"] <= 1.0


def test_validation_errors(medium_values):
    with pytest.raises(ConfigurationError):
        robust_approximate_quantile(medium_values, phi=2.0, eps=0.1,
                                    env=GossipEnv(failure_model=0.1))
    with pytest.raises(ConfigurationError):
        robust_approximate_quantile(medium_values, phi=0.5, eps=0.0,
                                    env=GossipEnv(failure_model=0.1))
    with pytest.raises(ConfigurationError):
        robust_approximate_quantile(
            medium_values, phi=0.5, eps=0.1,
            env=GossipEnv(failure_model=0.1), pulls_per_iteration=2
        )
    with pytest.raises(ConfigurationError):
        robust_approximate_quantile(
            medium_values, phi=0.5, eps=0.1,
            env=GossipEnv(failure_model=0.1), final_samples=4
        )
