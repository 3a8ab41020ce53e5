"""Tests for the Section-5 failure-tolerant algorithms (Theorem 1.4)."""

import numpy as np
import pytest

from repro.core.robust import (
    ROBUST_MAX_MU,
    default_pulls_per_iteration,
    first_pulls,
    robust_approximate_quantile,
)
from repro.exceptions import ConfigurationError
from repro.faults import CrashRestart, FaultInjector, MessageDelay, MessageDrop
from repro.gossip.env import GossipEnv
from repro.gossip.failures import PerNodeFailures
from repro.utils.stats import rank_error


def test_default_pulls_grow_with_mu():
    assert default_pulls_per_iteration(0.0) == 4
    assert default_pulls_per_iteration(0.5) > default_pulls_per_iteration(0.2)
    assert default_pulls_per_iteration(0.9) > default_pulls_per_iteration(0.5)
    with pytest.raises(ConfigurationError):
        default_pulls_per_iteration(1.0)


def test_default_pulls_raise_above_the_mu_ceiling():
    assert default_pulls_per_iteration(ROBUST_MAX_MU) == 149
    with pytest.raises(ConfigurationError, match="mu = 0.91"):
        default_pulls_per_iteration(0.91)


def test_all_dropping_injector_raises_before_any_round(medium_values):
    """Dropping every message gives mu = 0.999: the robust query raises,
    naming mu, instead of sizing 33 178-pull windows; no round runs, so
    the injector never fires."""
    faults = FaultInjector(MessageDrop(1.0), rng=0)
    with pytest.raises(ConfigurationError, match="mu = 0.999"):
        robust_approximate_quantile(
            medium_values, phi=0.5, eps=0.1, rng=1, env=GossipEnv(faults=faults)
        )
    assert not any(faults.counters.values())


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


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_vote_is_sized_for_injected_drops_too(seed):
    """The final vote is sized from the union suppression rate of the
    failure model and the injector, as the pull counts are: under a 0.6
    injected drop rate nearly every node still answers, as under a 0.6
    failure model."""
    values = np.random.default_rng(0).permutation(2000).astype(float)
    result = robust_approximate_quantile(
        values, 0.5, 0.1, rng=seed,
        env=GossipEnv(faults=FaultInjector(MessageDrop(0.6), rng=seed)),
    )
    assert result.answered_fraction > 0.95


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("delay", [False, True])
def test_spread_rounds_only_pass_vote_answers_on(seed, delay):
    """After the vote the rows are answers: a node restarted from a
    state-loss crash keeps its answer (it does not get its input back),
    and no pull — delayed to before the vote or not — hands a node a
    value that is not some node's vote median.  A run without spread
    rounds is a prefix of the run with them, so it shows the vote."""
    values = np.random.default_rng(0).permutation(2000).astype(float)
    specs = [CrashRestart(0.05, downtime=2)]
    if delay:
        specs.append(MessageDelay(0.3, max_delay=3))
    faults = FaultInjector(specs, rng=seed)

    def estimates(spread_rounds):
        result = robust_approximate_quantile(
            values, 0.5, 0.1, rng=seed, extra_spread_rounds=spread_rounds,
            env=GossipEnv(faults=faults),
        )
        return result.estimates, faults.counters["restart"]

    voted, restarts_by_vote = estimates(0)
    spread, restarts = estimates(12)
    answered = np.isfinite(voted)
    assert 0.5 < answered.mean() < 1.0      # the spread rounds have work to do
    assert restarts > restarts_by_vote      # and nodes restart during them
    assert np.array_equal(spread[answered], voted[answered])
    assert np.isin(spread[np.isfinite(spread)], voted[answered]).all()
    assert np.isfinite(spread).mean() > answered.mean()


@pytest.mark.parametrize("count", [1, 2, 3, 5])
def test_first_pulls_matches_a_per_node_loop(count):
    rng = np.random.default_rng(count)
    mask = rng.random((200, 7)) < 0.6
    pulled = rng.random((200, 7))
    chosen, picked = first_pulls(mask, pulled, count)
    expected = []
    for node in range(200):
        columns = np.nonzero(mask[node])[0]
        assert chosen[node] == (columns.size >= count)
        if columns.size >= count:
            expected.append(pulled[node, columns[:count]])
    assert np.array_equal(picked, np.array(expected).reshape(-1, count))
