"""Tests for gossip counting / rank computation."""

import numpy as np
import pytest

from repro.aggregates.counting import count_leq, count_rounds
from repro.exceptions import ConfigurationError
from repro.faults import CrashRestart, FaultInjector
from repro.gossip.env import GossipEnv
from repro.utils.rand import RandomSource


def test_count_leq_exact_on_clean_run():
    values = np.arange(1.0, 129.0)
    result = count_leq(values, threshold=37.0, rng=1)
    assert result.count == 37
    assert result.exact


def test_count_leq_zero_and_full():
    values = np.arange(1.0, 65.0)
    assert count_leq(values, threshold=0.0, rng=2).count == 0
    assert count_leq(values, threshold=100.0, rng=3).count == 64


def test_count_estimates_agree_across_nodes():
    values = np.arange(1.0, 129.0)
    result = count_leq(values, threshold=64.0, rng=4)
    rounded = np.rint(result.estimates)
    assert np.all(rounded == 64)


def test_count_leq_gives_the_rank_of_a_minimum():
    # Step 5 of Algorithm 3: the rank of the spread minimum among all values
    values = np.array([5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0])
    result = count_leq(values, threshold=3.0, rng=5)
    assert result.count == 3


def test_counting_under_failures_still_close():
    values = np.arange(1.0, 257.0)
    result = count_leq(values, threshold=128.0, rng=6, env=GossipEnv(failure_model=0.2))
    assert abs(result.count - 128) <= 2


def test_counting_rounds_logarithmic():
    values = np.arange(1.0, 257.0)
    result = count_leq(values, threshold=100.0, rng=7)
    # ceil(2.7 log2 n + 11)
    assert result.rounds == count_rounds(256) == 33
    assert result.exact


@pytest.mark.parametrize("n,mu,rounds", [
    (32, 0.0, 25), (1_000, 0.0, 38), (10_000, 0.0, 47), (1_000_000, 0.0, 65),
    (32, 0.15, 31), (1_000, 0.15, 47), (10_000, 0.15, 58), (1_000_000, 0.15, 80),
])
def test_count_rounds_table(n, mu, rounds):
    assert count_rounds(n, mu) == rounds


def test_count_rounds_rejects_bad_arguments():
    with pytest.raises(ConfigurationError):
        count_rounds(1)
    with pytest.raises(ConfigurationError):
        count_rounds(64, mu=1.0)
    with pytest.raises(ConfigurationError):
        count_rounds(64, mu=-0.1)


def test_count_leq_budget_follows_the_env_mu_bound():
    values = np.arange(1.0, 1001.0)
    faults = FaultInjector(CrashRestart(0.05, downtime=2), rng=0)
    for env in (GossipEnv(failure_model=0.15), GossipEnv(faults=faults)):
        result = count_leq(values, threshold=500.0, rng=8, env=env)
        assert result.rounds == count_rounds(1000, env.mu_bound())
    assert count_leq(values, 500.0, rng=8, rounds=5).rounds == 5


@pytest.mark.parametrize("n,seeds", [(1_000, 200), (10_000, 20)])
@pytest.mark.parametrize("mu", [0.0, 0.15])
def test_count_leq_is_exact_at_its_default_budget(n, seeds, mu):
    env = GossipEnv(failure_model=mu if mu > 0 else None)
    for seed in range(seeds):
        values = RandomSource(seed).random(n)
        threshold = 0.5 if seed % 2 == 0 else 0.05
        assert count_leq(values, threshold, rng=seed, env=env).exact, seed


def test_invalid_inputs():
    with pytest.raises(ConfigurationError):
        count_leq([1.0], threshold=0.5)


def test_nan_is_rejected_and_infinities_count():
    values = np.arange(1.0, 33.0)
    values[4] = np.nan
    with pytest.raises(ConfigurationError, match="NaN"):
        count_leq(values, threshold=10.0, rng=1)
    with pytest.raises(ConfigurationError, match="NaN"):
        count_leq(np.arange(1.0, 33.0), threshold=np.nan, rng=1)
    values[4] = np.inf
    values[5] = -np.inf
    result = count_leq(values, threshold=10.0, rng=1)
    assert result.count == 9  # 1..4, 7..10 and -inf
    assert result.exact
