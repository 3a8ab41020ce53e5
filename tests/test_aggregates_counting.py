"""Tests for gossip counting / rank computation."""

import numpy as np
import pytest

from repro.aggregates.counting import count_leq
from repro.exceptions import ConfigurationError
from repro.gossip.env import GossipEnv


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
    assert result.rounds < 120  # O(log n) with moderate constants


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
