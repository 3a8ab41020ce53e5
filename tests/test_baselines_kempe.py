"""Tests for the Kempe et al. exact-quantile baseline."""

import math

import numpy as np
import pytest

from repro.aggregates.counting import count_leq
from repro.baselines import kempe_quantile
from repro.baselines.kempe_quantile import kempe_exact_quantile
from repro.datasets.generators import distinct_uniform
from repro.exceptions import ConfigurationError
from repro.utils.stats import empirical_quantile


def test_returns_exact_quantile(medium_values):
    for seed, phi in enumerate((0.1, 0.5, 0.9)):
        result = kempe_exact_quantile(medium_values, phi=phi, rng=seed)
        assert result.value == empirical_quantile(medium_values, phi)


def test_simulated_fidelity_also_exact(small_values):
    result = kempe_exact_quantile(small_values, phi=0.5, rng=1)
    assert result.value == empirical_quantile(small_values, 0.5)


def test_phases_logarithmic_in_n():
    values = distinct_uniform(4096, rng=2)
    result = kempe_exact_quantile(values, phi=0.5, rng=3)
    # randomized selection halves the candidates per phase in expectation
    assert result.phases <= 6 * math.log2(4096)
    assert result.phases >= 3


def test_rounds_scale_like_log_squared():
    small_n, large_n = 256, 4096
    small = kempe_exact_quantile(distinct_uniform(small_n, rng=4), phi=0.5, rng=5)
    large = kempe_exact_quantile(distinct_uniform(large_n, rng=4), phi=0.5, rng=5)
    # normalised by log^2 n the cost should stay within a small constant band
    ratio_small = small.rounds / math.log2(small_n) ** 2
    ratio_large = large.rounds / math.log2(large_n) ** 2
    assert 0.2 < ratio_large / ratio_small < 5.0
    assert large.rounds > small.rounds


def test_candidates_shrink_monotonically(medium_values):
    result = kempe_exact_quantile(medium_values, phi=0.3, rng=6)
    sizes = [phase.candidates_after for phase in result.history]
    assert all(b <= a for a, b in zip(sizes, sizes[1:])) or sizes[-1] <= sizes[0]


def test_extreme_phis(small_values):
    assert kempe_exact_quantile(small_values, phi=0.0, rng=7).value == small_values.min()
    assert kempe_exact_quantile(small_values, phi=1.0, rng=8).value == small_values.max()


def test_counts_at_the_default_budget_need_no_fallback(medium_values):
    result = kempe_exact_quantile(medium_values, phi=0.5, rng=9)
    assert result.count_misses == 0


def test_count_misses_reports_each_true_rank_fallback(monkeypatch, medium_values):
    # Two push-sum rounds cannot count exactly, so phases fall back to the
    # true rank; each fallback is one count whose rounded count is wrong.
    wrong = []

    def short_count(values, threshold, **kwargs):
        result = count_leq(values, threshold, rounds=2, **kwargs)
        wrong.append(result.count != int(np.count_nonzero(values <= threshold)))
        return result

    monkeypatch.setattr(kempe_quantile, "count_leq", short_count)
    result = kempe_exact_quantile(medium_values, phi=0.5, rng=9)
    assert result.count_misses == sum(wrong) > 0
    assert result.value == empirical_quantile(medium_values, 0.5)


def test_validation():
    with pytest.raises(ConfigurationError):
        kempe_exact_quantile([1.0], phi=0.5)
    with pytest.raises(ConfigurationError):
        kempe_exact_quantile([1.0, 2.0], phi=1.5)
