"""Tests for Algorithm 2 (3-TOURNAMENT)."""

import numpy as np
import pytest

from repro.core.schedules import three_tournament_schedule
from repro.core.three_tournament import (
    DEFAULT_FINAL_SAMPLES,
    median_band_thresholds,
    run_three_tournament,
)
from repro.exceptions import ConfigurationError
from repro.gossip.metrics import NetworkMetrics
from repro.utils.stats import rank_error


def test_median_band_thresholds():
    values = np.arange(1.0, 101.0)
    lo, hi = median_band_thresholds(values, eps=0.1)
    assert lo == 40.0
    assert hi == 60.0


def test_outputs_are_near_median(medium_values):
    eps = 0.1
    result = run_three_tournament(medium_values, eps=eps, rng=1)
    # every node's output is an eps-approximate median of the *input* values
    errors = [rank_error(medium_values, float(v), 0.5) for v in result.final_values]
    assert np.mean(errors) < eps
    assert np.quantile(errors, 0.95) <= eps + 0.02


def test_out_of_band_mass_shrinks(medium_values):
    eps = 0.1
    result = run_three_tournament(medium_values, eps=eps, track_band=True, rng=2)
    first = result.stats[0]
    last = result.stats[-1]
    assert last.high_fraction < first.high_fraction
    assert last.low_fraction < first.low_fraction
    # After the last iteration the out-of-band mass is below ~2T = 2 n^{-1/3}
    # (Lemma 2.16); allow a small additive slack at this network size.
    threshold = 2.0 * medium_values.size ** (-1.0 / 3.0) + 0.02
    assert last.high_fraction < threshold
    assert last.low_fraction < threshold


def test_round_accounting_includes_final_vote(medium_values):
    eps = 0.1
    schedule = three_tournament_schedule(eps, medium_values.size)
    metrics = NetworkMetrics(keep_history=False)
    result = run_three_tournament(
        medium_values, eps=eps, schedule=schedule, final_samples=7, rng=3,
        metrics=metrics,
    )
    assert result.rounds == schedule.rounds + 7
    assert metrics.rounds == result.rounds


def test_final_samples_validation(small_values):
    for bad in (4, 0, 7.5, True):
        with pytest.raises(ConfigurationError):
            run_three_tournament(small_values, eps=0.1, final_samples=bad, rng=4)


def test_default_final_samples_is_odd():
    assert DEFAULT_FINAL_SAMPLES % 2 == 1


def test_outputs_come_from_original_values(medium_values):
    result = run_three_tournament(medium_values, eps=0.15, rng=5)
    assert set(np.unique(result.final_values)).issubset(set(medium_values.tolist()))


def test_schedule_length_matches(medium_values):
    eps = 0.05
    schedule = three_tournament_schedule(eps, medium_values.size)
    result = run_three_tournament(medium_values, eps=eps, schedule=schedule, rng=6)
    assert result.iterations == schedule.num_iterations
