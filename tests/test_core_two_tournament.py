"""Tests for Algorithm 1 (2-TOURNAMENT)."""

import numpy as np
import pytest

from repro.core.schedules import two_tournament_schedule
from repro.core.two_tournament import band_thresholds, measure_band, run_two_tournament
from repro.datasets.generators import distinct_uniform
from repro.gossip.metrics import NetworkMetrics


def test_band_thresholds_and_measure_band():
    values = np.arange(1.0, 101.0)
    lo, hi = band_thresholds(values, phi=0.5, eps=0.1)
    assert lo == 40.0
    assert hi == 60.0
    low, band, high = measure_band(values, lo, hi)
    assert low == pytest.approx(0.39)
    assert high == pytest.approx(0.40)
    assert band == pytest.approx(0.21)


def test_phase_shifts_band_to_the_median(medium_values):
    """After Phase I the above-band mass sits near T = 1/2 - eps (Lemma 2.5/2.6)."""
    phi, eps = 0.25, 0.1
    result = run_two_tournament(medium_values, phi=phi, eps=eps, track_band=True, rng=1)
    assert result.iterations > 0
    final = result.stats[-1]
    # |H_t|/n should be within eps/2 of T = 1/2 - eps (Lemma 2.6)
    assert abs(final.high_fraction - (0.5 - eps)) < eps
    # the band itself must not shrink below its initial 2*eps mass (Lemma 2.10)
    assert final.band_fraction > 1.5 * eps


def test_band_mass_never_collapses(medium_values):
    phi, eps = 0.7, 0.1
    result = run_two_tournament(medium_values, phi=phi, eps=eps, track_band=True, rng=2)
    for stat in result.stats:
        assert stat.band_fraction > eps


def test_round_accounting_matches_schedule(medium_values):
    phi, eps = 0.25, 0.1
    schedule = two_tournament_schedule(phi, eps)
    metrics = NetworkMetrics(keep_history=False)
    result = run_two_tournament(
        medium_values, phi=phi, eps=eps, schedule=schedule, rng=3, metrics=metrics
    )
    assert result.rounds == schedule.rounds
    assert metrics.rounds == schedule.rounds


def test_values_stay_within_original_support(medium_values):
    result = run_two_tournament(medium_values, phi=0.3, eps=0.1, rng=4)
    assert set(np.unique(result.final_values)).issubset(set(medium_values.tolist()))


def test_empty_schedule_leaves_values_untouched(small_values):
    result = run_two_tournament(small_values, phi=0.5, eps=0.1, rng=5)
    assert result.iterations == 0
    assert np.array_equal(result.final_values, small_values)


def test_trajectory_tracks_schedule(medium_values):
    """Measured heavy-side fractions stay close to the deterministic h_i."""
    phi, eps = 0.2, 0.1
    schedule = two_tournament_schedule(phi, eps)
    result = run_two_tournament(medium_values, phi=phi, eps=eps, schedule=schedule, track_band=True, rng=6)
    for stat in result.stats[:-1]:
        assert abs(stat.high_fraction - stat.predicted) < 0.08


def test_direction_max_for_high_phi(medium_values):
    phi, eps = 0.85, 0.05
    result = run_two_tournament(medium_values, phi=phi, eps=eps, track_band=True, rng=7)
    final = result.stats[-1]
    # for phi > 1/2 the *low* side is driven to T
    assert abs(final.low_fraction - (0.5 - eps)) < eps
