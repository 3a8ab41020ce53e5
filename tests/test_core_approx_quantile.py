"""Tests for the ε-approximate φ-quantile algorithm (Theorem 1.2 / 2.1)."""

import numpy as np
import pytest

from repro.core.approx_quantile import approximate_quantile, min_supported_eps
from repro.datasets.generators import distinct_uniform, zipf_values
from repro.exceptions import ConfigurationError
from repro.faults import Burst, CrashRestart, FaultInjector, MessageDrop
from repro.gossip.env import GossipEnv
from repro.utils.stats import fraction_within_eps, rank_error


def test_estimate_within_eps_across_phis(medium_values):
    eps = 0.1
    for seed, phi in enumerate((0.1, 0.25, 0.5, 0.75, 0.9)):
        result = approximate_quantile(medium_values, phi=phi, eps=eps, rng=seed)
        assert rank_error(medium_values, result.estimate, phi) <= eps, phi


def test_most_nodes_agree_within_eps(medium_values):
    phi, eps = 0.3, 0.1
    result = approximate_quantile(medium_values, phi=phi, eps=eps, rng=3)
    assert fraction_within_eps(medium_values, result.estimates, phi, eps) > 0.9


def test_rounds_scale_with_log_one_over_eps(medium_values):
    coarse = approximate_quantile(medium_values, phi=0.5, eps=0.2, rng=1)
    fine = approximate_quantile(medium_values, phi=0.5, eps=0.05, rng=1)
    assert fine.rounds > coarse.rounds
    assert fine.rounds < 4 * coarse.rounds  # only logarithmically more


def test_rounds_nearly_flat_in_n():
    """Doubling n several times barely changes the round count (log log n)."""
    eps = 0.1
    small = approximate_quantile(distinct_uniform(512, rng=1), phi=0.5, eps=eps, rng=2)
    large = approximate_quantile(distinct_uniform(8192, rng=1), phi=0.5, eps=eps, rng=2)
    assert large.rounds - small.rounds <= 10


def test_extreme_phi_values(medium_values):
    eps = 0.1
    low = approximate_quantile(medium_values, phi=0.0, eps=eps, rng=4)
    high = approximate_quantile(medium_values, phi=1.0, eps=eps, rng=5)
    assert rank_error(medium_values, low.estimate, 0.0) <= eps
    assert rank_error(medium_values, high.estimate, 1.0) <= eps


def test_works_on_skewed_distributions():
    values = zipf_values(2048, exponent=1.6, rng=9)
    result = approximate_quantile(values, phi=0.9, eps=0.05, rng=10)
    assert rank_error(values, result.estimate, 0.9) <= 0.05


def test_result_metadata(medium_values):
    result = approximate_quantile(medium_values, phi=0.4, eps=0.1, rng=6)
    assert result.n == medium_values.size
    assert result.phi == 0.4
    assert result.eps == 0.1
    assert result.estimates.shape == (medium_values.size,)
    assert result.rounds == result.metrics.rounds
    assert result.phase1 is not None and result.phase2 is not None
    summary = result.summary()
    assert summary["rounds"] == result.rounds


def test_track_bands_collects_stats(medium_values):
    result = approximate_quantile(
        medium_values, phi=0.25, eps=0.1, rng=7, track_bands=True
    )
    assert len(result.phase1.stats) == result.phase1.iterations
    assert len(result.phase2.stats) == result.phase2.iterations


def test_shared_metrics(medium_values):
    from repro.gossip.metrics import NetworkMetrics

    shared = NetworkMetrics(keep_history=False)
    shared.charge_rounds(5)
    result = approximate_quantile(medium_values, phi=0.5, eps=0.1, rng=8,
                                  metrics=shared)
    assert result.metrics is shared
    assert shared.rounds == result.rounds + 5


def test_validation_errors(medium_values):
    with pytest.raises(ConfigurationError):
        approximate_quantile(medium_values, phi=1.2, eps=0.1)
    with pytest.raises(ConfigurationError):
        approximate_quantile(medium_values, phi=0.5, eps=0.0)
    with pytest.raises(ConfigurationError):
        approximate_quantile(medium_values, phi=0.5, eps=0.7)
    with pytest.raises(TypeError):
        approximate_quantile()  # values are required


def test_min_supported_eps_decreases_with_n():
    assert min_supported_eps(10**6) < min_supported_eps(10**3)
    with pytest.raises(ConfigurationError):
        min_supported_eps(1)


def test_deterministic_given_seed(medium_values):
    a = approximate_quantile(medium_values, phi=0.6, eps=0.1, rng=42)
    b = approximate_quantile(medium_values, phi=0.6, eps=0.1, rng=42)
    assert a.estimate == b.estimate
    assert np.array_equal(a.estimates, b.estimates)


def _failed_per_round(values, faults):
    result = approximate_quantile(values, 0.3, 0.1, rng=4, keep_history=True,
                                  env=GossipEnv(faults=faults))
    return [record.failed_nodes for record in result.metrics.history]


def test_both_phases_run_on_one_round_clock(medium_values):
    """Phase II continues Phase I's round clock: a burst that starts after
    Phase I's last round hits Phase II's first rounds, and a crash
    downtime that spans the phase boundary carries over."""
    n = medium_values.size
    phase1 = approximate_quantile(medium_values, 0.3, 0.1, rng=4).phase1.rounds
    failed = _failed_per_round(
        medium_values, FaultInjector(Burst(MessageDrop(1.0), phase1, phase1 + 2), rng=1)
    )
    assert [round_ for round_, count in enumerate(failed) if count] == [phase1, phase1 + 1]
    assert failed[phase1] == failed[phase1 + 1] == n
    crash = Burst(CrashRestart(1.0, downtime=3, reset_values=False), phase1 - 1, phase1)
    failed = _failed_per_round(medium_values, FaultInjector(crash, rng=1))
    assert [round_ for round_, count in enumerate(failed) if count] == [
        phase1 - 1, phase1, phase1 + 1
    ]
