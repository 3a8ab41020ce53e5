"""End-to-end integration tests across modules.

These tests exercise the same paths the examples and experiments use:
realistic workloads, composition of the core algorithms with the gossip
substrates, and cross-checks between the new algorithms and the baselines.
"""

import numpy as np
import pytest

from repro import (
    approximate_quantile,
    estimate_all_ranks,
    exact_quantile,
    robust_approximate_quantile,
)
from repro.baselines import (
    compacted_doubling_quantile,
    doubling_quantile,
    kempe_exact_quantile,
    sampling_quantile,
)
from repro.core.all_quantiles import true_self_quantiles
from repro.datasets import make_workload, sensor_temperature_field, zipf_values
from repro.gossip.env import GossipEnv
from repro.utils.stats import empirical_quantile, rank_error


def test_sensor_network_scenario_end_to_end():
    """The paper's motivating use case: flag the hottest 10% of sensors."""
    readings = sensor_temperature_field(2048, hot_spot_fraction=0.05, rng=1)
    hot = approximate_quantile(readings, phi=0.9, eps=0.05, rng=2)
    assert rank_error(readings, hot.estimate, 0.9) <= 0.05
    flagged = readings >= hot.estimates
    # roughly 10% of sensors flag themselves (within the eps tolerance)
    assert 0.04 <= flagged.mean() <= 0.16


def test_all_algorithms_agree_on_the_same_input():
    values = make_workload("gaussian", 1024, rng=3, mean=50.0, std=10.0)
    phi, eps = 0.75, 0.1
    truth = empirical_quantile(values, phi)

    exact = exact_quantile(values, phi=phi, rng=4)
    kempe = kempe_exact_quantile(values, phi=phi, rng=5)
    approx = approximate_quantile(values, phi=phi, eps=eps, rng=6)
    sampled = sampling_quantile(values, phi=phi, eps=eps, rng=7, max_observers=32)
    doubled = doubling_quantile(values, phi=phi, eps=eps, rng=8)
    compacted = compacted_doubling_quantile(values, phi=phi, eps=eps, rng=9)

    assert exact.value == truth
    assert kempe.value == truth
    for estimate in (approx.estimate, sampled.estimate, doubled.estimate, compacted.estimate):
        assert rank_error(values, estimate, phi) <= eps + 0.05


def test_exact_needs_far_fewer_outer_iterations_than_kempe():
    """Shape check behind the Θ(log n) vs Θ(log² n) separation.

    Both algorithms pay Θ(log n) rounds per outer step (approximate
    quantiles / counting), so the separation comes from the number of outer
    steps: the tournament algorithm needs only a handful of
    restrict-and-duplicate iterations while randomized selection needs
    Θ(log n) pivot phases.  Iteration counts are far less noisy than raw
    round counts at simulation scale, so that is what we assert on.
    """
    large = 4096
    values = make_workload("distinct", large, rng=10)
    ours_iterations = np.mean(
        [exact_quantile(values, 0.5, rng=s).iterations for s in (11, 12, 13)]
    )
    kempe_phases = np.mean(
        [kempe_exact_quantile(values, 0.5, rng=s).phases for s in range(20, 26)]
    )
    assert ours_iterations <= 8
    assert kempe_phases >= 1.5 * ours_iterations
    # and the headline: both return the exact answer
    assert exact_quantile(values, 0.5, rng=30).value == empirical_quantile(values, 0.5)


def test_robust_and_plain_agree_without_failures():
    values = make_workload("distinct", 512, rng=13)
    plain = approximate_quantile(values, phi=0.5, eps=0.1, rng=14)
    robust = robust_approximate_quantile(values, phi=0.5, eps=0.1,
                                         env=GossipEnv(failure_model=0.0), rng=14)
    assert rank_error(values, plain.estimate, 0.5) <= 0.1
    assert rank_error(values, robust.estimate, 0.5) <= 0.1


def test_self_rank_composes_with_quantile_queries():
    """Corollary 1.5 output is consistent with direct quantile queries."""
    values = zipf_values(512, exponent=1.8, rng=15)
    ranks = estimate_all_ranks(values, eps=0.1, rng=16)
    truth = true_self_quantiles(values)
    # nodes that believe they are in the top decile mostly are in the top quintile
    claimed_top = ranks.quantile_estimates >= 0.9
    if claimed_top.any():
        assert np.mean(truth[claimed_top] >= 0.8) > 0.8


def test_full_pipeline_under_failures():
    """Exact quantile with every substrate simulated and nodes failing."""
    values = make_workload("distinct", 256, rng=17)
    result = exact_quantile(
        values, phi=0.3, rng=18, env=GossipEnv(failure_model=0.15)
    )
    assert result.value == empirical_quantile(values, 0.3)
    assert result.metrics.failed_node_rounds > 0


def test_metrics_round_totals_are_consistent():
    values = make_workload("distinct", 512, rng=19)
    result = approximate_quantile(values, phi=0.6, eps=0.1, rng=20)
    assert result.rounds == result.metrics.rounds
    assert result.metrics.messages > 0
    assert result.metrics.max_message_bits <= 200  # O(log n)-bit messages only
