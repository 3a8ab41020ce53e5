"""Tests for Corollary 1.5 (every node estimates its own quantile)."""

import numpy as np
import pytest

from repro.core.all_quantiles import (
    DEFAULT_MAX_LANES,
    estimate_all_ranks,
    rank_grid,
    true_self_quantiles,
)
from repro.datasets.generators import distinct_uniform, zipf_values
from repro.exceptions import ConfigurationError
from repro.gossip.env import GossipEnv
from repro.gossip.metrics import NetworkMetrics
from repro.topology import ChurnProcess, ring
from repro.utils.rand import RandomSource


def test_true_self_quantiles_is_rank_over_n():
    values = np.array([30.0, 10.0, 20.0, 40.0])
    truth = true_self_quantiles(values)
    assert np.allclose(truth, [0.75, 0.25, 0.5, 1.0])


def test_true_self_quantiles_gives_ties_the_midrank():
    # group of three 2.0s spans sorted ranks 2..4 -> midrank 3
    values = np.array([1.0, 2.0, 2.0, 2.0, 5.0])
    truth = true_self_quantiles(values)
    assert np.allclose(truth, [0.2, 0.6, 0.6, 0.6, 1.0])
    # equal values get equal quantiles, matching what gossip can observe
    assert truth[1] == truth[2] == truth[3]


def test_midrank_ties_do_not_inflate_duplicate_heavy_error():
    """Regression: index-ordered tie ranks charged tied nodes up to the full
    tie width as phantom error; midrank truth charges at most half of it."""
    tie_value = 200.5
    values = np.concatenate(
        [
            np.arange(1.0, 201.0),
            np.full(112, tie_value),
            np.arange(300.0, 500.0),
        ]
    )
    values = values[RandomSource(20).permutation(values.size)]
    result = estimate_all_ranks(values, eps=0.1, rng=22)

    # the pre-PR-6 ground truth: stable argsort, distinct index-ordered ranks
    order = np.argsort(values, kind="stable")
    index_ranks = np.empty(values.size)
    index_ranks[order] = np.arange(1, values.size + 1)
    index_truth = index_ranks / values.size

    group = values == tie_value
    err_midrank = np.abs(result.quantile_estimates - true_self_quantiles(values))
    err_indexed = np.abs(result.quantile_estimates - index_truth)
    # index-order truth spreads the 112-wide tie across ~0.22 of quantile
    # space, so some tied node is always charged far beyond the corollary's
    # bound; midrank truth keeps every tied node inside it
    assert float(err_indexed[group].max()) > float(err_midrank[group].max())
    assert float(err_midrank.max()) <= 0.2


def test_self_rank_errors_are_bounded(medium_values):
    eps = 0.1
    result = estimate_all_ranks(medium_values, eps=eps, rng=1)
    truth = true_self_quantiles(medium_values)
    errors = np.abs(result.quantile_estimates - truth)
    # Corollary 1.5: error O(eps); allow the grid-plus-query slack of 2 eps
    assert float(np.mean(errors <= 2 * eps)) > 0.95
    assert float(np.mean(errors)) < eps


def test_grid_size_scales_with_one_over_eps(small_values):
    coarse = estimate_all_ranks(small_values, eps=0.25, rng=2)
    fine = estimate_all_ranks(small_values, eps=0.1, rng=3)
    assert fine.grid.size > coarse.grid.size
    assert fine.rounds > coarse.rounds


def test_rounds_match_metrics(small_values):
    result = estimate_all_ranks(small_values, eps=0.2, rng=4)
    assert result.rounds == result.metrics.rounds
    assert result.grid_values.shape == (result.grid.size, small_values.size)


def test_estimates_are_valid_quantiles(small_values):
    result = estimate_all_ranks(small_values, eps=0.2, rng=5)
    assert np.all(result.quantile_estimates >= 0.0)
    assert np.all(result.quantile_estimates <= 1.0)


def test_monotone_in_value(small_values):
    """Nodes with larger values should not get systematically smaller ranks."""
    result = estimate_all_ranks(small_values, eps=0.1, rng=6)
    order = np.argsort(small_values)
    estimates_sorted = result.quantile_estimates[order]
    # allow local noise but require global monotone trend: compare first and
    # last quartiles of the sorted estimates
    q = small_values.size // 4
    assert estimates_sorted[:q].mean() < estimates_sorted[-q:].mean()


def test_works_on_skewed_data():
    values = zipf_values(512, exponent=1.7, rng=7)
    result = estimate_all_ranks(values, eps=0.1, rng=8)
    truth = true_self_quantiles(values)
    errors = np.abs(result.quantile_estimates - truth)
    assert float(np.mean(errors <= 0.2)) > 0.9


# ---- fused execution --------------------------------------------------------


def test_fused_is_the_default_and_runs_one_chunk(small_values):
    result = estimate_all_ranks(small_values, eps=0.1, rng=9)
    assert result.grid.size == 9
    assert result.chunks == 1
    assert result.round_windows == [(0, result.rounds)]


def test_fused_round_count_is_far_below_sequential(small_values):
    fused = estimate_all_ranks(small_values, eps=0.1, rng=10)
    sequential = estimate_all_ranks(small_values, eps=0.1, rng=10, max_lanes=1)
    assert sequential.chunks == sequential.grid.size
    assert fused.rounds < sequential.rounds
    # max-of-lanes: the single fused chunk cannot exceed the largest
    # individual query window of the sequential reference
    longest = max(stop - start for start, stop in sequential.round_windows)
    assert fused.rounds <= longest


def test_lane_chunking_respects_max_lanes(small_values):
    result = estimate_all_ranks(small_values, eps=0.1, rng=11, max_lanes=4)
    assert result.grid.size == 9
    assert result.chunks == 3  # 4 + 4 + 1 lanes
    # windows tile this computation's rounds contiguously
    assert result.round_windows[0][0] == 0
    for (_, stop), (start, _) in zip(
        result.round_windows, result.round_windows[1:]
    ):
        assert stop == start
    assert result.round_windows[-1][1] == result.rounds
    # estimates stay within the corollary's bound under chunking
    errors = np.abs(
        result.quantile_estimates - true_self_quantiles(small_values)
    )
    assert float(np.mean(errors <= 0.2)) > 0.95


def test_fused_supports_failure_model(small_values):
    result = estimate_all_ranks(
        small_values, eps=0.2, rng=13, env=GossipEnv(failure_model=0.2)
    )
    truth = true_self_quantiles(small_values)
    errors = np.abs(result.quantile_estimates - truth)
    assert float(np.mean(errors <= 0.4)) > 0.9
    assert result.metrics.failed_node_rounds > 0


# ---- parameter threading ----------------------------------------------------


def test_topology_is_threaded_through_both_paths(small_values):
    topology = ring(small_values.size, k=8)
    truth = true_self_quantiles(small_values)
    for max_lanes in (32, 1):
        result = estimate_all_ranks(
            small_values, eps=0.2, rng=14, env=GossipEnv(topology=topology),
            max_lanes=max_lanes,
        )
        errors = np.abs(result.quantile_estimates - truth)
        # a fat ring mixes slower than the complete graph but the grid
        # bracket still lands most nodes near their rank
        assert float(np.mean(errors <= 0.4)) > 0.8


def test_topology_size_mismatch_is_rejected(small_values):
    with pytest.raises(ConfigurationError):
        estimate_all_ranks(
            small_values, eps=0.2, rng=15, env=GossipEnv(topology=ring(64, k=2))
        )


def test_dtype_is_threaded(small_values):
    result = estimate_all_ranks(
        small_values, eps=0.2, rng=16, env=GossipEnv(dtype="float32")
    )
    assert result.grid_values.dtype == np.float32
    truth = true_self_quantiles(small_values)
    errors = np.abs(result.quantile_estimates - truth)
    assert float(np.mean(errors <= 0.4)) > 0.9


def test_unsupported_dtype_is_rejected(small_values):
    with pytest.raises(ConfigurationError):
        estimate_all_ranks(small_values, eps=0.2, rng=17, env=GossipEnv(dtype="int32"))


def test_unknown_engine_is_rejected_at_env_construction():
    with pytest.raises(ConfigurationError, match="unknown engine"):
        GossipEnv(engine="turbo")


@pytest.mark.parametrize("churn_rate", [0.01, 0.05])
def test_churn_pass_answers_on_one_schedule(churn_rate):
    n, eps = 2000, 0.1
    values = distinct_uniform(n, rng=7)
    ordered = np.sort(values)
    for seed in range(5):
        process = ChurnProcess(n, churn_rate=churn_rate, rng=seed)
        result = estimate_all_ranks(values, eps=eps, rng=seed,
                                    env=GossipEnv(topology_process=process))
        # one process round per metrics round: the pass met one schedule
        assert len(process.active_history) == result.rounds
        # each grid target's median estimate over the nodes sits within eps
        median = np.median(result.grid_values, axis=1)
        ranks = np.searchsorted(ordered, median, side="right") / n
        assert float(np.abs(ranks - result.grid).max()) <= eps


def test_grid_chunks_continue_one_churn_schedule(small_values):
    process = ChurnProcess(small_values.size, churn_rate=0.05, rng=0)
    result = estimate_all_ranks(small_values, eps=0.1, rng=18, max_lanes=3,
                                env=GossipEnv(topology_process=process))
    assert result.chunks == 3
    # a chunk that restarted the process would leave only its own rounds
    assert len(process.active_history) == result.rounds


def test_invalid_peer_sampling_is_rejected(small_values):
    with pytest.raises(ConfigurationError):
        estimate_all_ranks(
            small_values, eps=0.2, rng=19,
            env=GossipEnv(topology=ring(small_values.size, k=4),
                          peer_sampling="psychic"),
        )


# ---- metrics / history attribution ------------------------------------------


def test_keep_history_records_every_round(small_values):
    result = estimate_all_ranks(
        small_values, eps=0.25, rng=20, keep_history=True
    )
    assert result.metrics.keep_history
    assert len(result.metrics.history) == result.rounds
    labels = {record.label for record in result.metrics.history}
    assert labels <= {"2-tournament", "3-tournament", "3-tournament-vote"}
    # every round lands inside exactly one attributed window
    for record in result.metrics.history:
        homes = [
            (start, stop)
            for start, stop in result.round_windows
            if start <= record.round_index < stop
        ]
        assert len(homes) == 1


def test_default_still_skips_history(small_values):
    result = estimate_all_ranks(small_values, eps=0.25, rng=21)
    assert not result.metrics.keep_history
    assert result.metrics.history == []


def test_caller_supplied_metrics_accumulate(small_values):
    metrics = NetworkMetrics(keep_history=True)
    metrics.charge_rounds(7, label="pre-existing")
    result = estimate_all_ranks(
        small_values, eps=0.25, rng=22, metrics=metrics
    )
    assert result.metrics is metrics
    # rounds reports only this computation; windows are absolute
    assert metrics.rounds == 7 + result.rounds
    assert result.round_windows[0][0] == 7
    assert result.round_windows[-1][1] == metrics.rounds
    assert len(metrics.history) == metrics.rounds


def test_sequential_windows_attribute_each_grid_query(small_values):
    result = estimate_all_ranks(
        small_values, eps=0.2, rng=23, max_lanes=1, keep_history=True
    )
    assert len(result.round_windows) == result.grid.size
    assert sum(stop - start for start, stop in result.round_windows) == (
        result.rounds
    )


# ---- validation -------------------------------------------------------------


def test_validation_errors(small_values):
    with pytest.raises(ConfigurationError):
        estimate_all_ranks(small_values, eps=0.0)
    with pytest.raises(ConfigurationError):
        estimate_all_ranks(small_values, eps=0.6)
    with pytest.raises(ConfigurationError):
        estimate_all_ranks([1.0, 2.0], eps=0.1)
    with pytest.raises(ConfigurationError):
        estimate_all_ranks(small_values, eps=0.1, query_accuracy=0.0)
    with pytest.raises(ConfigurationError):
        estimate_all_ranks(small_values, eps=0.1, max_lanes=0)
    with pytest.raises(ConfigurationError):
        true_self_quantiles([])


def test_rank_grid_shape():
    assert np.allclose(rank_grid(0.25), [0.25, 0.5, 0.75])
    assert rank_grid(0.05).size == 19
    assert np.all(rank_grid(0.3) < 1.0)
