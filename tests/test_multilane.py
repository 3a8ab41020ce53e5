"""Multi-lane tournament fast path: fused sandwich runs, dtypes, accounting.

Covers the PR-5 surface: (n, L) column-stacked GossipNetworks sharing one
partner stream, lane-wise tournament phases, the fused ε/2 sandwich pair of
the exact-quantile driver, the fused Step-4 extrema pair, float32 value
lanes, and the batched round/message accounting.
"""

import numpy as np
import pytest

from repro.core.approx_quantile import approximate_quantile
from repro.core.exact_quantile import exact_quantile
from repro.core.three_tournament import run_three_tournament
from repro.core.two_tournament import run_two_tournament
from repro.exceptions import ConfigurationError
from repro.gossip.env import GossipEnv
from repro.gossip.metrics import NetworkMetrics
from repro.gossip.network import GossipNetwork
from repro.utils.rand import RandomSource
from repro.utils.stats import rank_error


def keys(n):
    return np.arange(1.0, n + 1.0)


# ---- multi-lane pull surface -------------------------------------------------


def test_multilane_pull_shares_one_partner_matrix():
    values = np.stack([keys(64), keys(64)[::-1].copy()], axis=1)
    net = GossipNetwork(values, rng=3, keep_history=False)
    assert net.lanes == 2
    batch = net.pull(4)
    assert batch.partners.shape == (64, 4)
    assert batch.values.shape == (64, 4, 2)
    assert batch.lanes == 2
    # each lane reads its own column through the same partner matrix
    for lane in range(2):
        expected = values[:, lane][batch.partners]
        assert np.array_equal(batch.values[:, :, lane], expected)


def test_multilane_rounds_counted_once_with_per_lane_payload_bits():
    single = GossipNetwork(keys(64), rng=1, keep_history=True)
    double = GossipNetwork(
        np.stack([keys(64), keys(64)], axis=1), rng=1, keep_history=True
    )
    single.pull(3)
    double.pull(3)
    # one round record per round, not per lane
    assert single.metrics.rounds == double.metrics.rounds == 3
    assert single.metrics.messages == double.metrics.messages == 3 * 64
    # the two-lane message carries one extra 64-bit value
    assert (
        double.metrics.max_message_bits
        == single.metrics.max_message_bits + 64
    )
    assert len(double.metrics.history) == 3
    assert sum(r.messages for r in double.metrics.history) == double.metrics.messages


def test_multilane_failures_apply_to_every_lane():
    values = np.stack([keys(300), keys(300)], axis=1)
    net = GossipNetwork(values, rng=5,
                        env=GossipEnv(failure_model=0.4), keep_history=False)
    batch = net.pull(2)
    failed = ~batch.ok
    assert failed.sum() > 50
    # a failed node-round NaNs both lanes
    assert np.all(np.isnan(batch.values[failed]))
    assert np.all(np.isfinite(batch.values[batch.ok]))


def test_multilane_partner_stream_matches_single_lane():
    """One partner matrix per round, identical to the single-lane stream."""
    single = GossipNetwork(keys(128), rng=11, keep_history=False)
    double = GossipNetwork(
        np.stack([keys(128), keys(128)], axis=1), rng=11, keep_history=False
    )
    assert np.array_equal(single.pull(5).partners, double.pull(5).partners)


def test_multilane_set_values_and_snapshot_shapes():
    values = np.stack([keys(16), keys(16)], axis=1)
    net = GossipNetwork(values, rng=2, keep_history=False)
    snap = net.snapshot()
    assert snap.shape == (16, 2)
    net.set_values(np.zeros((16, 2)))
    assert np.all(net.values == 0.0)
    with pytest.raises(ConfigurationError):
        net.set_values(np.zeros(16))


# ---- lane-contiguous storage -------------------------------------------------


def _layout_run(values, env=None):
    """Pull batches and both tournament phases on a fresh network."""
    net = GossipNetwork(values, rng=21, keep_history=False, env=env)
    batches = [net.pull(k) for k in (2, 3)]
    net = GossipNetwork(values, rng=22, keep_history=False, env=env)
    lanes = net.lanes
    two = run_two_tournament(
        net, phi=list(np.linspace(0.1, 0.9, lanes)), eps=0.1, track_band=False
    )
    three = run_three_tournament(net, eps=0.05, track_band=False)
    return batches, two.final_values, three.final_values


def _assert_same_runs(first, second):
    for a, b in zip(first[0], second[0]):
        assert np.array_equal(a.partners, b.partners)
        assert np.array_equal(a.values, b.values, equal_nan=True)
        assert np.array_equal(a.ok, b.ok)
    assert np.array_equal(first[1], second[1])
    assert np.array_equal(first[2], second[2])


@pytest.mark.parametrize("env", [None, GossipEnv(failure_model=0.2)],
                         ids=["nofail", "fail"])
def test_value_matrix_memory_order_does_not_change_any_draw(env):
    """C-ordered, F-ordered and broadcast inputs give identical runs."""
    n, lanes = 97, 5
    column = RandomSource(4).random(n)
    replicated = np.broadcast_to(column[:, None], (n, lanes))
    runs = [
        _layout_run(build(replicated), env)
        for build in (np.ascontiguousarray, np.asfortranarray, lambda v: v)
    ]
    _assert_same_runs(runs[0], runs[1])
    _assert_same_runs(runs[0], runs[2])

    distinct = RandomSource(5).random((n, lanes))
    _assert_same_runs(
        _layout_run(np.ascontiguousarray(distinct), env),
        _layout_run(np.asfortranarray(distinct), env),
    )


def test_network_stores_each_lane_contiguously():
    net = GossipNetwork(np.ascontiguousarray(RandomSource(6).random((64, 4))),
                        rng=1, keep_history=False)
    assert net.values.shape == (64, 4) and net.values.flags.f_contiguous
    assert net.lane_rows.shape == (4, 64) and net.lane_rows.flags.c_contiguous
    assert net.snapshot().flags.f_contiguous
    assert net.initial_values.flags.f_contiguous
    batch = net.pull(3)
    assert batch.values.shape == (64, 3, 4)
    assert batch.by_lane.shape == (4, 64, 3) and batch.by_lane.flags.c_contiguous
    for lane in range(4):
        assert np.array_equal(batch.by_lane[lane], batch.values[:, :, lane])
    run_three_tournament(net, eps=0.1, track_band=False)
    assert net.values.flags.f_contiguous
    net.reset()
    assert net.values.flags.f_contiguous
    with pytest.raises(ConfigurationError):
        net.set_lane_rows(np.zeros((3, 64)))


def test_set_values_adopts_an_outside_c_ordered_matrix():
    n, lanes = 80, 3
    start = RandomSource(7).random((n, lanes))
    outside = np.ascontiguousarray(RandomSource(8).random((n, lanes)))
    kept = outside.copy()
    adopted = GossipNetwork(start, rng=9, keep_history=False)
    copied = GossipNetwork(start, rng=9, keep_history=False)
    adopted.set_values(outside, copy=False)
    copied.set_values(outside)
    assert adopted.values is outside
    assert copied.values.flags.f_contiguous
    assert np.array_equal(adopted.lane_rows, copied.lane_rows)
    first = adopted.pull(4)
    second = copied.pull(4)
    assert np.array_equal(first.values, second.values)
    assert np.array_equal(
        run_three_tournament(adopted, eps=0.1, track_band=False).final_values,
        run_three_tournament(copied, eps=0.1, track_band=False).final_values,
    )
    # the tournament hands back new rows; the adopted array is never written
    assert np.array_equal(outside, kept)


# ---- dtype threading ---------------------------------------------------------


def test_float32_network_stores_and_pulls_float32():
    net = GossipNetwork(keys(64), rng=7, env=GossipEnv(dtype="float32"))
    assert net.dtype == np.dtype(np.float32)
    assert net.values.dtype == np.dtype(np.float32)
    assert net.pull(2).values.dtype == np.dtype(np.float32)


def test_float32_lanes_follow_the_same_partner_stream():
    a = GossipNetwork(keys(128), rng=9,
                      env=GossipEnv(dtype="float32"), keep_history=False)
    b = GossipNetwork(keys(128), rng=9,
                      env=GossipEnv(dtype="float64"), keep_history=False)
    assert np.array_equal(a.pull(3).partners, b.pull(3).partners)


def test_exact_quantile_float32_matches_float64():
    """Keys are ranks: float32 is exact, the same seed replays the same
    gossip schedule, and both dtypes return the true quantile."""
    values = np.random.default_rng(5).permutation(4096).astype(float)
    r64 = exact_quantile(values, phi=0.3, rng=17)
    r32 = exact_quantile(values, phi=0.3, rng=17,
                         env=GossipEnv(dtype="float32"))
    assert r64.value == r32.value
    assert r64.rounds == r32.rounds
    assert r64.iterations == r32.iterations


def test_exact_quantile_float32_guard_above_2_pow_24():
    """n >= 2**24 float32 keys are rejected up front (ranks would round).

    A zero-stride view fakes the 2**24-entry array without allocating it;
    ``np.asarray`` passes it through untouched, so the guard fires before
    any real work."""
    big = np.lib.stride_tricks.as_strided(
        np.zeros(1), shape=(2 ** 24,), strides=(0,)
    )
    with pytest.raises(ConfigurationError) as excinfo:
        exact_quantile(big, phi=0.5, env=GossipEnv(dtype="float32"))
    assert "float32" in str(excinfo.value)


def test_unsupported_dtype_rejected():
    with pytest.raises(ConfigurationError):
        GossipNetwork(keys(8), env=GossipEnv(dtype=np.int32))
    with pytest.raises(ConfigurationError):
        approximate_quantile(keys(64), phi=0.5, eps=0.1, env=GossipEnv(dtype="float16"))


# ---- lane-wise tournaments ---------------------------------------------------


def test_two_tournament_lanes_match_independent_runs_statistically():
    """Each fused lane shifts its own band; idle lanes keep their values."""
    n = 2048
    rng = RandomSource(3)
    base = rng.random(n) * 100.0
    network = GossipNetwork(
        np.stack([base, base], axis=1), rng=4, keep_history=False
    )
    result = run_two_tournament(
        network, phi=(0.25, 0.75), eps=(0.1, 0.1), track_band=False
    )
    assert result.final_values.shape == (n, 2)
    # lane 0 drives values downward (min direction), lane 1 upward
    assert np.median(result.final_values[:, 0]) < np.median(base)
    assert np.median(result.final_values[:, 1]) > np.median(base)


def test_fused_phase_executes_max_of_lane_schedules():
    from repro.core.schedules import two_tournament_schedule

    n = 512
    base = RandomSource(8).random(n)
    lane_phis = (0.5, 0.9)  # very different schedule lengths
    schedules = [two_tournament_schedule(p, 0.05) for p in lane_phis]
    lengths = [s.num_iterations for s in schedules]
    assert lengths[0] != lengths[1]
    network = GossipNetwork(
        np.stack([base, base], axis=1), rng=9, keep_history=False
    )
    result = run_two_tournament(
        network, phi=lane_phis, eps=(0.05, 0.05), track_band=False
    )
    assert result.iterations == max(lengths)
    assert network.rounds == 2 * max(lengths)


def test_track_band_rejected_on_multilane_networks():
    network = GossipNetwork(
        np.stack([keys(64), keys(64)], axis=1), rng=1, keep_history=False
    )
    with pytest.raises(ConfigurationError):
        run_two_tournament(network, phi=0.5, eps=0.1, track_band=True)
    with pytest.raises(ConfigurationError):
        run_three_tournament(network, eps=0.1, track_band=True)


def test_per_lane_parameter_validation():
    network = GossipNetwork(
        np.stack([keys(64), keys(64)], axis=1), rng=1, keep_history=False
    )
    with pytest.raises(ConfigurationError):
        run_two_tournament(network, phi=(0.5,), eps=0.1, track_band=False)
    with pytest.raises(ConfigurationError):
        approximate_quantile(
            np.stack([keys(64), keys(64)], axis=1),
            phi=(0.1, 0.5, 0.9),
            eps=0.1,
        )


# ---- the fused sandwich pair -------------------------------------------------


def test_fused_pair_rank_errors_match_sequential_distribution():
    """Fused two-lane sandwich vs. the sequential pair: same rank-error
    distribution over seeds, strictly fewer executed rounds."""
    n = 2048
    data = keys(n)
    phi_lo, phi_hi, accuracy = 0.45, 0.55, 0.05
    fused_errors, sequential_errors = [], []
    fused_rounds, sequential_rounds = [], []
    for seed in range(8):
        lo = approximate_quantile(data, phi=phi_lo, eps=accuracy, rng=seed)
        hi = approximate_quantile(data, phi=phi_hi, eps=accuracy, rng=1000 + seed)
        sequential_errors.append(rank_error(data, lo.estimate, phi_lo))
        sequential_errors.append(rank_error(data, hi.estimate, phi_hi))
        sequential_rounds.append(lo.rounds + hi.rounds)

        fused = approximate_quantile(
            np.stack([data, data], axis=1),
            phi=(phi_lo, phi_hi),
            eps=accuracy,
            rng=2000 + seed,
        )
        fused_errors.append(rank_error(data, float(fused.estimate[0]), phi_lo))
        fused_errors.append(rank_error(data, float(fused.estimate[1]), phi_hi))
        fused_rounds.append(fused.rounds)

    # every run (both paths) meets the eps guarantee…
    assert max(fused_errors) <= accuracy
    assert max(sequential_errors) <= accuracy
    # …with comparable mean error (same distribution, not a degradation)
    assert np.mean(fused_errors) <= np.mean(sequential_errors) + accuracy / 2
    # and the fused pair executes strictly fewer rounds (max, not sum)
    assert all(f < s for f, s in zip(fused_rounds, sequential_rounds))
    # both lanes ran the same two-phase structure: rounds = max of the two
    # single-lane runs for identical (phi, eps) schedules
    single = approximate_quantile(data, phi=phi_lo, eps=accuracy, rng=0)
    assert fused_rounds[0] == single.rounds


def test_fused_pair_message_accounting_lands_in_round_records():
    """Regression for the pre-fusion bug: run_approx_pair recorded the
    pair's merged traffic outside any round record, misattributing it
    under keep_history=True.  The fused path records every message in the
    round that carried it, so the per-round history sums to the totals."""
    n = 256
    shared = NetworkMetrics(keep_history=True)
    network = GossipNetwork(
        np.stack([keys(n), keys(n)], axis=1),
        rng=6,
        metrics=shared,
        keep_history=True,
    )
    result = approximate_quantile(network=network, phi=(0.45, 0.55), eps=0.05)
    assert result.rounds == shared.rounds
    assert len(shared.history) == shared.rounds
    assert sum(r.messages for r in shared.history) == shared.messages
    assert sum(r.bits for r in shared.history) == shared.total_bits
    # every round is a tournament/vote round; nothing recorded out of round
    labels = {record.label for record in shared.history}
    assert labels <= {"2-tournament", "3-tournament", "3-tournament-vote"}
    assert all(record.messages > 0 for record in shared.history)


def test_exact_driver_simulated_runs_fused_pair_rounds():
    """The simulated driver executes (not charges) the sandwich pair: its
    per-label round histogram contains no 'approx-pair' charge labels."""
    values = np.random.default_rng(2).permutation(512).astype(float)
    result = exact_quantile(values, phi=0.5, rng=3)
    assert result.value == float(np.sort(values)[255])


# ---- fused extrema pair ------------------------------------------------------


def test_extrema_pair_matches_two_single_runs():
    from repro.aggregates.extrema import spread_extrema, spread_extrema_pair

    values = RandomSource(12).random(400) * 50.0
    lo = spread_extrema(values, mode="min", rng=1)
    hi = spread_extrema(values, mode="max", rng=2)
    pair = spread_extrema_pair(values, values, rng=3)
    assert pair.converged
    assert float(np.min(pair.lo_values)) == float(np.min(lo.values))
    assert float(np.max(pair.hi_values)) == float(np.max(hi.values))
    assert np.all(pair.lo_values == values.min())
    assert np.all(pair.hi_values == values.max())
    # fused: one round window instead of two
    assert pair.rounds < lo.rounds + hi.rounds


def test_extrema_pair_loop_and_vectorized_bit_identical():
    from repro.aggregates.extrema import ExtremaPairProtocol
    from repro.gossip.engine import run_protocol_loop, run_protocol_vectorized

    for mu, seed in ((0.0, 4), (0.3, 5)):
        values = RandomSource(seed).random(97) * 10.0
        failure = mu if mu > 0 else None
        loop = run_protocol_loop(
            ExtremaPairProtocol(values, values), rng=seed,
            env=GossipEnv(failure_model=failure), raise_on_budget=False,
        )
        vec = run_protocol_vectorized(
            ExtremaPairProtocol(values, values), rng=seed,
            env=GossipEnv(failure_model=failure), raise_on_budget=False,
        )
        assert loop.outputs == vec.outputs
        assert loop.rounds == vec.rounds
        assert loop.metrics.summary() == vec.metrics.summary()


def test_extrema_pair_validation():
    from repro.aggregates.extrema import ExtremaPairProtocol

    with pytest.raises(ConfigurationError):
        ExtremaPairProtocol([1.0], [2.0])
    with pytest.raises(ConfigurationError):
        ExtremaPairProtocol([1.0, 2.0], [1.0, 2.0, 3.0])


# ---- batched metrics recording ----------------------------------------------


def test_record_rounds_batch_equals_per_round_recording():
    batched = NetworkMetrics(keep_history=True)
    batched.record_rounds_batch(
        3, label="x", messages=[10, 0, 7], bits_each=80, failures=[1, 2, 0]
    )
    reference = NetworkMetrics(keep_history=True)
    for messages, failed in ((10, 1), (0, 2), (7, 0)):
        record = reference.begin_round(label="x")
        reference.record_failures(failed, record)
        reference.record_messages(messages, 80, record)
    assert batched.summary() == reference.summary()
    assert len(batched.history) == len(reference.history)
    for a, b in zip(batched.history, reference.history):
        assert (a.round_index, a.label, a.messages, a.bits, a.failed_nodes) == (
            b.round_index, b.label, b.messages, b.bits, b.failed_nodes
        )


def test_record_rounds_batch_scalar_and_validation():
    metrics = NetworkMetrics(keep_history=False)
    metrics.record_rounds_batch(4, label="y", messages=5, bits_each=10)
    assert metrics.rounds == 4
    assert metrics.messages == 20
    assert metrics.total_bits == 200
    metrics.record_rounds_batch(0)  # no-op
    assert metrics.rounds == 4
    with pytest.raises(ValueError):
        metrics.record_rounds_batch(-1)
    with pytest.raises(ValueError):
        metrics.record_rounds_batch(2, messages=[1])
    with pytest.raises(ValueError):
        metrics.record_rounds_batch(2, messages=-3)
