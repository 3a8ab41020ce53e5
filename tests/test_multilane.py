"""Multi-lane tournament fast path: fused sandwich runs, dtypes, accounting.

Covers the PR-5 surface: (n, L) column-stacked value lanes sharing one
partner stream, lane-wise tournament phases, the fused ε/2 sandwich pair of
the exact-quantile driver, two-lane Step-4 extrema spreading, float32 value
lanes, and the per-round message accounting.
"""

import importlib

import numpy as np
import pytest

from repro.core.approx_quantile import approximate_quantile
from repro.core.exact_quantile import exact_quantile, rank_key_dtype
from repro.core.three_tournament import run_three_tournament
from repro.core.tournament import (
    PullWindow,
    TournamentProtocol,
    lane_rows,
    run_windows,
)
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
    assert net.values.shape == (64, 2)
    batch = net.pull(4)
    assert batch.partners.shape == (64, 4)
    assert batch.values.shape == (64, 4, 2)
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
    # a failed node-round reads the puller's own value in both lanes
    pullers = np.nonzero(failed)[0]
    assert np.array_equal(batch.values[failed], values[pullers])
    assert np.array_equal(
        batch.values[batch.ok], values[batch.partners[batch.ok]]
    )


def test_multilane_partner_stream_matches_single_lane():
    """One partner matrix per round, identical to the single-lane stream."""
    single = GossipNetwork(keys(128), rng=11, keep_history=False)
    double = GossipNetwork(
        np.stack([keys(128), keys(128)], axis=1), rng=11, keep_history=False
    )
    assert np.array_equal(single.pull(5).partners, double.pull(5).partners)


# ---- lane-contiguous storage -------------------------------------------------


def _layout_run(values, env=None):
    """Pull batches and both tournament phases from fresh streams."""
    net = GossipNetwork(values, rng=21, keep_history=False, env=env)
    batches = [net.pull(k) for k in (2, 3)]
    source = RandomSource(22)
    lanes = values.shape[1]
    two = run_two_tournament(
        values, phi=list(np.linspace(0.1, 0.9, lanes)), eps=0.1,
        track_band=False, rng=source, env=env,
    )
    three = run_three_tournament(
        two.final_values, eps=0.05, track_band=False, rng=source, env=env
    )
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


def test_lanes_are_stored_as_contiguous_rows():
    values = np.ascontiguousarray(RandomSource(6).random((64, 4)))
    for build in (np.ascontiguousarray, np.asfortranarray):
        rows = lane_rows(build(values), np.dtype(float))
        assert rows.shape == (4, 64) and rows.flags.c_contiguous
        assert np.array_equal(rows, values.T)
    net = GossipNetwork(values, rng=1, keep_history=False)
    assert net.values.shape == (64, 4) and net.values.flags.f_contiguous
    batch = net.pull(3)
    assert batch.values.shape == (64, 3, 4)
    for lane in range(4):
        assert np.array_equal(batch.values[:, :, lane],
                              values[:, lane][batch.partners])
    result = run_three_tournament(values, eps=0.1, track_band=False, rng=1)
    # (n, L) outputs are lane-contiguous views of the protocol's rows
    assert result.final_values.shape == (64, 4)
    assert result.final_values.flags.f_contiguous


def test_protocol_adopts_rows_and_never_writes_them():
    n, lanes = 80, 3
    rows = np.ascontiguousarray(RandomSource(8).random((lanes, n)))
    kept = rows.copy()
    windows = [PullWindow(3, lambda pulls: np.median(pulls.rows(), axis=0)),
               PullWindow(4, lambda pulls: pulls.block().max(axis=2))]
    protocol = TournamentProtocol(rows, windows)
    assert protocol.rows is rows
    final = run_windows(rows, windows, 9)
    # the windows hand back new rows; the adopted array is never written
    assert np.array_equal(rows, kept)
    assert final is not rows and final.shape == (lanes, n)


# ---- dtype threading ---------------------------------------------------------


def test_float32_network_stores_and_pulls_float32():
    net = GossipNetwork(keys(64), rng=7, env=GossipEnv(dtype="float32"))
    assert net.values.dtype == np.dtype(np.float32)
    assert net.pull(2).values.dtype == np.dtype(np.float32)
    result = run_three_tournament(keys(64), eps=0.1, rng=7,
                                  env=GossipEnv(dtype="float32"))
    assert result.final_values.dtype == np.dtype(np.float32)


def test_float32_lanes_follow_the_same_partner_stream():
    a = GossipNetwork(keys(128), rng=9,
                      env=GossipEnv(dtype="float32"), keep_history=False)
    b = GossipNetwork(keys(128), rng=9,
                      env=GossipEnv(dtype="float64"), keep_history=False)
    assert np.array_equal(a.pull(3).partners, b.pull(3).partners)


@pytest.mark.parametrize("engine", ["vectorized", "asyncio"])
def test_exact_quantile_ignores_env_dtype(engine):
    """The driver's keys are ranks in :func:`rank_key_dtype`, whatever the
    env says: float32 and float64 envs give the identical result."""
    values = np.random.default_rng(5).permutation(64).astype(float)

    def run(dtype):
        result = exact_quantile(values, phi=0.3, rng=17,
                                env=GossipEnv(dtype=dtype, engine=engine))
        return (result.value, result.rounds, result.iterations,
                result.history, result.metrics.summary())

    assert run("float32") == run("float64")


def test_rank_key_dtype_is_float32_below_2_pow_24():
    """Every rank 1..n is exact in float32 up to n = 2**24 - 1; at 2**24
    the keys switch to float64.  No gossip runs."""
    assert rank_key_dtype(2 ** 24 - 1) == np.dtype(np.float32)
    assert rank_key_dtype(2 ** 24) == np.dtype(np.float64)
    assert float(np.float32(2 ** 24 - 1)) == 2 ** 24 - 1
    assert float(np.float32(2 ** 24 + 1)) != 2 ** 24 + 1


def test_exact_driver_gossips_float32_keys(monkeypatch):
    """A spy on the sandwich rows and the Step-4 lanes at n = 4096: the
    driver gossips float32 keys under the default float64 env."""
    # the package re-exports the functions under the module names
    approx_module = importlib.import_module("repro.core.approx_quantile")
    exact_module = importlib.import_module("repro.core.exact_quantile")
    row_dtypes, lane_dtypes = [], []
    build_rows = approx_module.lane_rows
    spread = exact_module.spread_extrema

    def spy_rows(values, dtype):
        rows = build_rows(values, dtype)
        row_dtypes.append(rows.dtype)
        return rows

    def spy_spread(values, **kwargs):
        result = spread(values, **kwargs)
        lane_dtypes.append((np.asarray(values).dtype, result.values.dtype))
        return result

    monkeypatch.setattr(approx_module, "lane_rows", spy_rows)
    monkeypatch.setattr(exact_module, "spread_extrema", spy_spread)
    values = np.random.default_rng(5).permutation(4096).astype(float)
    result = exact_quantile(values, phi=0.3, rng=17)
    assert result.value == float(np.sort(values)[1228])
    # one sandwich per pass plus the final query
    assert len(row_dtypes) >= result.iterations + 1
    assert set(row_dtypes) == {np.dtype(np.float32)}
    assert len(lane_dtypes) >= result.iterations
    assert set(lane_dtypes) == {(np.dtype(np.float32), np.dtype(np.float32))}


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
    result = run_two_tournament(
        np.stack([base, base], axis=1), phi=(0.25, 0.75), eps=(0.1, 0.1),
        track_band=False, rng=4,
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
    metrics = NetworkMetrics(keep_history=False)
    result = run_two_tournament(
        np.stack([base, base], axis=1), phi=lane_phis, eps=(0.05, 0.05),
        track_band=False, rng=9, metrics=metrics,
    )
    assert result.iterations == max(lengths)
    assert metrics.rounds == 2 * max(lengths)


def test_track_band_rejected_on_multilane_networks():
    lanes = np.stack([keys(64), keys(64)], axis=1)
    with pytest.raises(ConfigurationError):
        run_two_tournament(lanes, phi=0.5, eps=0.1, track_band=True, rng=1)
    with pytest.raises(ConfigurationError):
        run_three_tournament(lanes, eps=0.1, track_band=True, rng=1)


def test_per_lane_parameter_validation():
    lanes = np.stack([keys(64), keys(64)], axis=1)
    with pytest.raises(ConfigurationError):
        run_two_tournament(lanes, phi=(0.5,), eps=0.1, track_band=False, rng=1)
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
    """Regression for the pre-fusion bug: the exact driver's sandwich pair
    recorded its merged traffic outside any round record, misattributing it
    under keep_history=True.  The fused path records every message in the
    round that carried it, so the per-round history sums to the totals."""
    n = 256
    shared = NetworkMetrics(keep_history=True)
    result = approximate_quantile(
        np.stack([keys(n), keys(n)], axis=1), phi=(0.45, 0.55), eps=0.05,
        rng=6, metrics=shared,
    )
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


# ---- two-lane extrema spreading --------------------------------------------


def test_extrema_pair_matches_two_single_runs():
    from repro.aggregates.extrema import spread_extrema

    values = RandomSource(12).random(400) * 50.0
    lo = spread_extrema(values, mode="min", rng=1)
    hi = spread_extrema(values, mode="max", rng=2)
    pair = spread_extrema(
        np.column_stack([values, values]), mode=("min", "max"), rng=3
    )
    assert pair.converged
    assert pair.values.shape == (400, 2)
    assert float(np.min(pair.values[:, 0])) == float(np.min(lo.values))
    assert float(np.max(pair.values[:, 1])) == float(np.max(hi.values))
    assert np.all(pair.values[:, 0] == values.min())
    assert np.all(pair.values[:, 1] == values.max())
    # one round window instead of two
    assert pair.rounds < lo.rounds + hi.rounds
    # one framing per message, one extra value per extra lane
    assert pair.metrics.max_message_bits == lo.metrics.max_message_bits + 64


def test_extrema_pair_asyncio_and_vectorized_bit_identical():
    from repro.aggregates.extrema import spread_protocol
    from repro.gossip.engine import run_protocol_vectorized
    from repro.net import run_protocol_asyncio

    for mu, seed in ((0.0, 4), (0.3, 5)):
        values = RandomSource(seed).random(97) * 10.0
        lanes = np.column_stack([values, values])
        env = GossipEnv(failure_model=mu if mu > 0 else None)
        reference = run_protocol_asyncio(
            spread_protocol(lanes, mode=("min", "max"), env=env), rng=seed, env=env,
        )
        vec = run_protocol_vectorized(
            spread_protocol(lanes, mode=("min", "max"), env=env), rng=seed, env=env,
        )
        assert reference.outputs == vec.outputs
        assert reference.rounds == vec.rounds
        assert reference.metrics.summary() == vec.metrics.summary()


def test_extrema_pair_validation():
    from repro.aggregates.extrema import spread_extrema

    with pytest.raises(ConfigurationError):
        spread_extrema([[1.0, 2.0]], mode=("min", "max"))
    with pytest.raises(ConfigurationError, match="modes"):
        spread_extrema(np.ones((4, 2)), mode=("min", "max", "max"))
    with pytest.raises(ConfigurationError, match="mode"):
        spread_extrema(np.ones((4, 2)), mode=("min", "median"))
