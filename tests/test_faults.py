"""Fault-injection subsystem: specs, schedules, injector, pull-window overlay."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.faults import (
    FAULT_KINDS,
    Burst,
    CrashRestart,
    FaultInjector,
    MessageDelay,
    MessageDrop,
    MessageDuplication,
    Ramp,
    TargetedByDegree,
    ValueCorruption,
)
from repro.core.exact_quantile import exact_quantile
from repro.core.tournament import PullWindow, lane_rows, run_windows
from repro.datasets.generators import distinct_uniform
from repro.gossip.env import GossipEnv
from repro.gossip.metrics import NetworkMetrics
from repro.utils.rand import RandomSource


def _values(n=64, seed=5):
    return RandomSource(seed).random(n) * 100.0


# ---------------------------------------------------------------- specs


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        MessageDrop(1.5)
    with pytest.raises(ConfigurationError):
        MessageDrop(-0.1)
    with pytest.raises(ConfigurationError):
        MessageDelay(0.1, max_delay=0)
    with pytest.raises(ConfigurationError):
        CrashRestart(0.1, downtime=0)
    with pytest.raises(ConfigurationError):
        ValueCorruption(0.1, magnitude=0.0)
    with pytest.raises(ConfigurationError):
        FaultInjector([])
    with pytest.raises(ConfigurationError):
        FaultInjector(["not-a-spec"])


def test_same_kind_specs_compose_by_union():
    injector = FaultInjector([MessageDrop(0.5), MessageDrop(0.5)], rng=0)
    probs = injector._kind_probabilities("drop", 0, 4)
    assert np.allclose(probs, 0.75)


def test_mu_bound_unions_crash_and_drop_only():
    injector = FaultInjector(
        [MessageDrop(0.2), CrashRestart(0.1), ValueCorruption(0.9)], rng=0
    )
    # CrashRestart's default downtime is 4 rounds
    assert injector.mu_bound() == pytest.approx(1.0 - 0.8 * 0.9**4)
    assert FaultInjector(MessageDrop(1.0), rng=0).mu_bound() == 0.999


@pytest.mark.parametrize("specs", [
    [CrashRestart(0.1, downtime=4)],
    [CrashRestart(0.05, downtime=2), MessageDrop(0.1)],
    [CrashRestart(0.02, downtime=10)],
], ids=["crash", "crash_drop", "long_downtime"])
def test_mu_bound_covers_nodes_down_from_earlier_crashes(specs):
    """A crashed node stays down for its downtime, so far more nodes are
    down in a round than crash in it; the bound must cover them."""
    injector = FaultInjector(specs, rng=3)
    suppressed = [injector.draw(r, 2000).suppressed.mean() for r in range(400)]
    assert injector.mu_bound() >= float(np.mean(suppressed))


def test_mu_bound_of_a_one_round_crash_is_its_rate():
    assert FaultInjector(CrashRestart(0.1, downtime=1), rng=0).mu_bound() == (
        pytest.approx(0.1)
    )


def test_mu_bound_grows_with_crash_downtime():
    bounds = [
        FaultInjector(CrashRestart(0.1, downtime=d), rng=0).mu_bound()
        for d in range(1, 9)
    ]
    assert bounds == pytest.approx([1.0 - 0.9**d for d in range(1, 9)])
    assert np.all(np.diff(bounds) > 0)


def test_mu_bound_stays_below_one_under_long_downtime():
    """A long downtime drives the union towards 1; the bound is capped
    just below it, as for a certain drop."""
    injector = FaultInjector(CrashRestart(0.5, downtime=20), rng=0)
    assert injector.mu_bound() == 0.999


def test_mu_bound_ignores_faults_that_suppress_no_act():
    injector = FaultInjector(
        [MessageDelay(0.5), MessageDuplication(0.5), ValueCorruption(0.5)],
        rng=0,
    )
    assert injector.mu_bound() == 0.0


def test_mu_bound_bounds_a_scheduled_crash_at_full_intensity():
    injector = FaultInjector(Burst(CrashRestart(0.1, downtime=3), 0, 5), rng=0)
    assert injector.mu_bound() == pytest.approx(1.0 - 0.9**3)



def test_each_crash_spec_keeps_its_own_downtime():
    """A frequent one-round crash beside a rare long one.  Every fresh
    crash used to take the largest downtime of all specs, which kept
    0.843 of the nodes down per round at this seed; with each crash
    carrying its own spec's downtime about 0.14 are, under the per-spec
    bound 1 - 0.9 * 0.999**50."""
    injector = FaultInjector(
        [CrashRestart(0.1, downtime=1), CrashRestart(0.001, downtime=50)], rng=3
    )
    down = float(np.mean([injector.draw(r, 2000).crashed.mean() for r in range(400)]))
    assert down == pytest.approx(0.13643375, abs=1e-9)
    assert injector.mu_bound() == pytest.approx(1.0 - 0.9 * 0.999**50)
    assert injector.mu_bound() == pytest.approx(0.1439, abs=1e-4)
    assert down <= injector.mu_bound()


def test_a_crash_takes_the_downtime_of_the_first_spec_covering_its_draw():
    """Both specs fire at round 0; the crash belongs to the first one, so
    every node is down for 2 rounds, not 5."""
    injector = FaultInjector(
        [
            Burst(CrashRestart(1.0, downtime=2), 0, 1),
            Burst(CrashRestart(1.0, downtime=5), 0, 1),
        ],
        rng=3,
    )
    faults = [injector.draw(r, 8) for r in range(4)]
    assert faults[0].crashed.all() and faults[1].crashed.all()
    assert faults[2].restarted.all() and not faults[2].crashed.any()
    assert not faults[3].crashed.any()


# ------------------------------------------------------------ schedules


def test_burst_fires_only_inside_window():
    injector = FaultInjector(Burst(MessageDrop(1.0), 2, 4), rng=1)
    per_round = [int(injector.draw(r, 16).dropped.sum()) for r in range(6)]
    assert per_round[:2] == [0, 0]
    assert per_round[2:4] == [16, 16]
    assert per_round[4:] == [0, 0]


def test_burst_validates_window():
    with pytest.raises(ConfigurationError):
        Burst(MessageDrop(0.5), 4, 4)


def test_ramp_scales_linearly_to_full_intensity():
    ramp = Ramp(MessageDrop(0.8), rounds=4)
    assert np.allclose(ramp.probabilities(0, 3), 0.2)
    assert np.allclose(ramp.probabilities(1, 3), 0.4)
    assert np.allclose(ramp.probabilities(3, 3), 0.8)
    assert np.allclose(ramp.probabilities(100, 3), 0.8)


def test_targeted_by_degree_weights_hubs():
    degrees = np.array([1.0, 2.0, 4.0])
    spec = TargetedByDegree(MessageDrop(0.8), degrees)
    assert np.allclose(spec.probabilities(0, 3), [0.2, 0.4, 0.8])
    inverse = TargetedByDegree(MessageDrop(0.8), degrees, mode="inverse-degree")
    assert np.allclose(inverse.probabilities(0, 3), [0.8, 0.4, 0.2])
    with pytest.raises(ConfigurationError):
        TargetedByDegree(MessageDrop(0.5), degrees, mode="bogus")
    with pytest.raises(ConfigurationError):
        spec.probabilities(0, 5)


def test_schedules_forward_wrapped_attributes():
    burst = Burst(MessageDelay(0.3, max_delay=7), 0, 10)
    assert burst.max_delay == 7
    injector = FaultInjector(burst, rng=0)
    assert injector.max_delay == 7
    assert FaultInjector(
        Ramp(CrashRestart(0.1, reset_values=True), 5), rng=0
    ).reset_on_restart


# ------------------------------------------------------------- injector


def test_draw_replays_bit_for_bit_after_begin():
    specs = [MessageDrop(0.3), MessageDelay(0.2), ValueCorruption(0.4)]
    injector = FaultInjector(specs, rng=42)
    first = [injector.draw(r, 32) for r in range(5)]
    injector.begin()
    second = [injector.draw(r, 32) for r in range(5)]
    for a, b in zip(first, second):
        assert np.array_equal(a.dropped, b.dropped)
        assert np.array_equal(a.delay, b.delay)
        assert np.array_equal(a.corruption, b.corruption)


def test_draws_continue_the_stream_until_begin_replays_it():
    injector = FaultInjector(MessageDrop(0.5), rng=7)
    first = [injector.draw(r, 32).dropped for r in range(3)]
    # Draws at increasing indices continue the stream, and so does a draw
    # at a repeated index: nothing but begin() restarts it.
    assert not np.array_equal(first[0], first[1])
    assert not np.array_equal(injector.draw(0, 32).dropped, first[0])
    assert injector.rounds_drawn == 4
    injector.begin()
    assert injector.rounds_drawn == 0 and injector.counters["drop"] == 0
    again = [injector.draw(r, 32).dropped for r in range(3)]
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert injector.counters["drop"] == sum(int(d.sum()) for d in first)


def test_fault_kind_draw_order_is_pinned():
    """The per-round draw order is a replay contract: reordering it would
    silently re-map every seeded chaos schedule."""
    assert FAULT_KINDS == ("drop", "duplicate", "delay", "crash", "corrupt")


def test_crash_downtime_window_and_restart():
    injector = FaultInjector(
        Burst(CrashRestart(1.0, downtime=3), 0, 1), rng=3
    )
    n = 8
    down = [injector.draw(r, n) for r in range(5)]
    assert down[0].crashed.all()
    assert down[1].crashed.all() and down[2].crashed.all()
    assert not down[3].crashed.any()
    assert down[3].restarted.all()
    assert not down[4].restarted.any()
    assert injector.counters["crash"] == 3 * n
    assert injector.counters["restart"] == n


def test_population_change_resets_crash_state():
    injector = FaultInjector(CrashRestart(0.5, downtime=10), rng=11)
    injector.draw(0, 64)
    faults = injector.draw(1, 16)  # e.g. an epoch rebuild over survivors
    assert faults.crashed.shape == (16,)
    assert not faults.restarted.any()


def test_counters_and_total_injected():
    injector = FaultInjector(
        [MessageDrop(1.0), MessageDuplication(1.0)], rng=0
    )
    injector.draw(0, 10)
    assert injector.counters["drop"] == 10
    assert injector.counters["duplicate"] == 10
    assert injector.total_injected == 20
    assert set(injector.counters) == set(FAULT_KINDS) | {"restart"}


# ------------------------------------------------- pull-window overlay


def _pull_windows(values, faults=None, sizes=(1,), advance=None, rng=17):
    """Run pull windows of the given sizes in one engine run.

    Returns each window's pulls, the rows after the run and the metrics.
    A window's kernel keeps the values, or returns ``advance(pulls)``.
    """
    delivered = []

    def kernel(pulls):
        delivered.append(pulls)
        return pulls.snapshot if advance is None else advance(pulls)

    metrics = NetworkMetrics()
    rows = run_windows(
        lane_rows(values, np.dtype(float)),
        [PullWindow(k, kernel) for k in sizes],
        rng, metrics, GossipEnv(faults=faults),
    )
    return delivered, rows, metrics


def test_attaching_injector_leaves_engine_stream_untouched():
    """A p=0 injector consumes only its private stream: partners and
    delivered values stay bit-identical to the fault-free run."""
    injector = FaultInjector([MessageDrop(0.0), ValueCorruption(0.0)], rng=5)
    (a,), _, _ = _pull_windows(_values(), sizes=(3,))
    (b,), _, _ = _pull_windows(_values(), injector, sizes=(3,))
    assert np.array_equal(a.partner_block(), b.partner_block())
    assert np.array_equal(a.block(), b.block())
    assert b.ok_block().all()
    assert injector.total_injected == 0


def test_pull_window_drop_suppresses_every_pull():
    values = _values()
    (pulls,), rows, metrics = _pull_windows(
        values, FaultInjector(MessageDrop(1.0), rng=5), sizes=(2,)
    )
    assert not pulls.ok_block().any()
    # a pull that did not happen reads the puller's own value
    assert np.array_equal(pulls.block()[0], np.repeat(values[:, None], 2, axis=1))
    assert metrics.failed_node_rounds == 2 * 64
    assert metrics.messages == 0


def test_pull_window_duplicates_charged_as_extra_messages():
    injector = FaultInjector(MessageDuplication(1.0), rng=5)
    _, _, clean = _pull_windows(_values(), sizes=(3,))
    _, _, duped = _pull_windows(_values(), injector, sizes=(3,))
    assert duped.messages == 2 * clean.messages
    assert duped.total_bits == 2 * clean.total_bits
    assert duped.faults_injected == 3 * 64


def test_pull_window_delay_serves_snapshot_ring():
    values = np.arange(16, dtype=float)
    (first, second), _, _ = _pull_windows(
        values,
        FaultInjector(MessageDelay(1.0, max_delay=2), rng=5),
        sizes=(1, 1),
        # overwrite every value when the first window closes
        advance=lambda pulls: pulls.snapshot + 1000.0,
    )
    # First window: the ring is empty, so even delayed pulls are on time.
    partners, pulled = first.partner_block(), first.block()[0]
    assert np.array_equal(pulled, values[partners])
    # Second window: delayed pulls serve the *old* values from the ring,
    # not the current ones.
    delayed = second.block()[0][second.ok_block()]
    assert delayed.size
    assert np.all(delayed < 1000.0)


def test_pull_window_corruption_scales_payload_not_sender_state():
    values = np.full(32, 10.0)
    (pulls,), rows, _ = _pull_windows(
        values, FaultInjector(ValueCorruption(1.0, magnitude=0.5), rng=5)
    )
    good = pulls.block()[0][pulls.ok_block()]
    assert np.all((good >= 5.0) & (good <= 15.0))
    assert not np.any(good == 10.0)
    # the sender's stored state is untouched — only the copies in flight
    assert np.array_equal(pulls.snapshot[0], values)
    assert np.array_equal(rows[0], values)


def test_pull_window_crash_restart_resets_values():
    values = np.arange(8, dtype=float)
    (_, second), rows, _ = _pull_windows(
        values,
        FaultInjector(
            Burst(CrashRestart(1.0, downtime=1, reset_values=True), 0, 1),
            rng=5,
        ),
        sizes=(1, 1),
        advance=lambda pulls: pulls.snapshot + 500.0,
    )
    # round 0: everyone crashes, and the working values move on
    assert np.array_equal(second.source[0], values + 500.0)
    # round 1: everyone restarts -> state loss at the window boundary, so
    # the second window's kernel works from the initial values
    assert np.array_equal(second.snapshot[0], values)
    assert np.array_equal(rows[0], values + 500.0)


def test_each_run_replays_the_injector():
    injector = FaultInjector(MessageDrop(0.5), rng=5)
    (first,), _, _ = _pull_windows(_values(), injector, sizes=(4,))
    injected = injector.total_injected
    (second,), _, _ = _pull_windows(_values(), injector, sizes=(4,))
    # Each run begins on fresh metrics, at round 0, so the injector replays
    # its schedule; the run's own stream is seeded the same, so the whole
    # window repeats.
    assert injector.total_injected == injected
    assert np.array_equal(first.ok_block(), second.ok_block())
    assert np.array_equal(first.partner_block(), second.partner_block())


def test_plans_sharing_metrics_share_one_round_clock():
    """Plans that accumulate into one metrics object meet the injector on
    its round count: a burst over rounds [3, 5) hits the second plan."""
    injector = FaultInjector(Burst(MessageDrop(1.0), 3, 5), rng=5)
    metrics = NetworkMetrics()
    rows = lane_rows(_values(), np.dtype(float))
    for rounds in (3, 2):
        run_windows(rows, [PullWindow(rounds, lambda pulls: pulls.snapshot)],
                    17, metrics, GossipEnv(faults=injector))
    failed = [record.failed_nodes for record in metrics.history]
    assert failed == [0, 0, 0, 64, 64]


class _CrashRounds(FaultInjector):
    """An injector that notes each round index at which it crashed a node."""

    def __init__(self, *args, **kwargs):
        self.crash_rounds = []
        super().__init__(*args, **kwargs)

    def draw(self, round_index, n):
        faults = super().draw(round_index, n)
        if faults.crashed.any():
            self.crash_rounds.append(round_index)
        return faults


@pytest.mark.parametrize("n,engine", [
    (256, "vectorized"), (256, "asyncio"), (4096, "vectorized"),
])
def test_burst_covers_only_its_rounds_of_the_whole_computation(n, engine):
    """The exact driver's substrates (tournaments, counts, extrema, tokens)
    meet one fault schedule on the metrics clock: a burst over rounds
    [0, 5) crashes nodes in those rounds of the computation only, and the
    injector draws once per round it ran."""
    injector = _CrashRounds(Burst(CrashRestart(0.2, downtime=1), 0, 5), rng=3)
    values = distinct_uniform(n, rng=3)
    result = exact_quantile(values, 0.5, rng=3,
                            env=GossipEnv(faults=injector, engine=engine))
    assert injector.crash_rounds == [0, 1, 2, 3, 4]
    assert injector.rounds_drawn == result.rounds
    assert result.value == np.sort(values)[n // 2 - 1]


def test_seeded_chaos_replays_bit_for_bit():
    def run():
        injector = FaultInjector(
            [MessageDrop(0.2), MessageDelay(0.2), ValueCorruption(0.2)],
            rng=5,
        )
        (pulls,), _, _ = _pull_windows(_values(), injector, sizes=(5,))
        return pulls, dict(injector.counters)

    first, counters_a = run()
    second, counters_b = run()
    assert np.array_equal(first.partner_block(), second.partner_block())
    assert np.array_equal(first.ok_block(), second.ok_block())
    assert np.array_equal(first.block(), second.block())
    assert counters_a == counters_b
