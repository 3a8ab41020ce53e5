"""Fault-injection subsystem: specs, schedules, injector, network overlay."""

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
from repro.gossip.env import GossipEnv
from repro.gossip.network import GossipNetwork
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
    assert injector.mu_bound() == pytest.approx(1.0 - 0.8 * 0.9)
    assert FaultInjector(MessageDrop(1.0), rng=0).mu_bound() == 0.999


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


def test_non_increasing_round_index_restarts_stream():
    injector = FaultInjector(MessageDrop(0.5), rng=7)
    first = injector.draw(0, 32).dropped
    injector.draw(1, 32)
    again = injector.draw(0, 32).dropped
    assert np.array_equal(first, again)
    assert injector.counters["drop"] == int(first.sum())


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


# ------------------------------------------------------- network overlay


def test_attaching_injector_leaves_engine_stream_untouched():
    """A p=0 injector consumes only its private stream: partners and
    delivered values stay bit-identical to the fault-free network."""
    clean = GossipNetwork(_values(), rng=17)
    chaotic = GossipNetwork(
        _values(), rng=17,
        env=GossipEnv(
            faults=FaultInjector([MessageDrop(0.0), ValueCorruption(0.0)], rng=5)
        ),
    )
    a = clean.pull(3)
    b = chaotic.pull(3)
    assert np.array_equal(a.partners, b.partners)
    assert np.array_equal(a.values, b.values)
    assert b.ok.all()
    assert chaotic.faults.total_injected == 0


def test_network_drop_suppresses_and_masks():
    net = GossipNetwork(
        _values(), rng=17, env=GossipEnv(faults=FaultInjector(MessageDrop(1.0), rng=5))
    )
    batch = net.pull(2)
    assert not batch.ok.any()
    assert np.isnan(batch.values).all()
    assert net.metrics.failed_node_rounds == 2 * 64


def test_network_duplicates_charged_as_extra_messages():
    clean = GossipNetwork(_values(), rng=17)
    duped = GossipNetwork(
        _values(), rng=17,
        env=GossipEnv(faults=FaultInjector(MessageDuplication(1.0), rng=5)),
    )
    clean.pull(3)
    duped.pull(3)
    assert duped.metrics.messages == 2 * clean.metrics.messages
    assert duped.metrics.total_bits == 2 * clean.metrics.total_bits
    assert duped.metrics.faults_injected == 3 * 64


def test_network_delay_serves_snapshot_ring():
    values = np.arange(16, dtype=float)
    net = GossipNetwork(
        values, rng=17,
        env=GossipEnv(faults=FaultInjector(MessageDelay(1.0, max_delay=2), rng=5)),
    )
    # First batch: the ring is empty, so even delayed pulls are on time.
    first = net.pull(1)
    assert np.array_equal(
        first.values[first.ok], values[first.partners][first.ok]
    )
    # Overwrite every value; delayed pulls must now serve the *old* values
    # from the ring, not the current ones.
    net.set_values(values + 1000.0)
    second = net.pull(1)
    delayed = second.values[second.ok]
    assert delayed.size
    assert np.all(delayed < 1000.0)


def test_network_corruption_scales_payload_not_sender_state():
    values = np.full(32, 10.0)
    net = GossipNetwork(
        values, rng=17,
        env=GossipEnv(faults=FaultInjector(ValueCorruption(1.0, magnitude=0.5), rng=5)),
    )
    batch = net.pull(1)
    good = batch.values[batch.ok]
    assert np.all((good >= 5.0) & (good <= 15.0))
    assert not np.any(good == 10.0)
    # the sender's stored state is untouched — only the copies in flight
    assert np.array_equal(net.snapshot(), values)


def test_network_crash_restart_resets_values():
    values = np.arange(8, dtype=float)
    net = GossipNetwork(
        values, rng=17,
        env=GossipEnv(faults=FaultInjector(
            Burst(CrashRestart(1.0, downtime=1, reset_values=True), 0, 1),
            rng=5,
        )),
    )
    net.set_values(values + 500.0)
    net.pull(1)          # round 0: everyone crashes
    assert np.array_equal(net.snapshot(), values + 500.0)
    net.pull(1)          # round 1: everyone restarts -> state loss
    assert np.array_equal(net.snapshot(), values)


def test_network_reset_rewinds_injector():
    net = GossipNetwork(
        _values(), rng=17, env=GossipEnv(faults=FaultInjector(MessageDrop(0.5), rng=5))
    )
    first = net.pull(4)
    injected = net.faults.total_injected
    net.reset()
    assert net.faults.total_injected == 0
    second = net.pull(4)
    # The injector replays its schedule; the engine stream deliberately
    # does NOT rewind (reset() keeps the network's partner stream moving),
    # so only the fault counters — not the partners — must match.
    assert net.faults.total_injected == injected
    assert first.ok.sum() != 0 or second.ok.sum() != 0


def test_seeded_chaos_replays_bit_for_bit():
    def run():
        net = GossipNetwork(
            _values(), rng=17,
            env=GossipEnv(faults=FaultInjector(
                [MessageDrop(0.2), MessageDelay(0.2), ValueCorruption(0.2)],
                rng=5,
            )),
        )
        batch = net.pull(5)
        return batch, dict(net.faults.counters)

    first, counters_a = run()
    second, counters_b = run()
    assert np.array_equal(first.partners, second.partners)
    assert np.array_equal(first.ok, second.ok)
    assert np.array_equal(
        first.values[first.ok], second.values[second.ok]
    )
    assert counters_a == counters_b
