"""The vectorized engine's one-round-ahead draw, forced on at every size.

``run_protocol_vectorized`` draws round ``r + 1``'s failure mask and
partners on its prefetch thread while round ``r`` runs, from
``n >= PREFETCH_MIN_NODES``.  With the threshold at 2 every pinned run
below takes that path, so each pin checks that the prefetch leaves the
seeded streams byte-identical.  The rest covers a neighbour-sampled run,
the rollback of the speculative draw, a protocol that raises mid-run, and
a forked trial pool after a prefetching run.
"""

import multiprocessing
import signal
import sys
import threading
import time
from functools import partial

import numpy as np
import pytest

import test_engine_equivalence as equivalence
import test_push_sum_pins as push_sum_pins
import test_sandwich_side_pins as side_pins
from repro.aggregates.push_sum import PushSumProtocol, push_sum_average
from repro.exceptions import ProtocolError
from repro.experiments.runner import run_trials
from repro.gossip import engine
from repro.gossip.env import GossipEnv
from repro.gossip.metrics import NetworkMetrics
from repro.gossip.failures import NoFailures
from repro.topology import watts_strogatz
from repro.topology.sampler import NeighborSampler
from repro.utils.rand import RandomSource


@pytest.fixture
def prefetch(monkeypatch):
    """Prefetch every run; count the draws made on the prefetch thread."""
    monkeypatch.setattr(engine, "PREFETCH_MIN_NODES", 2)
    inline = engine.draw_round_inputs
    ahead = []

    def draw_round_inputs(*args):
        if threading.current_thread() is not threading.main_thread():
            ahead.append(args[0])
        return inline(*args)

    monkeypatch.setattr(engine, "draw_round_inputs", draw_round_inputs)
    return ahead


# ---- every pin passes through the prefetch path ----------------------------


@pytest.mark.parametrize("run,config", sorted(push_sum_pins.PUSH_SUM_PINS))
def test_push_sum_pins_hold(prefetch, run, config):
    push_sum_pins.test_push_sum_streams_pinned(run, config, "vectorized")
    # a topology process picks each round's sampler, so it draws inline
    assert bool(prefetch) == (config != "process")


@pytest.mark.parametrize("run,engine_name,mu", sorted(
    key for key in side_pins.EXTREMA_PINS if key[1] == "vectorized"
))
def test_extrema_pins_hold(prefetch, run, engine_name, mu):
    side_pins.test_extrema_streams_pinned(run, engine_name, mu)
    assert prefetch


@pytest.mark.parametrize("case", sorted(push_sum_pins.EDGE_PINS))
@pytest.mark.parametrize("mu", [None, 0.3], ids=["failure-free", "failures"])
def test_edge_pins_hold(prefetch, case, mu):
    push_sum_pins.test_push_sum_edge_values_pinned(case, mu, "vectorized")
    assert prefetch


@pytest.mark.parametrize("engine_name,phi,mu", sorted(side_pins.EXACT_SIDE_PINS))
def test_exact_side_pins_hold(prefetch, engine_name, phi, mu):
    side_pins.test_one_sided_exact_quantile_pinned(engine_name, phi, mu)
    assert prefetch


def test_fused_multilane_pins_hold(prefetch):
    equivalence.test_fused_all_ranks_grid_pinned()
    for dtype in (np.float64, np.float32):
        equivalence.test_fused_two_lane_approximate_quantile_pinned(dtype)
    equivalence.test_fused_service_build_and_rebuild_pinned()
    assert prefetch


@pytest.mark.parametrize("case", sorted(equivalence.TOURNAMENT_ACCOUNTING_PINS))
def test_tournament_accounting_pins_hold(prefetch, case):
    equivalence.test_failure_free_tournament_accounting_pinned(case)
    assert prefetch


def test_pull_windows_under_failures_pin_holds(prefetch):
    equivalence.test_composed_pull_windows_pinned("failures")
    assert prefetch


# ---- samplers, the rolled-back stream, errors ------------------------------


def _push_sum(env, source):
    protocol = PushSumProtocol(RandomSource(5).random(200), rounds=12)
    engine.run_protocol_vectorized(protocol, rng=source, max_rounds=13, env=env)
    return protocol.outputs_array()


def test_neighbor_sampled_run_matches_its_inline_run(monkeypatch):
    env = GossipEnv(topology=watts_strogatz(200, 6, 0.2, rng=3), failure_model=0.2)
    assert isinstance(engine.start_schedules(env, 200, NetworkMetrics()), NeighborSampler)
    inline = _push_sum(env, RandomSource(8))
    monkeypatch.setattr(engine, "PREFETCH_MIN_NODES", 2)
    assert np.array_equal(_push_sum(env, RandomSource(8)), inline)


def test_shared_source_is_left_in_the_sequential_state(monkeypatch):
    def two_runs_then_draw():
        source = RandomSource(9)
        first, second = _push_sum(None, source), _push_sum(None, source)
        return first, second, source.random(4)

    inline = two_runs_then_draw()
    monkeypatch.setattr(engine, "PREFETCH_MIN_NODES", 2)
    prefetched = two_runs_then_draw()
    for a, b in zip(prefetched, inline):
        assert np.array_equal(a, b)


def test_prefetch_is_byte_identical_under_a_short_switch_interval(monkeypatch):
    """The calling thread and the draw thread hand the interpreter lock
    back and forth every microsecond; the stream must not notice."""
    env = GossipEnv(failure_model=0.3)
    inline = [_push_sum(env, RandomSource(seed)) for seed in range(8)]
    monkeypatch.setattr(engine, "PREFETCH_MIN_NODES", 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        prefetched = [_push_sum(env, RandomSource(seed)) for seed in range(8)]
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(prefetched, inline):
        assert np.array_equal(a, b)



def test_no_draw_is_in_flight_when_the_round_hook_runs(monkeypatch):
    """The hook (where perfbench times its calibration kernel) never
    shares the machine with a draw, even a slow one."""
    monkeypatch.setattr(engine, "PREFETCH_MIN_NODES", 2)
    inline = engine.draw_round_inputs
    in_flight = threading.Event()

    def slow_draw(*args):
        in_flight.set()
        time.sleep(0.02)
        try:
            return inline(*args)
        finally:
            in_flight.clear()

    monkeypatch.setattr(engine, "draw_round_inputs", slow_draw)
    seen = []
    protocol = PushSumProtocol(RandomSource(5).random(200), rounds=6)
    engine.run_protocol_vectorized(
        protocol, rng=1, max_rounds=7,
        on_round=lambda record, elapsed: seen.append(in_flight.is_set()),
    )
    assert seen == [False] * 6

class _FailsInRoundThree(PushSumProtocol):
    def act_batch(self, round_index, alive):
        if round_index == 3:
            raise ProtocolError("round 3 fails")
        return super().act_batch(round_index, alive)


def test_a_raising_protocol_leaves_no_draw_in_flight(prefetch):
    def run_until_it_raises():
        source = RandomSource(10)
        protocol = _FailsInRoundThree(RandomSource(5).random(200), rounds=12)
        with pytest.raises(ProtocolError, match="round 3 fails"):
            engine.run_protocol_vectorized(protocol, rng=source, max_rounds=13)
        return source.random(4)

    after = run_until_it_raises()
    # the last draw ahead, round 4's, finished and was rolled back
    assert prefetch == [1, 2, 3, 4]
    sequential = RandomSource(10)
    sampler = engine.start_schedules(GossipEnv(), 200, NetworkMetrics())
    for round_index in range(4):
        engine.draw_round_inputs(round_index, 200, sequential, NoFailures(), sampler)
    assert np.array_equal(after, sequential.random(4))


# ---- fork safety ------------------------------------------------------------


def _trial(index, rng, values):
    return push_sum_average(values, rng=rng, rounds=10).estimates[:3].tolist()


def test_forked_trial_pool_after_a_prefetching_run_finishes(prefetch):
    values = RandomSource(11).random(64)
    push_sum_average(values, rng=1, rounds=10)
    assert prefetch

    def hung(signum, frame):
        # End the pool's workers first, or leaving the pool's ``with``
        # block would wait for them forever.
        for child in multiprocessing.active_children():
            child.terminate()
        raise TimeoutError("run_trials hung after a prefetching run")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        pooled = run_trials(
            partial(_trial, values=values), trials=4, seed=12, workers=2
        )
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    inline = run_trials(partial(_trial, values=values), trials=4, seed=12)
    assert pooled == inline
