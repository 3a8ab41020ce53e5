"""Streamed pull windows: a narrow window is gathered round by round.

``TournamentProtocol.end_round`` delivers each round of a window of at
most ``STREAM_MAX_LANES`` lanes into the window's ``(k, L, n)`` buffer as
the round ends, and ``WindowPulls.rows()`` hands that buffer to the
kernel; a wider window gathers once at the close.  Every test runs on both engines, the vectorized one with its
prefetch thread forced on, and checks what was delivered against a
gather recomputed here from ``source``, the recorded partners and the
round's recorded faults.
"""

import numpy as np
import pytest

from repro.core.three_tournament import median_of_three
from repro.core import tournament
from repro.core.tournament import (
    STREAM_MAX_LANES,
    PullWindow,
    TournamentProtocol,
    lane_rows,
    run_windows,
)
from repro.faults import (
    CrashRestart,
    FaultInjector,
    MessageDelay,
    MessageDuplication,
    ValueCorruption,
)
from repro.gossip import engine
from repro.gossip.engine import run_protocol
from repro.gossip.env import GossipEnv
from repro.gossip.metrics import NetworkMetrics
from repro.gossip.network import GossipNetwork
from repro.utils.rand import RandomSource

N = 48
SIZES = (1, 2, 3, 5)

FAULTS = {
    "none": lambda: None,
    "delay": lambda: FaultInjector(MessageDelay(0.3, max_delay=3), rng=5),
    "corruption": lambda: FaultInjector(ValueCorruption(0.3), rng=5),
    "duplication": lambda: FaultInjector(MessageDuplication(0.3), rng=5),
    "crash-reset": lambda: FaultInjector(
        CrashRestart(0.1, downtime=2, reset_values=True), rng=5
    ),
}


@pytest.fixture(params=["vectorized", "asyncio"])
def env_engine(request, monkeypatch):
    """The engine under test; the vectorized one prefetches every round."""
    if request.param == "vectorized":
        monkeypatch.setattr(engine, "PREFETCH_MIN_NODES", 2)
    return request.param


@pytest.fixture
def round_faults(monkeypatch):
    """The ``RoundFaults`` each round handed the protocol, by round index."""
    seen = {}
    handed = TournamentProtocol.on_round_faults

    def on_round_faults(self, round_index, faults):
        seen[round_index] = faults
        handed(self, round_index, faults)

    monkeypatch.setattr(TournamentProtocol, "on_round_faults", on_round_faults)
    return seen


def _values(lanes, seed=3):
    values = RandomSource(seed).random((N, lanes)) * 100.0
    return values[:, 0] if lanes == 1 else values


def _reference(pulls, faults, ring):
    """``(k, L, n)``: each round's pulls by fancy indexing into ``source``,
    then the ring read of a delayed pull and the scaling of a corrupted one."""
    expected = np.stack([pulls.source[:, partners] for partners in pulls.partners])
    for column, round_faults in enumerate(faults):
        if round_faults is None:
            continue
        ok, partners = pulls.ok[column], pulls.partners[column]
        if ring:
            for node in np.flatnonzero(ok & (round_faults.delay > 0)):
                stale = ring[-min(int(round_faults.delay[node]), len(ring))]
                expected[column, :, node] = stale[:, partners[node]]
        hit = ok & (round_faults.corruption != 1.0)
        expected[column][:, hit] *= round_faults.corruption[hit]
    return expected


def _run(values, windows, env_engine, injector=None, rng=17, on_round=None):
    """Run ``windows`` over ``values``; return the final rows and metrics."""
    rows = lane_rows(values, np.dtype(float))
    metrics = NetworkMetrics()
    env = GossipEnv(faults=injector, engine=env_engine)
    if on_round is None:
        return run_windows(rows, windows, rng, metrics, env), metrics
    protocol = TournamentProtocol(rows, windows, injector, metrics)
    run_protocol(protocol, rng=rng, max_rounds=sum(w.rounds for w in windows),
                 metrics=metrics, on_round=on_round, env=env)
    return protocol.rows, metrics


def _check_windows(delivered, seen, injector, initial):
    """Every window's ``rows()`` equals the reference; the snapshot holds a
    restarted node's initial lanes."""
    start, ring = 0, []
    depth = injector.max_delay if injector is not None else 0
    for pulls in delivered:
        k = len(pulls.partners)
        faults = [seen.get(r) for r in range(start, start + k)]
        expected = _reference(pulls, faults, ring[-depth:] if depth else [])
        assert pulls.rows().tobytes() == expected.tobytes()
        assert pulls.block().tobytes() == expected.transpose(1, 2, 0).tobytes()
        restarted = np.zeros(pulls.n, dtype=bool)
        for round_faults in faults:
            if round_faults is not None and injector.reset_on_restart:
                restarted |= round_faults.restarted
        assert np.array_equal(pulls.snapshot,
                              np.where(restarted, initial, pulls.source))
        if injector is not None:
            ring.append(pulls.source)
        start += k


@pytest.mark.parametrize("case", sorted(FAULTS))
@pytest.mark.parametrize("lanes", [1, STREAM_MAX_LANES, STREAM_MAX_LANES + 1])
def test_streamed_rows_equal_the_reference_gather(env_engine, round_faults, lanes, case):
    injector = FAULTS[case]()
    values = _values(lanes)
    delivered = []

    def advance(pulls):
        delivered.append(pulls)
        return pulls.snapshot + 1.0

    _, metrics = _run(values, [PullWindow(k, advance) for k in SIZES],
                      env_engine, injector)
    assert [len(p.partners) for p in delivered] == list(SIZES)
    assert metrics.rounds == sum(SIZES)
    _check_windows(delivered, round_faults, injector, lane_rows(values, np.dtype(float)))
    if case == "crash-reset":
        assert any(f.restarted.any() for f in round_faults.values())
    elif case != "none":
        assert injector.total_injected > 0


@pytest.mark.parametrize("lanes", [1, STREAM_MAX_LANES])
def test_streamed_rows_match_across_engines(monkeypatch, lanes):
    monkeypatch.setattr(engine, "PREFETCH_MIN_NODES", 2)
    runs = []
    for name in ("vectorized", "asyncio"):
        delivered = []

        def advance(pulls):
            delivered.append(pulls.rows().copy())
            return pulls.snapshot + 1.0

        injector = FaultInjector([MessageDelay(0.3, max_delay=3),
                                  ValueCorruption(0.3)], rng=5)
        final, _ = _run(_values(lanes), [PullWindow(k, advance) for k in SIZES],
                        name, injector)
        runs.append((delivered, final))
    (vec_rows, vec_final), (net_rows, net_final) = runs
    assert [r.tobytes() for r in vec_rows] == [r.tobytes() for r in net_rows]
    assert vec_final.tobytes() == net_final.tobytes()


def test_rounds_are_delivered_as_they_end(env_engine, monkeypatch):
    """A narrow window delivers each round before the engine's round hook
    runs; a wider window delivers all its rounds at once, when the kernel
    asks."""
    events = []
    delivering = tournament.deliver

    def deliver(source, rounds, ring, out):
        events.append(f"deliver {len(rounds)}")
        delivering(source, rounds, ring, out)

    monkeypatch.setattr(tournament, "deliver", deliver)

    def kernel(pulls):
        events.append("close")
        pulls.rows()
        return pulls.snapshot

    def hook(record, elapsed):
        events.append("round")

    narrow = [PullWindow(3, kernel), PullWindow(2, kernel)]
    _run(_values(STREAM_MAX_LANES), narrow, env_engine, on_round=hook)
    assert events == ["deliver 1", "round", "deliver 1", "round", "deliver 1",
                      "close", "round",
                      "deliver 1", "round", "deliver 1", "close", "round"]
    events.clear()
    _run(_values(STREAM_MAX_LANES + 1), [PullWindow(3, kernel)], env_engine,
         on_round=hook)
    assert events == ["round", "round", "close", "deliver 3", "round"]


def test_in_place_kernel_writes_stay_in_their_window(env_engine, round_faults):
    """``median_of_three`` writes into ``rows()``; the next window still
    receives exactly what its own pulls delivered."""
    injector = FaultInjector([MessageDelay(0.3, max_delay=2),
                              ValueCorruption(0.3)], rng=5)
    delivered, buffers = [], []

    def kernel(pulls):
        delivered.append(pulls)
        buffers.append((pulls.rows(), pulls.rows().copy()))
        return median_of_three(pulls)

    values = _values(4)
    _run(values, [PullWindow(3, kernel)] * 4, env_engine, injector)
    for (buffer, received), later in zip(buffers, buffers[1:]):
        assert not np.shares_memory(buffer, later[0])
        # the kernel really wrote into its buffer
        assert buffer.tobytes() != received.tobytes()
    start, ring = 0, []
    for pulls, (_, received) in zip(delivered, buffers):
        faults = [round_faults[r] for r in range(start, start + 3)]
        expected = _reference(pulls, faults, ring[-2:])
        assert received.tobytes() == expected.tobytes()
        ring.append(pulls.source)
        start += 3


@pytest.mark.parametrize("lanes", [1, 4])
def test_network_pull_returns_its_batch(env_engine, lanes):
    values = _values(lanes)
    network = GossipNetwork(values, rng=9, env=GossipEnv(engine=env_engine))
    batch = network.pull(k=5)
    assert batch.partners.shape == batch.ok.shape == (N, 5)
    assert batch.ok.all()
    expected = values[batch.partners]
    assert batch.values.shape == expected.shape
    assert batch.values.tobytes() == np.ascontiguousarray(expected).tobytes()
    assert network.metrics.rounds == 5
    # the identity window leaves every value in place
    assert np.array_equal(network.values, values)


@pytest.mark.parametrize("case", ["none", "delay", "corruption"])
@pytest.mark.parametrize("lanes", [STREAM_MAX_LANES, STREAM_MAX_LANES + 1])
def test_block_equals_the_partner_gather(env_engine, round_faults, lanes, case):
    """``block()`` of a streamed window (a transposed view of its buffer)
    and of a wide one (gathered from the partners at the close) is
    byte-equal to a partner-block gather (fault-free) or to the transposed
    reference (faulted)."""
    injector = FAULTS[case]()
    values = _values(lanes)
    delivered = []

    def kernel(pulls):
        delivered.append(pulls)
        return pulls.snapshot + 1.0

    _run(values, [PullWindow(k, kernel) for k in (3, 4, 15)], env_engine, injector)
    if injector is None:
        for pulls in delivered:
            partners = pulls.partner_block()
            gathered = np.stack([np.take(row, partners, mode="clip")
                                 for row in pulls.source])
            assert pulls.block().tobytes() == gathered.tobytes()
    _check_windows(delivered, round_faults, injector, lane_rows(values, np.dtype(float)))


def test_block_is_a_view_of_the_window_buffer(env_engine):
    """A streamed window's ``block()`` is its buffer seen through a
    transpose, so writes into either show in the other."""
    seen = []

    def kernel(pulls):
        delivered = pulls.rows().copy()
        pulls.rows()[1] = -1.0
        block = pulls.block()
        block[:, :, 2] = -2.0
        seen.append((delivered, block.copy(), pulls.rows().copy()))
        return pulls.snapshot

    _run(_values(STREAM_MAX_LANES), [PullWindow(3, kernel)], env_engine)
    (delivered, block, rows), = seen
    assert block[:, :, 0].tobytes() == rows[0].tobytes() == delivered[0].tobytes()
    assert (block[:, :, 1] == -1.0).all() and (rows[1] == -1.0).all()
    assert (block[:, :, 2] == -2.0).all() and (rows[2] == -2.0).all()


def test_block_of_a_wide_window_is_fresh(env_engine):
    """A wide fault-free window's ``block()``, asked for before ``rows()``,
    is a gather of its own that ``rows()`` never sees."""
    seen = []

    def kernel(pulls):
        block = pulls.block()
        delivered = block.copy()
        block[...] = -1.0
        seen.append((delivered, pulls.rows().copy()))
        return pulls.snapshot

    _run(_values(STREAM_MAX_LANES + 1), [PullWindow(3, kernel)], env_engine)
    (delivered, rows), = seen
    assert rows.transpose(1, 2, 0).tobytes() == delivered.tobytes()
