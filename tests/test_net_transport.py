"""Transport and RPC layer: frames, kill modes, deadlines, retry replay.

Every async test runs under a hard ``asyncio.wait_for`` ceiling so a
wedged transport can fail the test but never hang the suite.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro.aggregates.push_sum import PushSumProtocol
from repro.core.tournament import PullWindow, TournamentProtocol, lane_rows
from repro.net import (
    ChannelTransport,
    PeerUnreachable,
    RetryPolicy,
    RpcClient,
    RpcError,
    RpcTimeout,
    TcpTransport,
    arun_protocol,
)
from repro.net.codec import LENGTH, MAX_FRAME_BYTES, FrameError, encode
from repro.net.transport import _Client

TIMEOUT_S = 20.0


def run(coro, timeout_s: float = TIMEOUT_S):
    return asyncio.run(asyncio.wait_for(coro, timeout_s))


async def _echo(dst, frame):
    return {"echo": frame["x"], "served_by": dst}


class _Peers:
    """Serves gossip frames, as the runner's node host does: records every
    push and answers a pull with ``(dst, src / 7)``."""

    def __init__(self):
        self.pushed = {}

    async def __call__(self, dst, frame):
        if frame["kind"] == "push":
            self.pushed[(frame["src"], dst)] = frame["payload"]
            return {"ok": True}
        if frame["kind"] == "pull":
            return {"payload": (float(dst), frame["src"] / 7.0)}
        return {"ok": True}


def _pull(src, round_index=0):
    return {"kind": "pull", "src": src, "round": round_index}


def _register_all(transport, handler=_echo):
    for node in range(transport.n):
        transport.register(node, handler)


# -- round trips -----------------------------------------------------------


@pytest.mark.parametrize("cls", [ChannelTransport, TcpTransport])
def test_roundtrip(cls):
    async def go():
        transport = cls(4)
        _register_all(transport, _Peers())
        await transport.start()
        await transport.start()  # idempotent
        try:
            reply = await transport.call(0, 3, _pull(0))
            assert reply == {"payload": (3.0, 0.0)}
            # Latency was recorded via the loop clock.
            assert len(transport.latencies_s) == 1
            assert transport.latencies_s[0] >= 0.0
            assert transport.calls == 1
        finally:
            await transport.stop()
            await transport.stop()  # idempotent

    run(go())


def test_tcp_concurrent_pairs_and_payload_fidelity():
    """Many pairs in flight at once over real sockets; pushed and pulled
    float tuples survive the binary framing bit-for-bit."""

    async def go():
        transport = TcpTransport(6)
        peers = _Peers()
        _register_all(transport, peers)
        await transport.start()
        try:
            pushes = [
                {"kind": "push", "src": src, "round": 0,
                 "payload": (float(src), src / 7.0, -0.0)}
                for src in range(6)
            ]
            replies = await asyncio.gather(
                *(transport.call(src, (src + 1) % 6, pushes[src])
                  for src in range(6)),
                *(transport.call(src, (src + 2) % 6, _pull(src))
                  for src in range(6)),
            )
            assert replies[:6] == [{"ok": True}] * 6
            for src, reply in enumerate(replies[6:]):
                assert reply["payload"] == (float((src + 2) % 6), src / 7.0)
            for src in range(6):
                pushed = peers.pushed[(src, (src + 1) % 6)]
                assert np.array(pushed).tobytes() == np.array(
                    pushes[src]["payload"]).tobytes()
        finally:
            await transport.stop()

    run(go())


def test_tcp_concurrent_calls_on_one_pair_resolve_by_request_id():
    """Replies that come back out of order on one pooled connection still
    reach their own callers."""

    async def slower_for_earlier_rounds(dst, frame):
        await asyncio.sleep(0.01 * (3 - frame["round"]))
        return {"payload": float(frame["round"])}

    async def go():
        transport = TcpTransport(2)
        _register_all(transport, slower_for_earlier_rounds)
        await transport.start()
        try:
            replies = await asyncio.gather(
                *(transport.call(0, 1, _pull(0, round_index=r)) for r in range(3))
            )
            assert [reply["payload"] for reply in replies] == [0.0, 1.0, 2.0]
            assert list(transport._pool) == [(0, 1)]
        finally:
            await transport.stop()

    run(go())


def test_tcp_rejects_an_unencodable_frame_before_writing():
    """A frame outside the codec raises the typed error at the caller; the
    pair's connection stays usable."""

    async def go():
        transport = TcpTransport(2)
        _register_all(transport, _Peers())
        await transport.start()
        try:
            await transport.call(0, 1, _pull(0))
            with pytest.raises(FrameError):
                await transport.call(0, 1, {"x": 1})
            with pytest.raises(FrameError):
                await transport.call(
                    0, 1, {"kind": "push", "src": 0, "round": 0, "payload": "s"}
                )
            assert await transport.call(0, 1, _pull(0)) == {"payload": (1.0, 0.0)}
        finally:
            await transport.stop()

    run(go())


def test_tcp_reply_outside_the_codec_fails_the_caller_fast():
    """A handler whose reply cannot be encoded closes that connection: the
    caller gets PeerUnreachable at once, the loop's exception handler gets
    the error, and the node keeps serving other pairs."""

    async def bad_reply(dst, frame):
        if frame["src"] == 0:
            return {"payload": "not floats"}
        return {"ok": True}

    async def go():
        reported = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: reported.append(context["exception"])
        )
        transport = TcpTransport(3)
        _register_all(transport, bad_reply)
        await transport.start()
        try:
            with pytest.raises(PeerUnreachable):
                await asyncio.wait_for(
                    transport.call(0, 2, {"kind": "ping", "src": 0}), 5.0
                )
            assert [type(exc) for exc in reported] == [FrameError]
            assert await transport.call(1, 2, {"kind": "ping", "src": 1}) == {"ok": True}
        finally:
            await transport.stop()

    run(go())


def test_tcp_inline_handler_error_fails_the_caller_fast():
    """A handler answering without awaiting that raises, or returns a
    reply outside the codec, closes that connection and reaches the loop's
    exception handler, as an awaited reply does; other pairs keep being
    served."""

    def bad_inline(dst, frame):
        if frame["src"] == 0:
            return {"payload": "not floats"}
        if frame["src"] == 1:
            raise ValueError("handler bug")
        return {"ok": True}

    async def go():
        reported = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: reported.append(context["exception"])
        )
        transport = TcpTransport(4)
        _register_all(transport, bad_inline)
        await transport.start()
        try:
            for src in (0, 1):
                with pytest.raises(PeerUnreachable):
                    await asyncio.wait_for(
                        transport.call(src, 3, {"kind": "ping", "src": src}), 5.0
                    )
            assert [type(exc) for exc in reported] == [FrameError, ValueError]
            assert await transport.call(2, 3, {"kind": "ping", "src": 2}) == {"ok": True}
        finally:
            await transport.stop()

    run(go())


def _random_bytes():
    garbage = np.random.default_rng(0).bytes(64)
    # The length prefix alone is over the cap: the server cannot wait
    # for the rest of such a frame.
    assert LENGTH.unpack_from(garbage)[0] > MAX_FRAME_BYTES
    return garbage


_PULL_BODY = encode(1, _pull(0))[LENGTH.size:]

MALFORMED = {
    # A whole frame whose body is too short for its kind.
    "truncated-frame": LENGTH.pack(len(_PULL_BODY) - 1) + _PULL_BODY[:-1],
    "unknown-kind": LENGTH.pack(5) + b"\x00\x00\x00\x01\x63",
    "oversized-length": LENGTH.pack(MAX_FRAME_BYTES + 1),
    "random-bytes": _random_bytes(),
}


@pytest.mark.parametrize("garbage", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_closes_only_its_connection(garbage):
    """Raw bytes that are no frame end that one connection: the node keeps
    serving its pooled connections and every other pair."""

    async def go():
        transport = TcpTransport(3)
        _register_all(transport, _Peers())
        await transport.start()
        try:
            await transport.call(1, 0, _pull(1))
            pooled = transport._pool[(1, 0)]
            reader, writer = await asyncio.open_connection(
                transport.host, transport.port_of(0)
            )
            writer.write(garbage)
            await writer.drain()
            try:
                # The server hangs up without waiting for more bytes.
                assert await asyncio.wait_for(reader.read(), 5.0) == b""
            except ConnectionResetError:
                pass
            writer.close()
            assert await transport.call(2, 0, _pull(2)) == {"payload": (0.0, 2 / 7.0)}
            assert await transport.call(1, 0, _pull(1)) == {"payload": (0.0, 1 / 7.0)}
            assert transport._pool[(1, 0)] is pooled
            assert transport.refused == 0
        finally:
            await transport.stop()

    run(go())


def test_an_eof_mid_frame_closes_only_its_connection():
    """A frame cut off by the peer's EOF is dropped with its connection."""

    async def go():
        transport = TcpTransport(2)
        _register_all(transport, _Peers())
        await transport.start()
        try:
            reader, writer = await asyncio.open_connection(
                transport.host, transport.port_of(0)
            )
            writer.write(encode(1, _pull(1))[:-3])
            writer.write_eof()
            assert await asyncio.wait_for(reader.read(), 5.0) == b""
            writer.close()
            assert await transport.call(1, 0, _pull(1)) == {"payload": (0.0, 1 / 7.0)}
        finally:
            await transport.stop()

    run(go())


def test_transport_validates_nodes():
    with pytest.raises(ValueError):
        ChannelTransport(1)
    transport = ChannelTransport(3)
    with pytest.raises(ValueError):
        transport.register(3, _echo)
    with pytest.raises(ValueError):
        transport.kill(-1)


# -- kill / revive ---------------------------------------------------------


@pytest.mark.parametrize("cls", [ChannelTransport, TcpTransport])
def test_kill_refuse_then_revive(cls):
    async def go():
        transport = cls(3)
        _register_all(transport, _Peers())
        await transport.start()
        try:
            transport.kill(1, mode="refuse")
            assert transport.is_down(1)
            assert transport.down == {1}
            with pytest.raises(PeerUnreachable):
                await transport.call(0, 1, {"kind": "ping", "src": 0})
            assert transport.refused >= 1
            transport.revive(1)
            reply = await transport.call(0, 1, _pull(0, round_index=2))
            assert reply["payload"] == (1.0, 0.0)
        finally:
            await transport.stop()

    run(go())


@pytest.mark.parametrize("cls", [ChannelTransport, TcpTransport])
def test_kill_silent_hangs_until_caller_deadline(cls):
    """A "silent" kill models a hung process: the frame is swallowed and
    only the caller's own deadline notices — the SWIM timeout path."""

    async def go():
        transport = cls(3)
        _register_all(transport, _Peers())
        await transport.start()
        try:
            transport.kill(2, mode="silent")
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(
                    transport.call(0, 2, {"kind": "ping", "src": 0}), 0.05
                )
        finally:
            await transport.stop()

    run(go())


def test_kill_rejects_unknown_mode():
    transport = ChannelTransport(2)
    with pytest.raises(ValueError):
        transport.kill(0, mode="explode")


# -- retry policy ----------------------------------------------------------


def test_retry_policy_schedule_is_stateless_and_replayable():
    policy = RetryPolicy(attempts=4, backoff_base_s=0.01, entropy=7)
    first = policy.schedule(node=3, seq=11)
    again = policy.schedule(node=3, seq=11)
    assert first == again
    assert len(first) == 3
    twin = RetryPolicy(attempts=4, backoff_base_s=0.01, entropy=7)
    assert twin.schedule(3, 11) == first
    # Different identity, different jitter; same exponential envelope.
    other = policy.schedule(node=4, seq=11)
    assert other != first
    for attempt, delay in enumerate(first):
        base = 0.01 * 2.0**attempt
        assert base <= delay <= base * 1.5


def test_retry_policy_schedule_pinned_values():
    """The replay contract, pinned to exact floats: the jitter derives from
    SeedSequence([entropy, node, seq, attempt]) and nothing else."""
    policy = RetryPolicy(attempts=3, backoff_base_s=0.01, entropy=0)
    schedule = policy.schedule(node=0, seq=0)
    expected = tuple(
        0.01
        * 2.0**attempt
        * (
            1.0
            + 0.5
            * float(
                np.random.default_rng(
                    np.random.SeedSequence([0, 0, 0, attempt])
                ).random()
            )
        )
        for attempt in range(2)
    )
    assert schedule == expected


def test_retry_policy_zero_jitter_is_pure_exponential():
    policy = RetryPolicy(attempts=4, backoff_base_s=0.02, jitter=0.0)
    assert policy.schedule(0, 0) == (0.02, 0.04, 0.08)


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(timeout_s=0)
    with pytest.raises(ValueError):
        RetryPolicy(attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.5)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_factor=0.5)


# -- rpc client ------------------------------------------------------------


def test_rpc_retries_through_transient_refusal():
    """The peer is down for the first attempt and back for the retry; the
    client's counters record one retry and no failures."""

    async def go():
        transport = ChannelTransport(2)
        _register_all(transport)
        await transport.start()
        client = RpcClient(
            transport,
            RetryPolicy(attempts=3, backoff_base_s=0.001, timeout_s=0.5),
        )
        transport.kill(1, mode="refuse")

        async def revive_soon():
            await asyncio.sleep(0.0005)
            transport.revive(1)

        reviver = asyncio.create_task(revive_soon())
        reply = await client.call(0, 1, {"kind": "ping", "x": 5})
        await reviver
        assert reply["echo"] == 5
        assert client.calls == 1
        assert client.retries >= 1
        assert client.failures == 0
        await transport.stop()

    run(go())


def test_rpc_exhaustion_raises_rpc_error():
    async def go():
        transport = ChannelTransport(2)
        _register_all(transport)
        await transport.start()
        client = RpcClient(
            transport, RetryPolicy(attempts=2, backoff_base_s=0.001)
        )
        transport.kill(1, mode="refuse")
        with pytest.raises(RpcError):
            await client.call(0, 1, {"kind": "ping"})
        assert client.failures == 1
        assert client.retries == 1
        await transport.stop()

    run(go())


@pytest.mark.parametrize("cls", [ChannelTransport, TcpTransport])
def test_rpc_deadline_on_silent_peer_raises_timeout(cls):
    async def go():
        transport = cls(2)
        _register_all(transport, _Peers())
        await transport.start()
        client = RpcClient(
            transport,
            RetryPolicy(attempts=2, timeout_s=0.02, backoff_base_s=0.001),
        )
        transport.kill(1, mode="silent")
        with pytest.raises(RpcTimeout):
            await client.call(0, 1, {"kind": "ping", "src": 0})
        await transport.stop()

    run(go())


def test_rpc_sequence_numbers_are_per_source_node():
    async def go():
        transport = ChannelTransport(3)
        _register_all(transport)
        await transport.start()
        client = RpcClient(transport)
        await client.call(0, 1, {"x": 1})
        await client.call(0, 2, {"x": 2})
        await client.call(1, 2, {"x": 3})
        assert client._seq == {0: 2, 1: 1}
        await transport.stop()

    run(go())


@pytest.mark.parametrize("cls", [ChannelTransport, TcpTransport])
def test_rpc_reply_after_its_deadline_is_dropped(cls):
    """A reply that comes back after the attempt's deadline reaches no
    caller; the next call on the same pair gets its own reply."""

    async def slow_round_zero(dst, frame):
        if frame["round"] == 0:
            await asyncio.sleep(0.1)
        return {"payload": float(frame["round"])}

    async def go():
        transport = cls(2)
        _register_all(transport, slow_round_zero)
        await transport.start()
        client = RpcClient(transport, RetryPolicy(attempts=1, timeout_s=0.02))
        try:
            with pytest.raises(RpcTimeout):
                await client.call(0, 1, _pull(0, round_index=0))
            # Let the late reply arrive (TCP) before the next call.
            await asyncio.sleep(0.15)
            reply = await client.call(0, 1, _pull(0, round_index=1))
            assert reply == {"payload": 1.0}
            assert len(transport.latencies_s) == 1
            if cls is TcpTransport:
                assert list(transport._pool) == [(0, 1)]
                assert transport._pool[(0, 1)]._pending == {}
        finally:
            await transport.stop()

    run(go())


@pytest.mark.parametrize("cls", [ChannelTransport, TcpTransport])
def test_rpc_deadline_timer_is_cancelled_by_the_reply(cls):
    """Each attempt arms one loop timer for its deadline, and the reply
    disarms it."""

    async def go():
        transport = cls(2)
        _register_all(transport, _Peers())
        await transport.start()
        client = RpcClient(transport, RetryPolicy(timeout_s=0.75))
        loop = asyncio.get_running_loop()
        timers = []
        call_later = loop.call_later

        def spy(delay, callback, *args, **kwargs):
            handle = call_later(delay, callback, *args, **kwargs)
            timers.append((delay, handle))
            return handle

        loop.call_later = spy
        try:
            for src in range(2):
                await client.call(src, 1 - src, _pull(src))
        finally:
            del loop.call_later
            await transport.stop()
        deadlines = [handle for delay, handle in timers if delay == 0.75]
        assert len(deadlines) == 2
        assert all(handle.cancelled() for handle in deadlines)

    run(go())


def test_rpc_caller_cancellation_is_not_a_timeout():
    """Cancelling the calling task mid-attempt cancels the call; the
    deadline only turns its own expiry into a timeout."""

    async def go():
        transport = ChannelTransport(2)
        _register_all(transport, _Peers())
        await transport.start()
        client = RpcClient(transport, RetryPolicy(timeout_s=5.0, attempts=3))
        transport.kill(1, mode="silent")
        caller = asyncio.ensure_future(client.call(0, 1, {"kind": "ping", "src": 0}))
        await asyncio.sleep(0.01)
        caller.cancel()
        with pytest.raises(asyncio.CancelledError):
            await caller
        assert client.retries == 0
        assert client.failures == 0
        await transport.stop()

    run(go())


# -- tasks per round -------------------------------------------------------

ROUND_N = 32
_ROUND_VALUES = np.random.default_rng(8).random(ROUND_N)

#: One live round of each kind at n = 32: every node sends one RPC.
ONE_ROUND = {
    "pull": lambda: TournamentProtocol(
        lane_rows(_ROUND_VALUES, np.float64),
        [PullWindow(1, lambda pulls: pulls.rows()[0])],
    ),
    "push": lambda: PushSumProtocol(_ROUND_VALUES, rounds=1),
}


@pytest.mark.parametrize("kind", ONE_ROUND)
@pytest.mark.parametrize("cls", [ChannelTransport, TcpTransport])
def test_a_warm_live_round_creates_no_task(cls, kind):
    """A round over warm connections starts its RPCs in one pass and
    awaits them once: no task per node, none for a deadline or a retry,
    none for answering a gossip frame."""

    async def go():
        transport = cls(ROUND_N)
        loop = asyncio.get_running_loop()
        created = []

        def counting_factory(loop, coro, **kwargs):
            task = asyncio.Task(coro, loop=loop, **kwargs)
            created.append(task)
            return task

        try:
            # The first run dials every pair the round uses; the counted
            # run replays the same partners over the warm connections.
            await arun_protocol(ONE_ROUND[kind](), rng=5, transport=transport)
            loop.set_task_factory(counting_factory)
            try:
                result = await arun_protocol(
                    ONE_ROUND[kind](), rng=5, transport=transport
                )
            finally:
                loop.set_task_factory(None)
        finally:
            await transport.stop()
        assert result.rounds == 1
        assert result.extra["rpc_calls"] == ROUND_N
        assert created == []

    run(go())



class _HookError(RuntimeError):
    pass


class _RaisingPulls(TournamentProtocol):
    """One-lane pull rounds whose ``hook`` raises at every node."""

    def __init__(self, values, hook=None):
        super().__init__(
            lane_rows(values, np.float64),
            [PullWindow(2, lambda pulls: pulls.rows()[0])],
        )
        self.hook = hook

    def serve_pull(self, node, requester, round_index):
        if self.hook == "serve_pull":
            raise _HookError("serve_pull")
        return super().serve_pull(node, requester, round_index)

    def on_receive(self, node, payload, sender, kind, round_index):
        if self.hook == "on_receive":
            raise _HookError("on_receive")
        super().on_receive(node, payload, sender, kind, round_index)


CLEANUP_N = 6
#: Every deadline a cleanup run arms, and every retry backoff it schedules.
CLEANUP_POLICY = RetryPolicy(timeout_s=0.1, attempts=3, backoff_base_s=0.04)


@pytest.mark.parametrize(
    "cls, ending",
    [
        (ChannelTransport, "cancel"),
        (TcpTransport, "cancel"),
        (ChannelTransport, "serve_pull"),
        (ChannelTransport, "on_receive"),
        (TcpTransport, "on_receive"),
    ],
)
def test_an_ended_round_leaves_no_call_behind(cls, ending):
    """A round cut short — its caller cancelled mid-wave, or a protocol
    hook raising while the wave is out (serve_pull) or in the await pass
    (on_receive) — leaves no pending TCP request, no armed deadline timer
    and no scheduled retry.  A silent peer keeps calls waiting on their
    deadlines and a refusing peer keeps retries scheduled."""

    async def go():
        transport = cls(CLEANUP_N)
        loop = asyncio.get_running_loop()
        # handle -> [its delay, whether its callback ran]
        timers = {}
        call_later = loop.call_later

        def spy(delay, callback, *args, **kwargs):
            def fire(*fired_args):
                timers[handle][1] = True
                callback(*fired_args)

            handle = call_later(delay, fire, *args, **kwargs)
            timers[handle] = [delay, False]
            return handle

        def armed():
            return sorted(delay for handle, (delay, fired) in timers.items()
                          if not fired and not handle.cancelled())

        values = np.random.default_rng(4).random(CLEANUP_N)
        hook = None if ending == "cancel" else ending
        try:
            await transport.start()
            # Dial every pair once, untimed, so the cut round runs warm.
            await arun_protocol(_RaisingPulls(values), rng=2, transport=transport)
            transport.kill(1, mode="silent")
            transport.kill(2, mode="refuse")
            loop.call_later = spy
            try:
                run_task = asyncio.ensure_future(arun_protocol(
                    _RaisingPulls(values, hook), rng=2, transport=transport,
                    retry=CLEANUP_POLICY,
                ))
                if ending == "cancel":
                    await asyncio.sleep(0.01)
                    in_flight = armed()
                    run_task.cancel()
                    with pytest.raises(asyncio.CancelledError):
                        await run_task
                else:
                    with pytest.raises(_HookError):
                        await run_task
            finally:
                del loop.call_later
            if ending == "cancel":
                # A retry's backoff and a deadline were out when the caller
                # gave up.
                assert in_flight[0] < CLEANUP_POLICY.timeout_s
                assert in_flight[-1] == CLEANUP_POLICY.timeout_s
            assert armed() == []
            if cls is TcpTransport:
                assert all(client._pending == {} for client in transport._pool.values())
        finally:
            await transport.stop()

    run(go())


@pytest.mark.parametrize("cls", [ChannelTransport, TcpTransport])
def test_rpc_counts_timeouts_apart_from_refusals(cls):
    """Every attempt on a silent peer ends at its deadline and is counted;
    a refused attempt is a retry but no timeout."""

    async def go():
        transport = cls(3)
        _register_all(transport, _Peers())
        await transport.start()
        client = RpcClient(
            transport,
            RetryPolicy(attempts=3, timeout_s=0.02, backoff_base_s=0.001),
        )
        try:
            transport.kill(1, mode="silent")
            with pytest.raises(RpcTimeout):
                await client.call(0, 1, _pull(0))
            assert (client.timeouts, client.retries, client.failures) == (3, 2, 1)
            transport.kill(2, mode="refuse")
            with pytest.raises(RpcError) as refused:
                await client.call(0, 2, _pull(0))
            assert not isinstance(refused.value, RpcTimeout)
            assert (client.timeouts, client.retries, client.failures) == (3, 4, 2)
        finally:
            await transport.stop()

    run(go())


@pytest.mark.parametrize("mode", ["silent", "refuse"])
def test_a_run_reports_rpc_timeouts(mode):
    """``rpc_timeouts`` counts every attempt sent to a silent peer, and
    none of the attempts a refusing peer turns away."""
    transport = ChannelTransport(8)
    transport.kill(3, mode=mode)
    policy = RetryPolicy(attempts=2, timeout_s=0.02, backoff_base_s=0.001)
    result = asyncio.run(asyncio.wait_for(
        arun_protocol(
            PushSumProtocol(np.arange(8.0), rounds=4), rng=2,
            transport=transport, retry=policy,
        ),
        TIMEOUT_S,
    ))
    failures = result.extra["rpc_failures"]
    assert failures > 0
    assert result.extra["rpc_retries"] == failures
    expected = 2 * failures if mode == "silent" else 0
    assert result.extra["rpc_timeouts"] == expected


# -- latency clock ---------------------------------------------------------

#: How long the hog blocks the loop; the wire latencies stay far below it.
HOG_S = 0.05


def _hog():
    """Block the event loop, as a burst of other callbacks would."""
    time.sleep(HOG_S)


def test_channel_latency_leaves_out_the_loop_pass_before_delivery():
    """A call's latency is taken around the peer's handler: a callback
    the loop runs between the call's start and its delivery is not in it."""

    async def go():
        transport = ChannelTransport(2)
        _register_all(transport, lambda dst, frame: {"payload": 1.0})
        await transport.start()
        # The call starts, yields once, and resumes after the hog.
        call = asyncio.ensure_future(transport.call(0, 1, _pull(0)))
        asyncio.get_running_loop().call_soon(_hog)
        assert await call == {"payload": 1.0}
        await transport.stop()
        return transport.latencies_s

    latencies = run(go())
    assert len(latencies) == 1
    assert latencies[0] < HOG_S / 5


def test_tcp_latency_stops_when_the_reply_is_read(monkeypatch):
    """A TCP call's latency runs from the frame's write to the read of its
    reply: a callback queued before the caller resumes is not in it."""
    read_reply = _Client.data_received

    def read_then_hog(self, data):
        asyncio.get_running_loop().call_soon(_hog)
        read_reply(self, data)

    async def go():
        transport = TcpTransport(2)
        _register_all(transport, lambda dst, frame: {"payload": 1.0})
        await transport.start()
        try:
            await transport.call(0, 1, _pull(0))  # dial, untimed below
            transport.latencies_s.clear()
            monkeypatch.setattr(_Client, "data_received", read_then_hog)
            assert await transport.call(0, 1, _pull(0)) == {"payload": 1.0}
        finally:
            await transport.stop()
        return transport.latencies_s

    latencies = run(go())
    assert len(latencies) == 1
    assert latencies[0] < HOG_S / 5
