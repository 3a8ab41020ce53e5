"""The asyncio round engine: simulated semantics over a real transport.

:func:`run_protocol_asyncio` is the per-node engine behind
:func:`repro.gossip.engine.run_protocol` (``engine="asyncio"``) and, over
the in-process channel transport, the reference the vectorized engine is
held bit-identical to.  It runs
the *same* :class:`~repro.gossip.protocol.GossipProtocol` implementations,
unmodified, with every node speaking push / pull / push-pull RPC through
a :class:`~repro.net.transport.Transport`.  A round costs no task: its
frames start in one pass as one :meth:`~repro.net.rpc.RpcClient.call_all`
wave, which the round awaits once.

Equivalence with the vectorized engine is by construction, not by luck:

* the round prologue — metrics record, failure mask, partner draw — is the
  vectorized engine's :func:`~repro.gossip.engine.begin_round`, so the engine
  random stream is consumed identically and round counts match;
* message/bit accounting is one message per push and per pull
  *response*, sized by ``protocol.message_bits`` with the ``payload_bits``
  fallback — the per-message sizes the vectorized engine charges in bulk —
  so ``NetworkMetrics`` totals match;
* rounds are synchronous: all acts happen before any delivery (a barrier,
  as in the vectorized engine), then the round's frames are in flight
  together.  Peers serve pulls as the frames arrive, so the backend
  requires the delivery-order independence contract that
  :class:`~repro.gossip.protocol.BatchGossipProtocol` marks — the same
  contract the vectorized engine already relies on.  Received pushes are
  merged at the barrier in sender order, then each sender's outcome
  (``on_send_success`` / ``on_send_failure``, a pull's ``on_receive``)
  is applied in node order, so a run's float merges are the same on
  every transport.

Faults (``env.faults``) are reinterpreted at the transport level: ``crash``
kills the node's endpoint for its downtime (callers get connection
refused), ``drop`` loses the frame in flight (a pull request goes
unanswered), ``delay`` holds a push's write, ``corrupt`` scales a push's
payload in flight, ``duplicate`` sends (and charges) a push twice in the
same wave, unless the first copy failed (a pull response is charged
twice).  The injector's private stream is
consumed one draw per round exactly as on the vectorized engine, so a
seeded chaos schedule replays bit-for-bit across both engines, and each
round's decision also goes to
:meth:`~repro.gossip.protocol.GossipProtocol.on_round_faults`: a protocol
that applies the message-level kinds to its pulls itself (the tournament
pull windows: delayed and corrupted responses, state-loss restarts) does
so identically on both engines.  Two documented deviations from the
simulated fault semantics: a dropped frame here is *sent and lost* (the
sender still acted, so it is not counted as a failed node) rather than
act-suppressed, and outside such a protocol a crash-restart does not
reset values (state restoration is a storage concern the live backend
does not model).

When a push cannot be delivered — dead peer, exhausted retries — the
engine invokes the protocol's graceful-degradation hook
:meth:`~repro.gossip.protocol.GossipProtocol.on_send_failure`, whose
default re-merges the undeliverable payload into the sender (the
Section-5 "keep your half" rule), so conserved aggregates (push-sum mass)
survive peers dying mid-run and an in-flight quantile query can complete
with honestly widened bounds (:mod:`repro.net.quantile`).
"""

from __future__ import annotations

import asyncio
from operator import itemgetter
from time import perf_counter
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError, ConvergenceError, ProtocolError
from repro.faults.injectors import RoundFaults
from repro.gossip.engine import (
    begin_round,
    begin_run,
    finish_run,
    require_batch_protocol,
    EngineResult,
)
from repro.gossip.env import GossipEnv
from repro.gossip.messages import payload_bits
from repro.gossip.metrics import NetworkMetrics, RoundRecord
from repro.gossip.protocol import Action, GossipProtocol
from repro.net.failure_detector import SwimFailureDetector
from repro.net.rpc import Outgoing, RetryPolicy, RpcClient, RpcError
from repro.net.transport import Transport, resolve_transport
from repro.obs.tracer import get_tracer
from repro.utils.rand import RandomSource


def _scale_payload(payload: Any, factor: float) -> Any:
    """Scale every numeric lane of a payload (in-flight corruption)."""
    if payload is None:
        return None
    if isinstance(payload, (tuple, list)):
        scaled = [_scale_payload(item, factor) for item in payload]
        return tuple(scaled) if isinstance(payload, tuple) else scaled
    return type(payload)(float(payload) * factor)


def _message_bits(protocol: GossipProtocol, payload: Any, n: int) -> int:
    bits = protocol.message_bits(payload)
    if bits is None:
        bits = payload_bits(payload, n=n)
    return int(bits)


class _NodeHost:
    """Per-run server side: answers push / pull / ping / ping-req frames.

    One instance serves every node (the handler receives the destination
    id), mirroring how the vectorized engine holds all node state in one
    protocol object; the per-node identity lives in the frames.  A push is
    acknowledged on arrival and queued in :attr:`inbox`; the runner merges
    the queue at the round barrier in sender order, so a merge's float
    order does not depend on which socket the loop read first.
    """

    def __init__(
        self,
        protocol: GossipProtocol,
        detector: Optional[SwimFailureDetector],
    ) -> None:
        self.protocol = protocol
        self.detector = detector
        self.rpc: Optional[RpcClient] = None
        #: Pushes received and not merged yet: (src, dst, payload, round).
        self.inbox: List[Tuple[int, int, Any, int]] = []

    def merge_pushes(self) -> None:
        """Deliver the queued pushes, in sender order (a sender's in the
        order they arrived)."""
        inbox, self.inbox = self.inbox, []
        inbox.sort(key=itemgetter(0))
        for src, dst, payload, round_index in inbox:
            self.protocol.on_receive(dst, payload, src, "push", round_index)

    def handle(
        self, dst: int, frame: Dict[str, Any]
    ) -> Union[Dict[str, Any], Awaitable[Dict[str, Any]]]:
        """Answer one frame: push, pull and ping at once, without awaiting;
        ping-req returns an awaitable, since it waits on an indirect probe."""
        kind = frame.get("kind")
        if kind == "push":
            suspected = frame.get("sus")
            if suspected and self.detector is not None:
                self.detector.merge_digest(suspected, int(frame["round"]))
            self.inbox.append(
                (int(frame["src"]), dst, frame["payload"], int(frame["round"]))
            )
            return {"ok": True}
        if kind == "pull":
            payload = self.protocol.serve_pull(
                dst, int(frame["src"]), int(frame["round"])
            )
            return {"payload": payload}
        if kind == "ping":
            return {"ok": True}
        if kind == "ping-req":
            return self._ping_req(dst, frame)
        raise ProtocolError(f"unknown frame kind {kind!r}")

    async def _ping_req(self, dst: int, frame: Dict[str, Any]) -> Dict[str, Any]:
        # Indirect probe: ping the target on the requester's behalf.
        if self.rpc is None:
            return {"ok": False}
        try:
            await self.rpc.call(
                dst,
                int(frame["target"]),
                {"kind": "ping", "src": dst},
                timeout_s=float(frame.get("timeout_s", 0.05)),
                attempts=1,
            )
            return {"ok": True}
        except RpcError:
            return {"ok": False}


async def arun_protocol(
    protocol: GossipProtocol,
    rng: Union[None, int, RandomSource] = None,
    max_rounds: int = 10_000,
    metrics: Optional[NetworkMetrics] = None,
    raise_on_budget: bool = True,
    on_round: Optional[Callable[[RoundRecord, float], None]] = None,
    env: Optional[GossipEnv] = None,
    transport: Union[None, str, Transport] = None,
    retry: Optional[RetryPolicy] = None,
    detector: Optional[SwimFailureDetector] = None,
    delay_unit_s: float = 0.005,
) -> EngineResult:
    """Async body of :func:`run_protocol_asyncio` (compose with servers)."""
    require_batch_protocol(protocol)
    n = protocol.n
    # Validate the run inputs before any endpoint opens.
    source, env, stats, sampler = begin_run(protocol, rng, metrics, env)
    failures, process, faults = env.failure_model, env.topology_process, env.faults
    live_transport, owned = resolve_transport(transport, n)
    rpc = RpcClient(live_transport, retry)
    host = _NodeHost(protocol, detector)
    host.rpc = rpc
    for node in range(n):
        live_transport.register(node, host.handle)
    await live_transport.start()
    if detector is not None:
        detector.attach(rpc)

    hook = on_round if on_round is not None else get_tracer().on_round
    lost_pushes = 0
    fault_killed: set = set()

    async def deliver_round(
        actions: List[Optional[Action]],
        partners: np.ndarray,
        round_index: int,
        rf: Optional[RoundFaults],
        record: RoundRecord,
        suspicion: Optional[List[int]],
    ) -> int:
        """One round's deliveries: every frame starts in one pass, the
        round awaits them as one wave, then the received pushes are merged
        in sender order and each sender's outcome is applied in node
        order.  Returns the frames lost."""
        lost = 0
        calls: List[Outgoing] = []
        # (node, partner, kind, duplicated) per node that sends, in order.
        sends: List[Tuple[int, int, str, bool]] = []
        for node, action in enumerate(actions):
            if action is None or action.kind == "idle":
                continue
            partner = int(partners[node])
            dropped = rf is not None and bool(rf.dropped[node])
            twice = rf is not None and bool(rf.duplicated[node])
            if action.kind in ("push", "pushpull"):
                if dropped:
                    # Lost datagram: sent, never delivered.
                    lost += 1
                    protocol.on_send_failure(node, action.payload, round_index)
                else:
                    payload = action.payload
                    delay_s = 0.0
                    if rf is not None:
                        if rf.corruption[node] != 1.0:
                            payload = _scale_payload(
                                payload, float(rf.corruption[node])
                            )
                        # A held write: the frame leaves late but within the
                        # round barrier, so synchronous semantics survive
                        # bounded delays.
                        delay_s = delay_unit_s * int(rf.delay[node])
                    frame = {
                        "kind": "push",
                        "src": node,
                        "round": round_index,
                        "payload": payload,
                    }
                    if suspicion:
                        frame["sus"] = suspicion
                    calls.append((node, partner, frame, delay_s))
                    if twice:
                        calls.append((node, partner, frame, delay_s))
                    sends.append((node, partner, "push", twice))
            if action.kind in ("pull", "pushpull"):
                if dropped:
                    # Lost request: the node keeps its prior value, exactly
                    # what a failed pull means on the vectorized engine.
                    lost += 1
                else:
                    calls.append((
                        node, partner,
                        {"kind": "pull", "src": node, "round": round_index},
                        0.0,
                    ))
                    sends.append((node, partner, "pull", twice))
        outcomes = iter(await rpc.call_all(calls))
        host.merge_pushes()
        for node, partner, kind, twice in sends:
            outcome = next(outcomes)
            if kind == "push":
                payload = actions[node].payload  # type: ignore[union-attr]
                again = next(outcomes) if twice else None
                if isinstance(outcome, RpcError):
                    # Dead peer or exhausted retries; the duplicate met the
                    # same peer in the same round, so it is not charged.
                    lost += 1
                    protocol.on_send_failure(node, payload, round_index)
                    continue
                bits = _message_bits(protocol, payload, n)
                stats.record_messages(1, bits, record)
                protocol.on_send_success(node, round_index)
                if twice:
                    if isinstance(again, RpcError):
                        lost += 1
                        protocol.on_send_failure(node, payload, round_index)
                    else:
                        stats.record_messages(1, bits, record)
            elif isinstance(outcome, RpcError):
                # The pull went unanswered: the node keeps its prior value.
                lost += 1
            else:
                response = outcome["payload"]
                bits = _message_bits(protocol, response, n)
                # A duplicated response is charged twice, delivered once.
                stats.record_messages(2 if twice else 1, bits, record)
                protocol.on_receive(node, response, partner, "pull", round_index)
        return lost

    try:
        round_index = 0
        completed = protocol.is_done(round_index)
        while not completed and round_index < max_rounds:
            if hook is not None:
                round_started = perf_counter()
            rf: Optional[RoundFaults] = None
            if faults is not None:
                # the round begin_round is about to open, on the metrics clock
                rf = faults.draw(stats.rounds, n)
                stats.record_faults_injected(rf.injected)
                for node in np.flatnonzero(rf.crashed):
                    node = int(node)
                    if not live_transport.is_down(node):
                        live_transport.kill(node, mode="refuse")
                        fault_killed.add(node)
                for node in np.flatnonzero(rf.restarted):
                    node = int(node)
                    if node in fault_killed:
                        live_transport.revive(node)
                        fault_killed.discard(node)

            record, failed, partners = begin_round(
                protocol, round_index, n, source, failures, stats, sampler,
                process, None,
            )
            if rf is not None:
                protocol.on_round_faults(round_index, rf)
            down = live_transport.down
            if down:
                extra_failed = sum(
                    1 for node in down if not failed[node]
                )
                if extra_failed:
                    stats.record_failures(extra_failed, record)

            # Act barrier: every live node's act-phase state transition
            # happens before any delivery, as in the vectorized engine.
            actions: List[Optional[Action]] = [None] * n
            for node in range(n):
                if failed[node] or node in down:
                    continue
                action = protocol.act(node, round_index)
                if not isinstance(action, Action):
                    raise ProtocolError(
                        f"{protocol.name}: act() must return an Action, "
                        f"got {action!r}"
                    )
                actions[node] = action

            suspicion = detector.digest() if detector is not None else None
            lost_pushes += await deliver_round(
                actions, partners, round_index, rf, record, suspicion
            )

            if detector is not None:
                probers = [
                    node for node in range(n)
                    if not live_transport.is_down(node)
                ]
                await detector.run_round(round_index, probers)

            protocol.end_round(round_index)
            if hook is not None:
                hook(record, perf_counter() - round_started)
            round_index += 1
            completed = protocol.is_done(round_index)
    finally:
        if owned:
            await live_transport.stop()

    result = finish_run(
        protocol, stats, round_index, completed, max_rounds, raise_on_budget
    )
    result.extra["transport"] = type(live_transport).__name__
    result.extra["lost_messages"] = lost_pushes
    result.extra["rpc_calls"] = rpc.calls
    result.extra["rpc_retries"] = rpc.retries
    result.extra["rpc_timeouts"] = rpc.timeouts
    result.extra["rpc_failures"] = rpc.failures
    result.extra["crashed_nodes"] = sorted(live_transport.down)
    if detector is not None:
        result.extra["suspected"] = sorted(detector.suspected)
        result.extra["confirmed_dead"] = sorted(detector.confirmed)
    return result


def run_protocol_asyncio(
    protocol: GossipProtocol,
    rng: Union[None, int, RandomSource] = None,
    max_rounds: int = 10_000,
    metrics: Optional[NetworkMetrics] = None,
    raise_on_budget: bool = True,
    on_round: Optional[Callable[[RoundRecord, float], None]] = None,
    env: Optional[GossipEnv] = None,
    transport: Union[None, str, Transport] = None,
    retry: Optional[RetryPolicy] = None,
    detector: Optional[SwimFailureDetector] = None,
    delay_unit_s: float = 0.005,
    run_timeout_s: float = 120.0,
) -> EngineResult:
    """Run ``protocol`` over a live transport; the ``engine="asyncio"`` path.

    Accepts every :func:`~repro.gossip.engine.run_protocol_vectorized` parameter
    plus the net-specific knobs: ``transport`` (``None``/"channel" for the
    in-process transport, ``"tcp"`` for loopback TCP, or a reusable
    :class:`~repro.net.transport.Transport` instance whose kill state
    persists across runs), ``retry`` (the
    :class:`~repro.net.rpc.RetryPolicy`), ``detector`` (a
    :class:`~repro.net.failure_detector.SwimFailureDetector` run
    per-round), ``delay_unit_s`` (seconds per fault delay window) and
    ``run_timeout_s`` — a hard wall-clock ceiling on the whole run, so a
    wedged network can never hang a caller (or CI) indefinitely.
    """
    if run_timeout_s <= 0:
        raise ConfigurationError("run_timeout_s must be positive")
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        pass
    else:
        raise ConfigurationError(
            "run_protocol_asyncio() cannot be called from a running event "
            "loop; await arun_protocol(...) instead"
        )
    try:
        return asyncio.run(
            asyncio.wait_for(
                arun_protocol(
                    protocol,
                    rng=rng,
                    max_rounds=max_rounds,
                    metrics=metrics,
                    raise_on_budget=raise_on_budget,
                    on_round=on_round,
                    env=env,
                    transport=transport,
                    retry=retry,
                    detector=detector,
                    delay_unit_s=delay_unit_s,
                ),
                run_timeout_s,
            )
        )
    except asyncio.TimeoutError as exc:
        raise ConvergenceError(
            f"asyncio run of {protocol.name!r} exceeded its hard "
            f"{run_timeout_s}s wall-clock ceiling"
        ) from exc
