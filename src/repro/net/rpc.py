"""RPC with per-attempt deadlines and seeded, replayable backoff retries.

Every call gets up to ``attempts`` tries separated by jittered exponential
backoff, and every attempt a deadline.  Calls go out in *waves*
(:meth:`RpcClient.call_all`): one pass starts every call of the wave with
:meth:`~repro.net.transport.Transport.send`, and the caller awaits the
wave once.  Each call's attempts are then driven by loop callbacks, not
by a task: the transport's reply callback settles an attempt, a
``call_later`` timer fails it at its deadline (the attempts of one send
pass share one timer), a refusal or an expiry schedules the next attempt
after its backoff, and the last failure settles the call with
:class:`RpcTimeout` or :class:`RpcError`.
:meth:`RpcClient.call` is a one-call wave.

The jitter is the part that usually ruins determinism — most stacks draw
it from a shared process-global RNG, so the schedule depends on which task
happened to draw first.  Here every delay is derived *statelessly* from
``SeedSequence([entropy, node, seq, attempt])``: the node id, the node's
own call sequence number and the attempt index fully determine the delay,
so retry schedules replay exactly no matter how the event loop interleaves
calls (``tests/test_net_chaos.py`` pins the schedule values).
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ReproError
from repro.net.transport import PeerUnreachable, Request, Transport


class RpcError(ReproError):
    """An RPC failed after exhausting its deadline/retry budget."""


class RpcTimeout(RpcError):
    """The final attempt of an RPC exceeded its deadline."""


class RetryPolicy:
    """Deadline + jittered exponential backoff, derived from a private seed.

    Parameters
    ----------
    timeout_s:
        Per-attempt deadline in seconds.
    attempts:
        Total tries (1 = no retry).
    backoff_base_s:
        Delay before the first retry; doubles (``backoff_factor``) per
        further retry.
    backoff_factor:
        Exponential growth factor of the backoff.
    jitter:
        Fraction of the backoff added as jitter: the delay is
        ``base * factor**attempt * (1 + jitter * u)`` with ``u ∈ [0, 1)``
        drawn statelessly from the policy's entropy and the call identity.
    entropy:
        Private seed of the jitter stream.  Two policies with the same
        entropy produce identical schedules — the replay contract.
    """

    def __init__(
        self,
        timeout_s: float = 0.25,
        attempts: int = 3,
        backoff_base_s: float = 0.01,
        backoff_factor: float = 2.0,
        jitter: float = 0.5,
        entropy: int = 0,
    ) -> None:
        if timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if attempts < 1:
            raise ValueError("attempts must be >= 1")
        if backoff_base_s < 0 or backoff_factor < 1.0 or not 0.0 <= jitter <= 1.0:
            raise ValueError("invalid backoff parameters")
        self.timeout_s = float(timeout_s)
        self.attempts = int(attempts)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_factor = float(backoff_factor)
        self.jitter = float(jitter)
        self.entropy = int(entropy)

    def backoff_s(self, node: int, seq: int, attempt: int) -> float:
        """Backoff before retry ``attempt`` (0-based) of call ``seq`` by ``node``.

        Stateless: the same (entropy, node, seq, attempt) always yields the
        same delay, independent of draw order across tasks.
        """
        base = self.backoff_base_s * self.backoff_factor**attempt
        if self.jitter == 0.0 or base == 0.0:
            return base
        seq_seed = np.random.SeedSequence(
            [self.entropy, int(node), int(seq), int(attempt)]
        )
        u = float(np.random.default_rng(seq_seed).random())
        return base * (1.0 + self.jitter * u)

    def schedule(self, node: int, seq: int) -> Tuple[float, ...]:
        """The full backoff schedule one call would follow if every attempt
        failed — ``attempts - 1`` delays, for replay pinning."""
        return tuple(
            self.backoff_s(node, seq, attempt)
            for attempt in range(self.attempts - 1)
        )


#: One call of a wave: ``(src, dst, frame, delay_s)``.  Its first attempt
#: starts in the wave's send pass, or ``delay_s`` seconds later if positive.
Outgoing = Tuple[int, int, Dict[str, Any], float]

#: What a wave returns per call: the reply, or the error that ended it.
Outcome = Union[Dict[str, Any], "RpcError"]


class _Wave:
    """The calls one :meth:`RpcClient.call_all` started, awaited as one."""

    __slots__ = ("rpc", "loop", "timeout_s", "tries", "calls", "results", "open",
                 "done", "deadline", "covered")

    def __init__(
        self, rpc: "RpcClient", timeout_s: float, tries: int, size: int
    ) -> None:
        self.rpc = rpc
        self.loop = asyncio.get_running_loop()
        self.timeout_s = timeout_s
        self.tries = tries
        self.calls: List[_Call] = []
        self.results: List[Optional[Outcome]] = [None] * size
        self.open = size
        self.done: "asyncio.Future[None]" = self.loop.create_future()
        #: The one deadline of the attempts started in the send pass, and
        #: how many of them are still out.
        self.deadline: Optional[asyncio.TimerHandle] = None
        self.covered = 0

    def settle(self, call: "_Call", outcome: Outcome) -> None:
        self.results[call.index] = outcome
        self.open -= 1
        if not self.open and not self.done.done():
            self.done.set_result(None)

    def fail(self, exc: BaseException) -> None:
        """End the wave with an error that is not an RPC's (a handler bug,
        a frame outside the codec): the awaiting caller raises it."""
        if not self.done.done():
            self.done.set_exception(exc)

    def uncover(self) -> None:
        """One attempt of the send pass is over; the last disarms the
        shared deadline."""
        self.covered -= 1
        if not self.covered:
            self.deadline.cancel()  # type: ignore[union-attr]
            self.deadline = None

    def expire(self) -> None:
        """The send pass's deadline: every attempt still out fails."""
        self.deadline = None
        self.covered = 0
        for call in self.calls:
            if call.shared:
                call.shared = False
                call.expire()


class _Call:
    """One call of a wave, driven attempt by attempt from loop callbacks."""

    __slots__ = ("wave", "index", "src", "dst", "frame", "seq", "attempt",
                 "request", "timer", "shared")

    def __init__(
        self, wave: _Wave, index: int, src: int, dst: int,
        frame: Dict[str, Any], seq: int,
    ) -> None:
        self.wave = wave
        self.index = index
        self.src = src
        self.dst = dst
        self.frame = frame
        self.seq = seq
        self.attempt = 0
        #: The attempt in flight.
        self.request: Optional[Request] = None
        #: Its deadline, or the delay or backoff before the next attempt.
        self.timer: Optional[asyncio.TimerHandle] = None
        #: Whether the attempt out is under the wave's shared deadline.
        self.shared = False

    def send(self) -> bool:
        """Start the next attempt; False if the wave failed on it."""
        wave = self.wave
        self.timer = None
        try:
            self.request = wave.rpc.transport.send(
                self.src, self.dst, self.frame, self.reply
            )
        except Exception as exc:
            wave.fail(exc)
            return False
        return True

    def start(self) -> None:
        """Start the next attempt under a deadline of its own, which
        bounds the whole attempt: the dial, the wait on a silent peer and
        the reply."""
        if self.send():
            wave = self.wave
            self.timer = wave.loop.call_later(wave.timeout_s, self.expire)

    def reply(self, outcome: Union[Dict[str, Any], BaseException]) -> None:
        self.request = None
        if self.shared:
            self.shared = False
            self.wave.uncover()
        else:
            self.timer.cancel()  # type: ignore[union-attr]
            self.timer = None
        if isinstance(outcome, dict):
            self.wave.settle(self, outcome)
        elif isinstance(outcome, PeerUnreachable):
            self.retry(outcome)
        else:
            self.wave.fail(outcome)

    def expire(self) -> None:
        self.timer = None
        self.request.cancel()  # type: ignore[union-attr]
        self.request = None
        self.wave.rpc.timeouts += 1
        self.retry(None)

    def retry(self, refusal: Optional[PeerUnreachable]) -> None:
        """After a failed attempt (``refusal`` None: its deadline fired),
        schedule the next one or settle the call with the error."""
        wave = self.wave
        rpc = wave.rpc
        self.attempt += 1
        if self.attempt < wave.tries:
            rpc.retries += 1
            self.timer = wave.loop.call_later(
                rpc.policy.backoff_s(self.src, self.seq, self.attempt - 1),
                self.start,
            )
            return
        rpc.failures += 1
        what = f"rpc {self.frame.get('kind', '?')} {self.src}->{self.dst}"
        error: RpcError
        if refusal is None:
            error = RpcTimeout(
                f"{what} timed out after {wave.tries} attempt(s) of "
                f"{wave.timeout_s}s"
            )
            error.__cause__ = asyncio.TimeoutError()
        else:
            error = RpcError(
                f"{what} failed after {wave.tries} attempt(s): {refusal}"
            )
            error.__cause__ = refusal
        wave.settle(self, error)

    def abandon(self) -> None:
        """Drop whatever the call still has in flight or scheduled."""
        self.shared = False
        if self.request is not None:
            self.request.cancel()
            self.request = None
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None


class RpcClient:
    """Retrying caller over a :class:`~repro.net.transport.Transport`.

    Each source node gets its own monotonically increasing call sequence
    number, taken in the order a wave lists its calls, so the (node, seq)
    pair is deterministic — which is what anchors the replayable backoff
    schedule.  Counters: ``calls``, ``retries`` (attempts after the
    first), ``timeouts`` (attempts whose deadline fired, refusals apart)
    and ``failures`` (calls that exhausted their attempts).
    """

    def __init__(self, transport: Transport, policy: Optional[RetryPolicy] = None) -> None:
        self.transport = transport
        self.policy = policy if policy is not None else RetryPolicy()
        self.calls = 0
        self.retries = 0
        self.timeouts = 0
        self.failures = 0
        self._seq: Dict[int, int] = {}

    def _next_seq(self, node: int) -> int:
        seq = self._seq.get(node, 0)
        self._seq[node] = seq + 1
        return seq

    async def call_all(
        self,
        calls: Sequence[Outgoing],
        timeout_s: Optional[float] = None,
        attempts: Optional[int] = None,
    ) -> List[Outcome]:
        """Start every call in one pass, then await them all at once.

        Returns, per call and in order, its reply or the :class:`RpcError`
        that ended it.  Any other error (a handler's, a frame outside the
        codec) is raised.  Whether it returns, raises or is cancelled, no
        call of the wave is left in flight, armed or scheduled.
        """
        policy = self.policy
        wave = _Wave(
            self,
            timeout_s if timeout_s is not None else policy.timeout_s,
            attempts if attempts is not None else policy.attempts,
            len(calls),
        )
        try:
            for index, (src, dst, frame, delay_s) in enumerate(calls):
                call = _Call(wave, index, src, dst, frame, self._next_seq(src))
                wave.calls.append(call)
                self.calls += 1
                if delay_s > 0:
                    call.timer = wave.loop.call_later(delay_s, call.start)
                elif call.send():
                    call.shared = True
                    wave.covered += 1
            if wave.covered:
                # One deadline for every attempt the pass started.
                wave.deadline = wave.loop.call_later(wave.timeout_s, wave.expire)
            if wave.open:
                await wave.done
        finally:
            if wave.open:
                if wave.deadline is not None:
                    wave.deadline.cancel()
                for call in wave.calls:
                    call.abandon()
        return wave.results  # type: ignore[return-value]

    async def call(
        self,
        src: int,
        dst: int,
        frame: Dict[str, Any],
        timeout_s: Optional[float] = None,
        attempts: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Call ``dst`` with retries; raises :class:`RpcError` on exhaustion."""
        (outcome,) = await self.call_all(
            ((src, dst, frame, 0.0),), timeout_s=timeout_s, attempts=attempts
        )
        if isinstance(outcome, RpcError):
            raise outcome
        return outcome
