"""RPC with per-call deadlines and seeded, replayable backoff retries.

Every call gets up to ``attempts`` tries separated by jittered exponential
backoff, and every attempt a deadline: a loop timer that cancels the
calling task (:class:`_Deadline`), so an attempt runs in its caller's task
and no wrapper task is created per attempt, as ``asyncio.wait_for`` does
before Python 3.12.

The jitter is the part that usually ruins determinism — most stacks draw
it from a shared process-global RNG, so the schedule depends on which task
happened to draw first.  Here every delay is derived *statelessly* from
``SeedSequence([entropy, node, seq, attempt])``: the node id, the node's
own call sequence number and the attempt index fully determine the delay,
so retry schedules replay exactly no matter how the event loop interleaves
tasks (``tests/test_net_chaos.py`` pins the schedule values).
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.exceptions import ReproError
from repro.net.transport import PeerUnreachable, Transport


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


class _Deadline:
    """One attempt's deadline: a timer that cancels the calling task.

    The attempt catches the :class:`asyncio.CancelledError` and asks
    :meth:`expired` whether the cancellation was this timer's; only then
    is it an :class:`asyncio.TimeoutError`.  Tasks that count cancel
    requests (``Task.uncancel``) get this one taken back, so an enclosing
    ``asyncio.timeout`` or ``TaskGroup`` counts only its own, and a
    cancellation requested by anyone else propagates.
    """

    __slots__ = ("_task", "_handle", "_requested", "_fired")

    def __init__(self, timeout_s: float) -> None:
        task = asyncio.current_task()
        if task is None:
            raise RuntimeError("an RPC deadline needs a running task")
        self._task = task
        cancelling = getattr(task, "cancelling", None)
        self._requested = cancelling() if cancelling is not None else 0
        self._fired = False
        self._handle = asyncio.get_running_loop().call_later(timeout_s, self._fire)

    def _fire(self) -> None:
        self._fired = True
        self._task.cancel()

    def cancel(self) -> None:
        """Disarm the timer (the attempt is over, either way)."""
        self._handle.cancel()

    def expired(self) -> bool:
        """Whether the cancellation the attempt caught is this deadline's."""
        if not self._fired:
            return False
        uncancel = getattr(self._task, "uncancel", None)
        return uncancel is None or uncancel() <= self._requested


class RpcClient:
    """Retrying caller over a :class:`~repro.net.transport.Transport`.

    Each source node gets its own monotonically increasing call sequence
    number; one task per node means the (node, seq) pair is deterministic,
    which is what anchors the replayable backoff schedule.
    """

    def __init__(self, transport: Transport, policy: Optional[RetryPolicy] = None) -> None:
        self.transport = transport
        self.policy = policy if policy is not None else RetryPolicy()
        self.calls = 0
        self.retries = 0
        self.failures = 0
        self._seq: Dict[int, int] = {}

    def _next_seq(self, node: int) -> int:
        seq = self._seq.get(node, 0)
        self._seq[node] = seq + 1
        return seq

    async def call(
        self,
        src: int,
        dst: int,
        frame: Dict[str, Any],
        timeout_s: Optional[float] = None,
        attempts: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Call ``dst`` with retries; raises :class:`RpcError` on exhaustion."""
        policy = self.policy
        deadline = timeout_s if timeout_s is not None else policy.timeout_s
        tries = attempts if attempts is not None else policy.attempts
        seq = self._next_seq(src)
        self.calls += 1
        last: Optional[BaseException] = None
        for attempt in range(tries):
            if attempt:
                self.retries += 1
                await asyncio.sleep(policy.backoff_s(src, seq, attempt - 1))
            # The deadline bounds the whole attempt: the dial, the wait on
            # a silent peer and the reply.
            timer = _Deadline(deadline)
            try:
                return await self.transport.call(src, dst, frame)
            except PeerUnreachable as exc:
                last = exc
            except asyncio.CancelledError:
                if not timer.expired():
                    raise
                last = asyncio.TimeoutError()
            finally:
                timer.cancel()
        self.failures += 1
        if isinstance(last, asyncio.TimeoutError):
            raise RpcTimeout(
                f"rpc {frame.get('kind', '?')} {src}->{dst} timed out after "
                f"{tries} attempt(s) of {deadline}s"
            ) from last
        raise RpcError(
            f"rpc {frame.get('kind', '?')} {src}->{dst} failed after "
            f"{tries} attempt(s): {last}"
        ) from last
