"""Pull windows: the one gossip protocol every tournament runs on.

Algorithms 1 and 2, the final vote, Section 5's robust variant and the
median rule are synchronous pull rounds grouped into windows: in each of a
window's ``k`` rounds every alive node pulls one partner's values as they
stood at the window's start, and when the window closes a kernel turns
the pulled values into the nodes' new values.  :class:`TournamentProtocol`
runs such a plan over ``(L, n)`` lane rows (a message carries one value
per lane) on either gossip engine, through the engines' one round prologue
(:func:`~repro.gossip.engine.begin_round`).

A pull that did not happen (the puller sat the round out, or on the
asyncio engine its request went unanswered) reads the puller's own values.
The per-node engine records who answered; a response is the partner's
window-start row, so both engines gather from that frozen snapshot.

Who pulls whom never depends on state, so a window's pulls need not wait
for it to close.  A window of at most :data:`STREAM_MAX_LANES` lanes (a
tournament, the vote, the robust variant, the median rule,
:meth:`~repro.gossip.network.GossipNetwork.pull`) is *streamed*: each
round is gathered into the window's buffer as the round ends, so on the
vectorized engine the gather runs while the prefetch thread draws the next
round's partners.  The buffer is stored node-major, ``(k, n, L)``, so a
round is one gather that moves each partner's ``L`` values together, and
it is reused by the next window of the same shape once the kernel that
read it has returned.  A wider window (a service's rank grid) is gathered
lane-major when it closes, where each lane's row serves all ``k`` rounds
from cache.

Both engines hand the round's injected faults to the protocol
(:meth:`~repro.gossip.protocol.GossipProtocol.on_round_faults`), and one
function, :func:`deliver`, gathers rounds and applies their faults — a
streamed round as it ends, a wide window's rounds at the close: a pull
delayed by ``d`` reads the window-start snapshot ``d`` windows back (a
ring of ``max_delay`` snapshots; deeper delays serve the oldest one
held), and corruption scales only the delivered copies.  Duplicates are
charged as extra messages, and a node restarted from a ``reset_values``
crash holds its initial lanes at the window boundary.  Like every run, a
plan meets the env's schedules on the clock of the metrics it accumulates
into (:func:`~repro.gossip.engine.start_schedules`), so the chunks of a
rank grid or a service's rebuilds share one round clock.
"""

from __future__ import annotations

import weakref
from collections import deque
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.faults.injectors import FaultInjector, RoundFaults
from repro.gossip.engine import run_protocol
from repro.gossip.env import GossipEnv, resolve_env
from repro.gossip.messages import BITS_PER_VALUE, tournament_message_bits
from repro.gossip.metrics import NetworkMetrics
from repro.gossip.protocol import Action, BatchAction, BatchGossipProtocol, GossipProtocol
from repro.obs.tracer import get_tracer
from repro.utils.rand import RandomSource
from repro.utils.views import ReadOnlyArray


#: One round's pulls: whom each node pulled, whether the pull happened,
#: and the round's injected faults (``None`` without an injector).
Pulls = Tuple[np.ndarray, np.ndarray, Optional[RoundFaults]]

#: Most lanes a window streams.  A streamed round hides one partner draw
#: behind its gather, one node-major take of all ``L`` lanes, where a
#: gather at the close takes lane by lane and reuses each lane's row,
#: still cache-resident, for all ``k`` rounds.  On a shared VM with two
#: vCPUs of an Intel Xeon (4 MiB L2 each, 105 MiB L3), ten 3-round windows
#: on the vectorized engine took, closed → streamed (medians of 5):
#: 33 → 36 ms (1 lane), 57 → 50 (2), 95–141 → 81 (4), 161 → 183 (8) and
#: 464 → 318 (19) at n = 10⁵; 592 → 410 ms (1), 1110 → 699 (2),
#: 2010 → 1039 (4) and 3545 → 1965 (8) at n = 10⁶.  One 15-round vote at
#: n = 10⁶ took 509 → 298 ms (1 lane) and 737 → 456 ms (2 lanes).  The
#: cap stays at 4 (8 lanes lose at n = 10⁵) until a service build with
#: its 19-lane windows and vote streamed is measured end to end.
STREAM_MAX_LANES = 4


def window_buffer(rounds: int, rows: np.ndarray) -> np.ndarray:
    """An empty ``(k, L, n)`` pull buffer for ``rounds`` rounds over ``rows``.

    Up to :data:`STREAM_MAX_LANES` lanes it is stored node-major, as
    ``(k, n, L)``, and returned as that array's transpose; a wider one is
    lane-major.
    """
    lanes, n = rows.shape
    if lanes > STREAM_MAX_LANES:
        return np.empty((rounds, lanes, n), dtype=rows.dtype)
    return np.empty((rounds, n, lanes), dtype=rows.dtype).transpose(0, 2, 1)


def deliver(
    source: np.ndarray,
    rounds: Sequence[Pulls],
    ring: Sequence[np.ndarray],
    out: np.ndarray,
) -> None:
    """Write what ``rounds`` of pulls delivered into ``out`` (``(k, L, n)``).

    Each node reads its partner's ``source`` values; then, under a round's
    faults, a pull delayed by ``d`` reads the ``ring`` entry ``d`` windows
    back (the oldest held, if fewer) instead, and a corrupted pull's copy
    is scaled.
    """
    # mode="clip" skips the bounds check (partners are in range).
    if out.shape[1] > 1 and out.strides[1] < out.strides[2]:
        # Node-major: one gather per round reads each partner's L values
        # from one cache line of the (n, L) rows (source.T itself when the
        # rows are node-major already, else one copy).
        packed = np.asfortranarray(source).T
        for pulled, (partners, _, _) in zip(out, rounds):
            np.take(packed, partners, axis=0, out=pulled.T, mode="clip")
    else:
        # Lane-major, so each lane's row stays cache-resident for its
        # rounds' gathers.
        for lane, row in enumerate(source):
            for column, (partners, _, _) in enumerate(rounds):
                np.take(row, partners, out=out[column, lane], mode="clip")
    for (partners, ok, faults), pulled in zip(rounds, out):
        if faults is None:
            continue
        if ring:
            for delay in np.unique(faults.delay[ok & (faults.delay > 0)]):
                stale = ring[-int(min(delay, len(ring)))]
                late = ok & (faults.delay == delay)
                pulled[:, late] = stale[:, partners[late]]
        hit = ok & (faults.corruption != 1.0)
        pulled[:, hit] = pulled[:, hit] * faults.corruption[hit]


class WindowPulls:
    """What one window's pulls delivered, handed to the window's kernel.

    Pulls read ``source``, the ``(L, n)`` rows at the window's start; per
    round, ``partners`` holds whom each node pulled (itself where the pull
    did not happen) and ``ok`` whether the pull happened.  ``snapshot`` is
    each node's own values at the window's end — ``source``, except that a
    node restarted from a state-loss crash holds its initial lanes — and is
    what a kernel keeps for a node (or a lane) it does not update.

    ``pulled`` is a streamed window's buffer (:func:`window_buffer`), every
    round already :func:`deliver`-ed into it as the round ended; without it
    :meth:`rows` gathers at the close.  Either way :meth:`rows` and
    :meth:`block` return the same values.
    """

    def __init__(
        self,
        source: np.ndarray,
        partners: List[np.ndarray],
        ok: List[np.ndarray],
        faults: Sequence[Optional[RoundFaults]] = (),
        ring: Sequence[np.ndarray] = (),
        snapshot: Optional[np.ndarray] = None,
        pulled: Optional[np.ndarray] = None,
    ) -> None:
        self.source = source
        self.snapshot = source if snapshot is None else snapshot
        self.partners = partners
        self.ok = ok
        self._rounds: List[Pulls] = list(zip_longest(partners, ok, faults))
        self._faulted = any(f is not None for f in faults)
        self._ring = ring
        self._pulled = pulled

    @property
    def n(self) -> int:
        return int(self.source.shape[1])

    def partner_block(self) -> np.ndarray:
        """The partners as one ``(n, k)`` matrix (stacked as rows, then
        transposed in one copy: ``k`` strided column writes are ~3× slower)."""
        return np.array(self.partners).T.copy()

    def ok_block(self) -> np.ndarray:
        """Whether each pull happened, as one ``(n, k)`` matrix."""
        return np.stack(self.ok, axis=1)

    def rows(self) -> np.ndarray:
        """The pulled values as ``(k, L, n)``, one ``(L, n)`` slab per round
        (the two- and three-tournament layout).

        This is the window's one buffer (gathered on the first call if the
        window was not streamed), a view of a node-major ``(k, n, L)`` array
        up to :data:`STREAM_MAX_LANES` lanes and lane-major above.  A kernel
        may write into it.  A streamed window's buffer is reused by the next
        window of the same shape: from then on this object gathers its pulls
        again, so an array it returned earlier holds the later window's.
        """
        if self._pulled is None:
            self._pulled = window_buffer(len(self.partners), self.source)
            deliver(self.source, self._rounds, self._ring, self._pulled)
        return self._pulled

    def depth(self, column: int) -> np.ndarray:
        """How many windows back each node's pull of round ``column`` read:
        0 for this window's start, ``d`` for a pull delayed by ``d`` (at
        most the ring's length)."""
        depth = np.zeros(self.n, dtype=np.int64)
        _, ok, faults = self._rounds[column]
        if faults is not None and self._ring:
            late = ok & (faults.delay > 0)
            depth[late] = np.minimum(faults.delay[late], len(self._ring))
        return depth

    def block(self) -> np.ndarray:
        """The pulled values as ``(L, n, k)``, each node's ``k`` samples
        along the last axis (the vote layout).

        Once the window's :meth:`rows` buffer exists (the window was
        streamed or faulted, or :meth:`rows` was called), this is that
        buffer seen through a transpose, a view: writes into either show
        in the other, a kernel that sorts it in place sorts the window's
        own buffer, and it is valid as long as :meth:`rows`' buffer is.
        Otherwise it is a fresh array, one gather per lane with each
        node's samples contiguous.
        """
        if self._pulled is not None or self._faulted:
            return self.rows().transpose(1, 2, 0)
        partners = self.partner_block()
        pulled = np.empty((self.source.shape[0],) + partners.shape,
                          dtype=self.source.dtype)
        for lane, row in enumerate(self.source):
            np.take(row, partners, out=pulled[lane], mode="clip")
        return pulled


@dataclass(eq=False)
class Phase:
    """Consecutive windows of a plan (one algorithm of a composition) that
    run under one tracer span ``name``, annotated with ``meta``; its
    :attr:`input` is set to the rows it starts from."""

    name: str
    meta: Dict[str, Any] = field(default_factory=dict)
    input: Optional[np.ndarray] = None


@dataclass(frozen=True)
class PullWindow:
    """``rounds`` pull rounds labelled ``label``, then ``kernel``.

    The kernel returns the nodes' new ``(L, n)`` rows: a fresh array, or
    ``pulls.snapshot`` itself.  ``run_if`` (optional) is checked on the
    rows when the window is due; if it returns False the run ends there.
    ``phase`` (optional) is the :class:`Phase` the window belongs to.
    """

    rounds: int
    kernel: Callable[[WindowPulls], np.ndarray]
    label: str = "pull"
    run_if: Optional[Callable[[np.ndarray], bool]] = None
    phase: Optional[Phase] = None

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ConfigurationError("a pull window needs at least one round")


def lane_rows(values: Union[Sequence[float], np.ndarray], dtype: np.dtype) -> np.ndarray:
    """``(n,)`` values or an ``(n, L)`` matrix as C-ordered ``(L, n)`` rows."""
    array = np.asarray(values)
    if array.ndim not in (1, 2) or array.shape[-1] < 1:
        raise ConfigurationError(
            "values must be one-dimensional (single lane) or an (n, lanes) matrix"
        )
    if array.shape[0] < 2:
        raise ConfigurationError("a gossip run needs at least 2 nodes")
    return np.array(array[None] if array.ndim == 1 else array.T, dtype=dtype, order="C")


class TournamentProtocol(BatchGossipProtocol, GossipProtocol):
    """Run a plan of pull windows over ``(L, n)`` lane rows.

    ``rows`` is adopted and never written in place; after the run
    :attr:`rows` holds the last window's output.  ``faults`` is the env's
    injector, which sizes the delay ring and says whether restarts lose
    state; ``metrics`` (optional) is what the phase spans measure.
    """

    def __init__(
        self,
        rows: np.ndarray,
        windows: Sequence[PullWindow],
        faults: Optional[FaultInjector] = None,
        metrics: Optional[NetworkMetrics] = None,
    ) -> None:
        super().__init__(rows.shape[1])
        self.rows = self._initial = rows
        self._windows = list(windows)
        self._identity = np.arange(self.n)
        # One message per pull, carrying one value per lane under one
        # framing (the paper's shared O(log n)-bit window).
        self._bits = tournament_message_bits(self.n) + (rows.shape[0] - 1) * BITS_PER_VALUE
        self._ring: Optional[Deque[np.ndarray]] = (
            deque(maxlen=faults.max_delay) if faults and faults.max_delay else None
        )
        self._reset = faults is not None and faults.reset_on_restart
        self._window = 0
        self._pulls: List[Pulls] = []
        self._pending: Optional[Tuple[np.ndarray, np.ndarray]] = None
        # A streamed window's buffer and the rows it gathers from, packed
        # node-major (the window-start rows, or one copy of them).
        self._stream: Optional[Tuple[np.ndarray, np.ndarray]] = None
        # A closed streamed window's buffer and (weakly) the WindowPulls
        # that still reads it, until a window of the same shape takes it.
        self._spare: Optional[Tuple[np.ndarray, weakref.ref[WindowPulls]]] = None
        self._round_faults: Optional[RoundFaults] = None
        self._metrics = metrics
        self._phase: Optional[Phase] = None
        self._span = ExitStack()
        self.name = self._windows[0].label if self._windows else "tournament"

    def is_done(self, round_index: int) -> bool:
        if self._window < len(self._windows) and not self._pulls:
            window = self._windows[self._window]
            if window.run_if is not None and not window.run_if(self.rows):
                self._window = len(self._windows)
            elif window.phase is not self._phase:
                self.enter(window.phase)
        done = self._window >= len(self._windows)
        if done:
            self.enter(None)
        return done

    def enter(self, phase: Optional[Phase]) -> None:
        """Close the open phase's span; begin ``phase`` (``None``: no phase)."""
        self._span.close()
        self._phase = phase
        if phase is not None:
            phase.input = self.rows
            span = self._span.enter_context(get_tracer().span(phase.name, self._metrics))
            span.annotate(**phase.meta)

    def on_round_faults(self, round_index: int, faults: RoundFaults) -> None:
        self._round_faults = faults

    def end_round(self, round_index: int) -> None:
        partners, ok = self._pending or (self._identity, np.zeros(self.n, dtype=bool))
        self._pulls.append((partners, ok, self._round_faults))
        self._pending = self._round_faults = None
        window = self._windows[self._window]
        if self.rows.shape[0] <= STREAM_MAX_LANES:
            # Streamed: deliver the round now (on the vectorized engine,
            # while the next round's partners are drawn).  The ring only
            # grows at a window's close, so it reads as at the window start.
            if self._stream is None:
                self._stream = (self._buffer(window.rounds), np.asfortranarray(self.rows))
            buffer, packed = self._stream
            column = len(self._pulls) - 1
            deliver(packed, self._pulls[column:], self._ring or (),
                    buffer[column:column + 1])
        if len(self._pulls) < window.rounds:
            return
        partner_rows, ok_rows, faults = (list(column) for column in zip(*self._pulls))
        drawn = [f for f in faults if f is not None]
        own = self.rows
        if self._reset and drawn:
            # State loss: a restarted node's own values are its initial
            # lanes again; what it pulled, and what others pulled from it,
            # was delivered before the boundary.
            restarted = np.logical_or.reduce([f.restarted for f in drawn])
            own = np.where(restarted, self._initial, self.rows)
        ring = tuple(self._ring) if self._ring is not None else ()
        pulled = self._stream[0] if self._stream is not None else None
        self._stream = None
        pulls = WindowPulls(self.rows, partner_rows, ok_rows, faults, ring, own, pulled)
        rows = window.kernel(pulls)
        # Keep the buffer for the next window unless the new rows live in it.
        self._spare = None
        if pulled is not None and not np.may_share_memory(rows, pulled):
            self._spare = (pulled, weakref.ref(pulls))
        if self._ring is not None and drawn:
            self._ring.append(self.rows)
        tracer = get_tracer()
        if tracer.active:
            tracer.event("pull", label=window.label, k=window.rounds,
                         lanes=rows.shape[0], bits_each=self._bits,
                         round_stop=round_index + 1)
        self.rows = rows
        self._pulls = []
        self._window += 1
        if self._window < len(self._windows):
            self.name = self._windows[self._window].label

    def _buffer(self, rounds: int) -> np.ndarray:
        """A streamed window's buffer: the spare, if it has the window's
        shape (its old :class:`WindowPulls` then gathers anew when read),
        else a fresh :func:`window_buffer`."""
        spare, self._spare = self._spare, None
        if spare is not None:
            buffer, owner = spare
            if buffer.shape == (rounds,) + self.rows.shape:
                pulls = owner()
                if pulls is not None:
                    pulls._pulled = None
                return buffer
        return window_buffer(rounds, self.rows)

    # -- per-node interface (asyncio engine) --------------------------------------
    def act(self, node: int, round_index: int) -> Action:
        return Action.pull()

    def serve_pull(self, node: int, requester: int, round_index: int) -> Any:
        if self.rows.shape[0] == 1:
            return float(self.rows[0, node])
        return tuple(float(value) for value in self.rows[:, node])

    def on_receive(self, node, payload, sender, kind, round_index) -> None:
        if self._pending is None:
            self._pending = (self._identity.copy(), np.zeros(self.n, dtype=bool))
        self._pending[0][node] = sender
        self._pending[1][node] = True

    def message_bits(self, payload: Any) -> int:
        return self._bits

    # -- batch interface (vectorized engine) --------------------------------------
    def act_batch(self, round_index: int, alive: ReadOnlyArray) -> BatchAction:
        return BatchAction("pull", pull_bits=self._bits)

    def receive_batch(self, round_index, alive: ReadOnlyArray, partners, action):
        if not alive.all():
            partners = np.where(alive, partners, self._identity)
        self._pending = (partners, alive)
        if self._round_faults is None:
            return None
        # A duplicated response is delivered (and charged) twice.
        duplicated = self._round_faults.duplicated & alive
        return [(int(np.count_nonzero(duplicated)), self._bits)]

    def outputs(self) -> List[Any]:
        return [self.serve_pull(node, node, 0) for node in range(self.n)]


@contextmanager
def windows_run(
    rows: np.ndarray,
    windows: Sequence[PullWindow],
    metrics: Optional[NetworkMetrics],
    env: Optional[GossipEnv],
) -> Iterator[Tuple[TournamentProtocol, int, GossipEnv]]:
    """The protocol, round budget and resolved env of one plan run; the
    open phase span closes with the block."""
    env = resolve_env(env)
    protocol = TournamentProtocol(rows, windows, env.faults, metrics)
    try:
        yield protocol, sum(w.rounds for w in windows), env
    finally:
        protocol.enter(None)


def run_windows(
    rows: np.ndarray,
    windows: Sequence[PullWindow],
    rng: Union[None, int, RandomSource],
    metrics: Optional[NetworkMetrics] = None,
    env: Optional[GossipEnv] = None,
) -> np.ndarray:
    """Run ``windows`` over ``rows`` on the env's engine; return the final rows."""
    with windows_run(rows, windows, metrics, env) as (protocol, budget, env):
        run_protocol(protocol, rng=rng, max_rounds=budget, metrics=metrics, env=env)
    return protocol.rows


async def arun_windows(
    rows: np.ndarray,
    windows: Sequence[PullWindow],
    rng: Union[None, int, RandomSource],
    metrics: Optional[NetworkMetrics] = None,
    env: Optional[GossipEnv] = None,
    **live: Any,
) -> np.ndarray:
    """:func:`run_windows` inside a running event loop: the plan runs on
    :func:`repro.net.runner.arun_protocol`, which takes ``live``'s
    ``transport``, ``retry`` and ``detector``."""
    # Imported lazily: repro.net imports the gossip engine, as this module does.
    from repro.net.runner import arun_protocol

    with windows_run(rows, windows, metrics, env) as (protocol, budget, env):
        await arun_protocol(protocol, rng=rng, max_rounds=budget, metrics=metrics,
                            env=env, **live)
    return protocol.rows
