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

Both engines hand the round's injected faults to the protocol
(:meth:`~repro.gossip.protocol.GossipProtocol.on_round_faults`):
duplicates are charged as extra messages, a pull delayed by ``d`` reads
the window-start snapshot ``d`` windows back (a ring of ``max_delay``
snapshots; deeper delays serve the oldest one held), corruption scales
only the delivered copies, and a node restarted from a ``reset_values``
crash holds its initial lanes at the window boundary.  The injector sees
a plan's rounds on the clock of the metrics it accumulates into, so the
chunks of a rank grid or a service's rebuilds share one round clock.
"""

from __future__ import annotations

from collections import deque
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union

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


class WindowPulls:
    """What one window's pulls delivered, handed to the window's kernel.

    Pulls read ``source``, the ``(L, n)`` rows at the window's start; per
    round, ``partners`` holds whom each node pulled (itself where the pull
    did not happen) and ``ok`` whether the pull happened.  ``snapshot`` is
    each node's own values at the window's end — ``source``, except that a
    node restarted from a state-loss crash holds its initial lanes — and is
    what a kernel keeps for a node (or a lane) it does not update.
    """

    def __init__(
        self,
        source: np.ndarray,
        partners: List[np.ndarray],
        ok: List[np.ndarray],
        faults: Sequence[Optional[RoundFaults]] = (),
        ring: Sequence[np.ndarray] = (),
        snapshot: Optional[np.ndarray] = None,
    ) -> None:
        self.source = source
        self.snapshot = source if snapshot is None else snapshot
        self.partners = partners
        self.ok = ok
        self._faults = [(column, f) for column, f in enumerate(faults) if f is not None]
        self._ring = ring

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
        """The pulled values as ``(k, L, n)``: one contiguous row per round
        and lane (the two- and three-tournament layout)."""
        lanes, n = self.source.shape
        pulled = np.empty((len(self.partners), lanes, n), dtype=self.source.dtype)
        # Lane-major, so each lane's row stays cache-resident for its k
        # gathers; mode="clip" skips the bounds check (partners are in range).
        for lane, row in enumerate(self.source):
            for column, partners in enumerate(self.partners):
                np.take(row, partners, out=pulled[column, lane], mode="clip")
        for column, faults in self._faults:
            ok, partners, row = self.ok[column], self.partners[column], pulled[column]
            if self._ring:
                for delay in np.unique(faults.delay[ok & (faults.delay > 0)]):
                    stale = self._ring[-int(min(delay, len(self._ring)))]
                    late = ok & (faults.delay == delay)
                    row[:, late] = stale[:, partners[late]]
            hit = ok & (faults.corruption != 1.0)
            row[:, hit] = row[:, hit] * faults.corruption[hit]
        return pulled

    def depth(self, column: int) -> np.ndarray:
        """How many windows back each node's pull of round ``column`` read:
        0 for this window's start, ``d`` for a pull delayed by ``d`` (at
        most the ring's length)."""
        depth = np.zeros(self.n, dtype=np.int64)
        for faulted, faults in self._faults:
            if faulted == column and self._ring:
                late = self.ok[column] & (faults.delay > 0)
                depth[late] = np.minimum(faults.delay[late], len(self._ring))
        return depth

    def block(self) -> np.ndarray:
        """The pulled values as ``(L, n, k)``, each node's ``k`` samples
        contiguous (the vote layout): one gather per lane."""
        if self._faults:
            return np.ascontiguousarray(self.rows().transpose(1, 2, 0))
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
        self._pulls: List[Tuple[np.ndarray, np.ndarray, Optional[RoundFaults]]] = []
        self._pending: Optional[Tuple[np.ndarray, np.ndarray]] = None
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
        rows = window.kernel(
            WindowPulls(self.rows, partner_rows, ok_rows, faults, ring, own)
        )
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


def run_windows(
    rows: np.ndarray,
    windows: Sequence[PullWindow],
    rng: Union[None, int, RandomSource],
    metrics: Optional[NetworkMetrics] = None,
    env: Optional[GossipEnv] = None,
) -> np.ndarray:
    """Run ``windows`` over ``rows`` on the env's engine; return the final rows.

    The env's injector sees the plan's rounds on the clock of ``metrics``.
    """
    env = resolve_env(env)
    protocol = TournamentProtocol(rows, windows, env.faults, metrics)
    origin = metrics.rounds if metrics is not None else 0
    try:
        with env.faults.clock_from(origin) if env.faults else nullcontext():
            run_protocol(protocol, rng=rng, max_rounds=sum(w.rounds for w in windows),
                         metrics=metrics, env=env)
    finally:
        protocol.enter(None)
    return protocol.rows
