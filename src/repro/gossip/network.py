"""The vectorised pull surface of the uniform gossip model.

The tournament algorithms of the paper only ever *pull the current value of
a uniformly random node*.  A :class:`GossipNetwork` therefore stores the
current value of every node in a single numpy array and executes one round
(all n nodes pull one random partner) as a single gather.  Round, message
and bit accounting, and the Section-5 failure model, are applied per round
through one batched accounting call.

One pull path
-------------
:meth:`GossipNetwork.pull` is one body for every mix of the three
robustness inputs: a pull is lost (``ok = False``) when the engines'
:func:`~repro.gossip.engine.round_outage` puts the puller out of the
round (failure model, departed under the topology process, or suppressed
by the fault injector); the message-level faults (duplicates, delay ring,
corruption, state-loss reset) are overlaid on the injector's
``RoundFaults`` only when one is attached.  On the network's stream a
static graph draws the ``(n, k)`` partner block, then the per-round
failure masks; a process draws, per round, the failure mask, then the
partners from the round's sampler.  Failure-free pulls are one block
draw, one gather and one batched accounting call with a broadcast
all-True ``ok`` view.

Multi-lane networks
-------------------
A network may carry ``L`` *lanes*: the value array becomes an ``(n, L)``
column-stacked matrix and every node's message carries its ``L`` working
values.  One partner matrix is drawn per round and shared across lanes —
exactly the paper's Step-3 trick of running the lower and upper ε/2
approximation of Algorithm 3 in the same O(log n)-round window, with one
O(log n)-bit message carrying both working values.  Each round is recorded
once, with the per-lane payload bits folded into the message size.
``L = 1`` (a 1-d value array) is bit-identical to the historical
single-lane partner and value streams.

Lane-contiguous layout
----------------------
The ``(n, L)`` matrix is stored column-major: each lane is one contiguous
column, so :attr:`GossipNetwork.lane_rows` is a free ``(L, n)`` view with
one contiguous row per lane.  A pull gathers lane by lane straight from
those columns into a lanes-first ``(L, n, k)`` block
(:attr:`PullBatch.by_lane`), and the tournament kernels compute whole
``(L, n)`` rows on it and hand them back through
:meth:`GossipNetwork.set_lane_rows` without a copy.  No lane is ever
copied out of a strided column, no block is transposed, and each lane's
``(n, k)`` slab of a final vote is partitioned where it was gathered.
The public shapes — ``(n, L)`` values, ``(n, k, L)`` pulled values — are
views of that storage, and any memory order a caller hands in is
accepted.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.faults.injectors import FaultInjector, RoundFaults
from repro.gossip.env import GossipEnv, resolve_env
from repro.gossip.engine import resolve_run_sampler, round_outage
from repro.gossip.failures import FailureModel, NoFailures
from repro.gossip.messages import BITS_PER_VALUE, tournament_message_bits
from repro.gossip.metrics import NetworkMetrics
from repro.obs.tracer import get_tracer
from repro.topology.dynamic import TopologyProcess
from repro.topology.graphs import Topology
from repro.topology.sampler import PeerSampler
from repro.utils.rand import RandomSource


@dataclass
class PullBatch:
    """Result of ``k`` consecutive pull rounds.

    Attributes
    ----------
    partners:
        ``(n, k)`` integer array: the node contacted by each node in each of
        the ``k`` rounds.  One draw shared by every lane.
    values:
        The value held by that partner at the start of the batch: ``(n, k)``
        for a single-lane network, ``(n, k, L)`` for a multi-lane one — a
        view of the lanes-first block, see :attr:`by_lane`.  (Within one
        tournament iteration every pull reads the partner's value *from the
        previous iteration*, so reading a snapshot is exactly the paper's
        semantics.)
    ok:
        ``(n, k)`` boolean array: False where the pulling node failed in
        that round and the pull therefore never happened.  Failures are
        per node and round — they apply to every lane of the message.
    """

    partners: np.ndarray
    values: np.ndarray
    ok: np.ndarray

    @property
    def n(self) -> int:
        return int(self.partners.shape[0])

    @property
    def k(self) -> int:
        return int(self.partners.shape[1])

    @property
    def lanes(self) -> int:
        return 1 if self.values.ndim == 2 else int(self.values.shape[2])

    @property
    def by_lane(self) -> np.ndarray:
        """The pulled values lanes-first: an ``(L, n, k)`` view.

        Contiguous as gathered on the failure-free path, so each lane's
        ``(n, k)`` block is one contiguous slab (``L = 1`` for a
        single-lane network).
        """
        if self.values.ndim == 2:
            return self.values[None]
        return self.values.transpose(2, 0, 1)


class GossipNetwork:
    """A synchronous uniform gossip network over a shared value array.

    Parameters
    ----------
    values:
        Initial value of every node: length ``n`` for a single-lane network
        or an ``(n, L)`` column-stacked matrix for ``L`` lanes sharing one
        partner stream (see the module docstring).  Any memory order is
        accepted; the network keeps its own lane-contiguous copy.
    rng:
        Seed or :class:`RandomSource` for partner selection and failures.
    metrics:
        Optionally share a :class:`NetworkMetrics` object with an enclosing
        computation (the exact-quantile driver threads one metrics object
        through all of its sub-protocols).
    keep_history:
        Keep per-round records on the network's own metrics object (ignored
        when ``metrics`` is given: that object's setting wins).
    env:
        The :class:`~repro.gossip.env.GossipEnv` (``None`` = the paper's
        failure-free uniform gossip on the complete graph, float64).  On the
        pull surface its settings mean:

        * ``failure_model`` — a pull whose puller fails has ``ok = False``;
        * ``topology`` / ``peer_sampling`` — pulls go to graph neighbors
          (``None`` is bit-identical to the historical partner stream);
        * ``topology_process`` — each pull column draws its partners from
          that round's sampler (active targets only) and departed nodes
          have ``ok = False`` for the round;
        * ``dtype`` — float64, or float32 to halve the simulator's memory
          traffic on the hot ``(n, k, L)`` gathers (the paper's messages
          are O(log n) bits either way);
        * ``faults`` — the full fault vocabulary: crash/drop suppress the
          pull (``ok = False``), duplicates are charged as extra messages,
          delayed pulls are served from a bounded ring of past value
          snapshots (delay is measured in value-update windows, i.e. pull
          batches), corrupted pulls deliver a perturbed payload, and nodes
          restarting from a ``reset_values`` crash lose their working
          values (reset to the initial values at the next batch boundary).
          The injector draws from its own seeded stream, composes with any
          failure model and topology process (masks OR-ed), and leaves
          every fault-free stream bit-identical when absent;
        * ``engine`` — unused: the pull surface is engine-agnostic.
    """

    def __init__(
        self,
        values: Union[Sequence[float], np.ndarray],
        rng: Union[None, int, RandomSource] = None,
        metrics: Optional[NetworkMetrics] = None,
        keep_history: bool = True,
        env: Optional[GossipEnv] = None,
    ) -> None:
        env = resolve_env(env)
        self._dtype: np.dtype = env.dtype
        array = np.array(values, dtype=self._dtype, order="F")
        if array.ndim not in (1, 2):
            raise ConfigurationError(
                "values must be one-dimensional (single lane) or an "
                "(n, lanes) matrix"
            )
        if array.ndim == 2 and array.shape[1] < 1:
            raise ConfigurationError("a multi-lane network needs at least 1 lane")
        if array.shape[0] < 2:
            raise ConfigurationError("a gossip network needs at least 2 nodes")
        self._values = array
        self._initial_values = array.copy(order="F")
        self._n = int(array.shape[0])
        self._lanes = 1 if array.ndim == 1 else int(array.shape[1])
        self._rng = rng if isinstance(rng, RandomSource) else RandomSource(rng)
        self._failures: FailureModel = env.failure_model
        self._topology = env.topology
        faults = env.faults
        self._faults = faults
        self._delay_history: Optional[Deque[np.ndarray]] = (
            deque(maxlen=faults.max_delay)
            if faults is not None and faults.max_delay > 0
            else None
        )
        self._process = env.topology_process
        self._sampler: Optional[PeerSampler] = resolve_run_sampler(env, self._n)
        self.metrics: NetworkMetrics = (
            metrics if metrics is not None
            else NetworkMetrics(keep_history=keep_history)
        )
        # One message per pull; a multi-lane message carries one value per
        # lane under the same framing (the paper's shared O(log n)-bit
        # window), so extra lanes add only their payload values.
        self._message_bits = (
            tournament_message_bits(self._n) + (self._lanes - 1) * BITS_PER_VALUE
        )

    # -- basic properties ---------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def lanes(self) -> int:
        """Number of value lanes sharing the partner stream."""
        return self._lanes

    @property
    def dtype(self) -> np.dtype:
        """The dtype of the value array."""
        return self._dtype

    @property
    def values(self) -> np.ndarray:
        """The current value of every node (live view; treat as read-only)."""
        return self._values

    @property
    def lane_rows(self) -> np.ndarray:
        """The current values lanes-first: an ``(L, n)`` view, one row per lane.

        Each row is contiguous for the network's own storage; a 1-d
        single-lane network is viewed as one row.  Live; treat as read-only.
        """
        if self._values.ndim == 1:
            return self._values[None]
        return self._values.T

    @property
    def initial_values(self) -> np.ndarray:
        """The values the network was constructed with (copy kept internally)."""
        return self._initial_values

    @property
    def rng(self) -> RandomSource:
        return self._rng

    @property
    def failure_model(self) -> FailureModel:
        return self._failures

    @property
    def can_fail(self) -> bool:
        """Whether any pull can come back with ``ok = False``.

        True when a failure model is attached, the topology is a dynamic
        process (departed nodes do not pull), or a fault injector can
        suppress pulls.  Phase drivers use this to skip the per-iteration
        fallback snapshot on the failure-free path.
        """
        return (
            not isinstance(self._failures, NoFailures)
            or self._process is not None
            or self._faults is not None
        )

    @property
    def rounds(self) -> int:
        """Number of synchronous rounds executed so far."""
        return self.metrics.rounds

    def snapshot(self) -> np.ndarray:
        """A lane-contiguous copy of the current values."""
        return self._values.copy(order="F")

    def set_values(
        self, values: Union[Sequence[float], np.ndarray], copy: bool = True
    ) -> None:
        """Replace the value of every node (e.g. between algorithm phases).

        ``copy=False`` adopts the array without a defensive copy — for
        callers handing over a freshly built array they will not touch
        again (the tournament phases do this every iteration, see
        :meth:`set_lane_rows`).  An adopted array keeps its memory order;
        a copy is lane-contiguous.
        """
        array = np.asarray(values, dtype=self._dtype)
        if array.shape != self._values.shape:
            raise ConfigurationError(
                f"expected values of shape {self._values.shape}, "
                f"got shape {array.shape}"
            )
        self._values = array.copy(order="F") if copy else array

    def set_lane_rows(self, rows: np.ndarray) -> None:
        """Adopt a freshly built lanes-first ``(L, n)`` matrix, without a copy.

        The inverse of :attr:`lane_rows`: a C-ordered ``rows`` becomes the
        lane-contiguous ``(n, L)`` storage as its transpose.
        """
        if rows.ndim != 2 or rows.shape[0] != self._lanes:
            raise ConfigurationError(
                f"expected ({self._lanes}, n) lane rows, got shape {rows.shape}"
            )
        self.set_values(rows[0] if self._values.ndim == 1 else rows.T, copy=False)

    def reset(self) -> None:
        """Restore the initial values and clear accumulated metrics."""
        self._values = self._initial_values.copy(order="F")
        self.metrics = NetworkMetrics(keep_history=self.metrics.keep_history)
        if self._process is not None:
            self._process.begin()
        if self._faults is not None:
            self._faults.begin()
        if self._delay_history is not None:
            self._delay_history.clear()

    @property
    def topology(self) -> Optional[Topology]:
        """The attached topology, or ``None`` for uniform/complete gossip."""
        return self._topology

    @property
    def topology_process(self) -> Optional[TopologyProcess]:
        """The attached topology process, or ``None`` for a static graph."""
        return self._process

    @property
    def faults(self) -> Optional[FaultInjector]:
        """The attached fault injector, or ``None``."""
        return self._faults

    # -- the pull surface ---------------------------------------------------------
    def pull(
        self,
        k: int = 1,
        label: str = "pull",
        values: Optional[np.ndarray] = None,
    ) -> PullBatch:
        """Execute ``k`` pull rounds and return the pulled snapshot values.

        Each of the ``k`` columns corresponds to one synchronous round in
        which every node pulls the (start-of-batch) value of one random
        node — every lane reads from the same partner.  Nodes that fail in
        a round (failure model, departed under the topology process, or
        suppressed by the fault injector) have ``ok = False`` for that
        round and receive no value (NaN).  See the module docstring for the
        per-surface draw order.
        """
        if k <= 0:
            raise ConfigurationError("k must be positive")
        source = self._values if values is None else np.asarray(
            values, dtype=self._dtype
        )
        if source.shape != self._values.shape:
            raise ConfigurationError(
                f"values override must have shape {self._values.shape}"
            )
        bits = self._message_bits
        tracer = get_tracer()
        if tracer.active:
            # One event per pull *batch* (k rounds), not per round: the
            # round windows of a tournament become visible in the trace
            # while the inactive-tracer cost stays one attribute check.
            tracer.event(
                "pull",
                label=label,
                k=k,
                lanes=self._lanes,
                bits_each=bits,
                round_start=self.metrics.rounds,
            )

        n = self._n
        process = self._process
        faults = self._faults
        # A static graph draws the whole (n, k) block up front; under a
        # process each round's partners come from that round's sampler.
        partners = (
            self._sampler.draw_block(self._rng, k) if self._sampler is not None
            else np.empty((n, k), dtype=np.int64)
        )
        if not self.can_fail:
            # Failure-free fast path: one gather, one batched accounting
            # call for all k rounds, and a zero-allocation broadcast view
            # for the all-True ok mask.
            self.metrics.record_rounds_batch(
                k, label=label, messages=n, bits_each=bits
            )
            return PullBatch(
                partners=partners,
                values=self._gather(source, partners),
                ok=np.broadcast_to(np.True_, (n, k)),
            )

        base = self.metrics.rounds
        ok = np.empty((n, k), dtype=bool)
        drawn: List[RoundFaults] = []
        for column in range(k):
            failed, round_sampler, round_faults = round_outage(
                base + column, n, self._rng, self._failures, process, faults
            )
            if round_sampler is not None:
                partners[:, column] = round_sampler.draw_round(self._rng)
            if round_faults is not None:
                drawn.append(round_faults)
            ok[:, column] = ~failed

        pulled = self._gather(source, partners)
        successes = ok.sum(axis=0)
        # One request + one response per successful pull; the response
        # (which carries the values) is charged at the protocol's bit cost.
        messages = successes
        if drawn:
            pulled = self._apply_faults(source, pulled, partners, drawn)
            # Duplicates re-deliver a message that actually arrived: charge
            # one extra message at the same bit cost, same round.
            duplicated = np.stack([f.duplicated for f in drawn], axis=1)
            messages = successes + (duplicated & ok).sum(axis=0)
        self.metrics.record_rounds_batch(
            k,
            label=label,
            messages=messages,
            bits_each=bits,
            failures=n - successes,
        )
        if drawn:
            self.metrics.record_faults_injected(sum(f.injected for f in drawn))
        mask = ok if pulled.ndim == 2 else ok[:, :, None]
        masked: np.ndarray = np.where(mask, pulled, np.nan)
        return PullBatch(partners=partners, values=masked, ok=ok)

    def _gather(self, source: np.ndarray, partners: np.ndarray) -> np.ndarray:
        """Gather the pulled values: ``(n, k)`` or ``(n, k, L)``.

        Multi-lane gathers go lane by lane, each a 1-d gather straight from
        the lane's contiguous column into its contiguous ``(n, k)`` slab of
        a lanes-first ``(L, n, k)`` block, returned as the transposed
        ``(n, k, L)`` view (:attr:`PullBatch.by_lane` undoes the
        transpose).  ``np.take(mode="clip")`` skips the per-element bounds
        check fancy indexing pays (partners are drawn in ``[0, n)``, so
        clipping never fires) — ~40% faster on latency-bound gathers at
        n = 10⁶.
        """
        if source.ndim == 1:
            gathered: np.ndarray = np.take(source, partners, mode="clip")
            return gathered
        block = np.empty(
            (self._lanes,) + partners.shape, dtype=self._dtype
        )
        for lane in range(self._lanes):
            np.take(source[:, lane], partners, out=block[lane], mode="clip")
        return block.transpose(1, 2, 0)

    def _apply_faults(
        self,
        source: np.ndarray,
        pulled: np.ndarray,
        partners: np.ndarray,
        drawn: List[RoundFaults],
    ) -> np.ndarray:
        """Apply one batch's message-level faults; return the pulled values.

        Delayed pulls gather from the bounded ring of past value snapshots
        (a delay deeper than the ring serves the oldest snapshot still
        held) and corrupted pulls scale the delivered payload.  At the
        batch boundary the outgoing snapshot enters the ring, and nodes
        restarting from a state-loss crash rejoin with their initial
        value(s), not the working state they crashed with.
        """
        if self._delay_history:
            delays = np.stack([f.delay for f in drawn], axis=1)
            available = len(self._delay_history)
            for d in np.unique(delays[delays > 0]):
                snap = self._delay_history[-int(min(d, available))]
                stale = self._gather(snap, partners)
                late = delays == d
                if pulled.ndim == 3:
                    late = late[:, :, None]
                pulled = np.where(late, stale, pulled)
        corruption = np.stack([f.corruption for f in drawn], axis=1)
        if np.any(corruption != 1.0):
            factor = corruption if pulled.ndim == 2 else corruption[:, :, None]
            pulled = (pulled * factor).astype(self._dtype, copy=False)
        if self._delay_history is not None:
            self._delay_history.append(source.copy(order="F"))
        if self._faults is not None and self._faults.reset_on_restart:
            restarted = np.logical_or.reduce([f.restarted for f in drawn])
            if np.any(restarted):
                self._values[restarted] = self._initial_values[restarted]
        return pulled

    def charge_rounds(self, count: int, label: str = "charged") -> None:
        """Account for ``count`` rounds executed by an external sub-protocol."""
        self.metrics.charge_rounds(count, label=label)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GossipNetwork(n={self._n}, lanes={self._lanes}, "
            f"rounds={self.rounds}, failures={self._failures!r})"
        )
