"""Dynamic topologies: the graph as a per-round object.

The paper analyses uniform gossip on a *static* complete graph.  Real
deployments churn — nodes join and leave, and membership services in the
"newscast" style (py-unsserv) re-draw every node's neighbor view every few
rounds.  A :class:`TopologyProcess` makes the graph itself a per-round
object: for every synchronous round it yields a :class:`RoundState` — the
boolean *active-node mask* and a :class:`~repro.topology.sampler.PeerSampler`
whose partner draws only ever target active nodes.

Three concrete processes:

* :class:`StaticProcess` — wraps a fixed topology (or the complete graph).
  Threading it through an engine is bit-identical to passing the topology
  directly, which pins the dynamic plumbing to the static streams.
* :class:`ChurnProcess` — a seeded join/leave schedule with rejoin: each
  round every active node departs with probability ``churn_rate`` and every
  departed node rejoins with probability ``rejoin_rate``.  Departed nodes
  neither act nor receive (the per-round sampler draws only active
  partners), so conserved quantities — push-sum ``(s, w)`` mass, token
  multiplicities via the Section-5 failure-merge machinery — stay frozen on
  the departed node until it rejoins and are never lost.
* :class:`EdgeResamplingProcess` — newscast-style membership: every node
  holds a ``view_size`` neighbor view that is re-drawn every
  ``resample_every`` rounds.  Each resample is one vectorized batched CSR
  rebuild (symmetrized union of the views), so a per-round refresh costs
  ``O(n * view_size)`` array work, not Python loops.

Two design rules keep the engines deterministic and comparable:

1. **Separate random streams.**  A process owns a private stream (fixed at
   construction, replayed identically by every :meth:`TopologyProcess.begin`)
   that drives only the topology evolution; the runs of one computation
   continue one schedule (:func:`~repro.gossip.engine.start_schedules`).
   Partner draws still consume the *engine's* stream through the per-round
   sampler, exactly like the static path — so the vectorized and asyncio
   engines see identical schedules and stay bit-identical to each other
   under any process.
2. **Active targets only.**  Samplers returned by ``round_state`` never
   select an inactive partner, so departed nodes cannot absorb mass.  A node
   whose neighbors are all departed is excluded from the round's active mask
   (its state freezes for the round) rather than gossiping into the void.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.topology.graphs import Topology, _csr_from_edges
from repro.topology.sampler import NeighborSampler, PeerSampler, resolve_peer_sampler
from repro.utils.rand import RandomSource, SeedLike, resample_forbidden_targets


@dataclass(frozen=True)
class RoundState:
    """What one synchronous round looks like under a dynamic topology.

    Attributes
    ----------
    active:
        Length-``n`` boolean mask; False means the node is departed (or
        cannot reach any active neighbor) this round.  Inactive nodes
        neither act nor receive; engines fold this mask into the round's
        failure mask, so inactive nodes keep their state frozen.
    sampler:
        Partner sampler for this round.  Draws consume the *engine's*
        random stream and only ever return active targets.
    """

    active: np.ndarray
    sampler: PeerSampler


class _ActiveUniformSampler(PeerSampler):
    """Uniform draw over the currently active node set, excluding self.

    The churn analogue of :class:`~repro.topology.sampler.UniformSampler`:
    partners are uniform over the active ids, and an active node that draws
    itself is re-drawn in masked batches (the same rejection idiom as
    :func:`repro.utils.rand.resample_forbidden_targets`).
    """

    def __init__(self, n: int, active_ids: np.ndarray) -> None:
        super().__init__(n)
        if active_ids.size < 2:
            raise ConfigurationError(
                "active-uniform sampling needs at least 2 active nodes"
            )
        self._ids = active_ids

    def draw_round(self, source: RandomSource) -> np.ndarray:
        m = self._ids.size
        partners = self._ids[source.integers(0, m, size=self.n)]
        own = np.arange(self.n)
        mask = partners == own
        while np.any(mask):
            partners[mask] = self._ids[source.integers(0, m, size=int(mask.sum()))]
            mask = partners == own
        return partners


class _ActiveNeighborSampler(PeerSampler):
    """Uniform draw over each node's *active* neighbors.

    Built from a per-round sub-CSR holding only active→active arcs.  Nodes
    with zero active neighbors get their own index (they are always outside
    the round's active mask, so the entry is never consumed).
    """

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray) -> None:
        super().__init__(n)
        self._starts = indptr[:-1]
        self._indices = indices
        self._degrees = np.diff(indptr)

    def draw_round(self, source: RandomSource) -> np.ndarray:
        u = source.random(self.n)
        safe = np.maximum(self._degrees, 1)
        offsets = np.minimum((u * safe).astype(np.int64), safe - 1)
        slots = np.minimum(self._starts + offsets, max(self._indices.size - 1, 0))
        partners = (
            self._indices[slots]
            if self._indices.size
            else np.zeros(self.n, dtype=np.int64)
        )
        return np.where(self._degrees > 0, partners, np.arange(self.n))


class TopologyProcess(abc.ABC):
    """Per-round supplier of the active-node mask and partner sampler.

    Subclasses evolve internal state from a private random stream fixed at
    construction time, and begin at construction.  :meth:`begin` replays
    that stream from its start, so one instance can be run repeatedly (e.g.
    once on the asyncio engine and once on the vectorized engine, each on
    fresh metrics) and always yields the same schedule.
    """

    def __init__(self, n: int, rng: SeedLike = None) -> None:
        if n < 2:
            raise ConfigurationError("a topology process needs at least 2 nodes")
        self.n = n
        if isinstance(rng, RandomSource):
            self._seed_seq = rng.seed_sequence
        elif isinstance(rng, np.random.SeedSequence):
            self._seed_seq = rng
        else:
            self._seed_seq = np.random.SeedSequence(rng)
        self._rng: Optional[RandomSource] = None

    @property
    def name(self) -> str:
        return type(self).__name__

    def begin(self) -> None:
        """Reset to round 0, replaying the same schedule as every prior run."""
        self._rng = RandomSource(self._seed_seq)
        self._reset()

    def _reset(self) -> None:
        """Subclass hook: clear per-run state (called by :meth:`begin`)."""

    @abc.abstractmethod
    def round_state(self, round_index: int) -> RoundState:
        """Evolve to round ``round_index`` and return its :class:`RoundState`.

        Engines call this once per round, with consecutive indices on the
        run's metrics clock (:func:`~repro.gossip.engine.start_schedules`).
        """


class StaticProcess(TopologyProcess):
    """A fixed topology wrapped as a (degenerate) dynamic process.

    Every round is all-active with one sampler resolved per :meth:`begin`,
    so driving a run on fresh metrics through
    ``GossipEnv(topology_process=StaticProcess(topo))`` is bit-identical to
    ``GossipEnv(topology=topo)`` — the sanity anchor for the dynamic
    plumbing (pinned by ``tests/test_topology_dynamic.py``).  The runs of
    one computation share the sampler, so a round-robin one keeps cycling.
    """

    def __init__(
        self,
        topology: Optional[Topology] = None,
        n: Optional[int] = None,
        peer_sampling: str = "uniform",
    ) -> None:
        if topology is None and n is None:
            raise ConfigurationError("StaticProcess needs a topology or n")
        super().__init__(topology.n if topology is not None else n, rng=0)
        self.topology = topology
        self.peer_sampling = peer_sampling
        self.begin()

    def _reset(self) -> None:
        # A fresh sampler per begin(), as resolve_peer_sampler gives each
        # static run (round-robin samplers are stateful).
        sampler = resolve_peer_sampler(
            self.topology, sampling=self.peer_sampling, n=self.n
        )
        self._state = RoundState(np.ones(self.n, dtype=bool), sampler)

    def round_state(self, round_index: int) -> RoundState:
        return self._state


class ChurnProcess(TopologyProcess):
    """Seeded join/leave schedule with rejoin over a fixed base graph.

    Parameters
    ----------
    n:
        Number of nodes; required when no ``topology`` is given (the base is
        then the complete graph).
    churn_rate:
        Per-round probability that an active node departs.
    rejoin_rate:
        Per-round probability that a departed node rejoins; defaults to
        ``churn_rate`` (which keeps the expected active fraction at 1/2 in
        the churn-heavy limit and near 1 for small rates over short runs).
    topology:
        Optional base graph; partners are drawn uniformly over a node's
        *active* neighbors (per-round sub-CSR rebuild).  ``None`` or the
        symbolic complete graph draw uniformly over all active nodes.
    min_active:
        The schedule never lets the active set drop below this size: a
        proposed step that would is skipped (the mask carries over).
    leave_weights:
        Departure-rate shaping.  ``None`` (default) is uniform churn —
        every active node departs with ``churn_rate`` — and keeps the
        schedule stream byte-identical to the historical behaviour.
        ``"degree"`` makes departures degree-correlated: node ``v`` leaves
        with ``churn_rate * degree(v) / max_degree``, so hubs churn at the
        full rate and leaves proportionally less — the adversarial case
        for gossip, since each departure removes the most connectivity.
        Requires a non-complete base ``topology``.  An explicit length-n
        array of per-node multipliers in ``[0, 1]`` is also accepted.
        Shaping multiplies probabilities only; the *draw* stays one
        uniform per node per round, so every ``leave_weights`` setting
        consumes the private stream identically.
    rng:
        Seed for the private schedule stream (see :class:`TopologyProcess`).

    Mass conservation: a departed node neither acts (engines fold
    ``~active`` into the failure mask) nor receives (samplers only return
    active targets), so per-node conserved quantities freeze in place and
    aggregate totals — push-sum ``s``/``w`` mass, token multiplicities —
    are preserved exactly.  ``active_history`` records the active count of
    every generated round for diagnostics.
    """

    def __init__(
        self,
        n: Optional[int] = None,
        churn_rate: float = 0.05,
        rejoin_rate: Optional[float] = None,
        topology: Optional[Topology] = None,
        min_active: int = 2,
        leave_weights: Union[None, str, np.ndarray] = None,
        rng: SeedLike = None,
    ) -> None:
        if topology is not None:
            if n is not None and n != topology.n:
                raise ConfigurationError(
                    f"topology has {topology.n} nodes but n={n} was given"
                )
            n = topology.n
        if n is None:
            raise ConfigurationError("ChurnProcess needs a topology or n")
        super().__init__(n, rng=rng)
        if not 0.0 <= churn_rate < 1.0:
            raise ConfigurationError(
                f"churn_rate must be in [0, 1), got {churn_rate}"
            )
        if rejoin_rate is None:
            rejoin_rate = churn_rate
        if not 0.0 <= rejoin_rate <= 1.0:
            raise ConfigurationError(
                f"rejoin_rate must be in [0, 1], got {rejoin_rate}"
            )
        if min_active < 2 or min_active > n:
            raise ConfigurationError(
                f"min_active must be in [2, n], got {min_active}"
            )
        self.churn_rate = float(churn_rate)
        self.rejoin_rate = float(rejoin_rate)
        self.min_active = int(min_active)
        self.base = None if topology is None or topology.is_complete else topology
        if self.base is not None and self.base.min_degree < 1:
            raise ConfigurationError(
                "the churn base topology has an isolated node; every node "
                "needs at least one neighbor to gossip"
            )
        if self.base is not None:
            # Arc source ids, precomputed once for the per-round sub-CSR
            # rebuild: arc i runs sources[i] -> base.indices[i].
            self._arc_src = np.repeat(
                np.arange(n, dtype=np.int64), self.base.degrees
            )
        if leave_weights is None:
            self._leave_weights: Optional[np.ndarray] = None
        elif isinstance(leave_weights, str):
            if leave_weights != "degree":
                raise ConfigurationError(
                    f"unknown leave_weights {leave_weights!r}; expected "
                    "'degree', an array, or None"
                )
            if self.base is None:
                raise ConfigurationError(
                    "leave_weights='degree' needs a non-complete base "
                    "topology to read degrees from"
                )
            degrees = self.base.degrees.astype(float)
            self._leave_weights = degrees / float(degrees.max())
        else:
            weights = np.asarray(leave_weights, dtype=float)
            if weights.shape != (n,):
                raise ConfigurationError(
                    f"leave_weights must have shape ({n},), got {weights.shape}"
                )
            if np.any(weights < 0.0) or np.any(weights > 1.0):
                raise ConfigurationError(
                    "leave_weights entries must be in [0, 1]"
                )
            self._leave_weights = weights.copy()
        self.begin()

    @property
    def active(self) -> np.ndarray:
        """The current active mask."""
        return self._active

    @property
    def rounds_generated(self) -> int:
        """How many rounds this run has evolved through so far.

        The next ``round_state`` index to use when driving the process
        externally (e.g. :meth:`~repro.core.service.QuantileService.advance_churn`
        stepping churn between builds).
        """
        return len(self.active_history)

    def _reset(self) -> None:
        self._active = np.ones(self.n, dtype=bool)
        self._state: Optional[RoundState] = None
        self.active_history: List[int] = []

    def _evolve(self) -> bool:
        """Advance the mask one round; returns True when it changed."""
        u = self._rng.random(self.n)
        if self._leave_weights is None:
            leave_p: Union[float, np.ndarray] = self.churn_rate
        else:
            leave_p = self.churn_rate * self._leave_weights
        proposed = np.where(
            self._active, u >= leave_p, u < self.rejoin_rate
        )
        if int(proposed.sum()) < self.min_active:
            return False  # guard: skip a step that would empty the network
        changed = bool(np.any(proposed != self._active))
        self._active = proposed
        return changed

    def _build_state(self) -> RoundState:
        if self.base is None:
            ids = np.flatnonzero(self._active)
            return RoundState(
                self._active.copy(), _ActiveUniformSampler(self.n, ids)
            )
        # Sub-CSR of active->active arcs; nodes left with no active neighbor
        # are excluded from the round (their state freezes).
        keep = self._active[self._arc_src] & self._active[self.base.indices]
        sub_indices = self.base.indices[keep]
        counts = np.bincount(self._arc_src[keep], minlength=self.n)
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        can_gossip = self._active & (counts > 0)
        return RoundState(
            can_gossip, _ActiveNeighborSampler(self.n, indptr, sub_indices)
        )

    def round_state(self, round_index: int) -> RoundState:
        changed = self._evolve()
        if changed or self._state is None:
            self._state = self._build_state()
        self.active_history.append(int(self._state.active.sum()))
        return self._state

    def mean_active_fraction(self) -> float:
        """Mean fraction of gossiping nodes over the rounds generated so far."""
        if not self.active_history:
            return 1.0
        return float(np.mean(self.active_history)) / self.n


class EdgeResamplingProcess(TopologyProcess):
    """Newscast-style membership: neighbor views re-drawn periodically.

    Every node holds a view of ``view_size`` uniformly random other nodes
    (drawn with replacement, self excluded).  Every ``resample_every``
    rounds all views are re-drawn at once and the round graph is rebuilt as
    one batched CSR assembly — ``O(n * view_size)`` vectorized work, no
    sorting — after which partner draws are plain
    :class:`~repro.topology.sampler.NeighborSampler` gathers.  All nodes
    stay active; the dynamics change because the edge set keeps mixing,
    which is what makes even tiny views gossip like an expander (the
    newscast observation).

    By default views are *directed* (a node pushes into its own view, as in
    newscast); ``symmetrize=True`` instead builds the undirected union of
    the views via the deduplicating CSR builder — a better-behaved graph
    for spectral diagnostics, at an ``O(E log E)`` sort per rebuild.
    """

    def __init__(
        self,
        n: int,
        view_size: int = 8,
        resample_every: int = 1,
        symmetrize: bool = False,
        rng: SeedLike = None,
    ) -> None:
        super().__init__(n, rng=rng)
        if not 1 <= view_size < n:
            raise ConfigurationError(
                f"view_size must be in [1, n), got {view_size}"
            )
        if resample_every < 1:
            raise ConfigurationError(
                f"resample_every must be >= 1, got {resample_every}"
            )
        self.view_size = int(view_size)
        self.resample_every = int(resample_every)
        self.symmetrize = bool(symmetrize)
        self._all_active = np.ones(n, dtype=bool)
        self.begin()

    def _reset(self) -> None:
        self._state: Optional[RoundState] = None
        self._topology: Optional[Topology] = None
        self.resamples = 0

    @property
    def topology(self) -> Optional[Topology]:
        """The current round graph (None before the first round)."""
        return self._topology if self._state is not None else None

    def _resample_views(self) -> None:
        own = np.arange(self.n, dtype=np.int64)[:, None]
        targets = self._rng.integers(0, self.n, size=(self.n, self.view_size))
        resample_forbidden_targets(self._rng, targets, own, self.n)
        params = {
            "view_size": self.view_size,
            "resample_every": self.resample_every,
        }
        if self.symmetrize:
            topology = _csr_from_edges(
                "newscast",
                self.n,
                np.repeat(own.ravel(), self.view_size),
                targets.ravel(),
                params,
            )
        else:
            # Directed views are already a CSR with constant row length:
            # node v's neighbors are exactly its view — no sort, no dedup.
            indptr = np.arange(
                0, (self.n + 1) * self.view_size, self.view_size, dtype=np.int64
            )
            topology = Topology(
                name="newscast",
                n=self.n,
                indptr=indptr,
                indices=np.ascontiguousarray(targets.ravel()),
                params=params,
            )
        self._topology = topology
        self._state = RoundState(self._all_active, NeighborSampler(topology))
        self.resamples += 1

    def round_state(self, round_index: int) -> RoundState:
        if self._state is None or round_index % self.resample_every == 0:
            self._resample_views()
        return self._state


def resolve_topology_process(
    process: Optional[TopologyProcess], n: int
) -> Optional[TopologyProcess]:
    """Validate a process against a protocol size."""
    if process is None:
        return None
    if not isinstance(process, TopologyProcess):
        raise ConfigurationError(
            f"topology_process must be a TopologyProcess, got {process!r}"
        )
    if process.n != n:
        raise ConfigurationError(
            f"topology process has {process.n} nodes but the run has {n}"
        )
    return process
