"""Peer sampling: turning a topology into vectorized partner draws.

Both gossip execution surfaces pick, for every node and every synchronous
round, one partner to contact.  A :class:`PeerSampler` encapsulates that
choice so the engines stay topology-agnostic:

* :class:`UniformSampler` — the paper's uniform gossip on the complete
  graph, always excluding self-contacts.  Its two draw methods are
  *verbatim* the pre-topology partner code (``draw_round`` for the gossip
  engines, ``draw_for`` for the token pushers of
  :mod:`repro.core.tokens`), so the default configuration is bit-for-bit
  the old behaviour.
* :class:`NeighborSampler` — uniform over the node's CSR neighbor list:
  one ``random(n)`` draw and one gather per round, any topology.
* :class:`RoundRobinSampler` — a shuffled round-robin over each node's
  neighbors: every neighbor is contacted exactly once per cycle of
  ``deg(v)`` rounds, in an order reshuffled every cycle.  This is the
  classic quasi-random gossip variant with lower partner variance.

Samplers holding per-run state (round-robin positions) are constructed
fresh for every run by :func:`resolve_peer_sampler`, so runs never leak
state into each other.
"""

from __future__ import annotations

import abc
from typing import Optional, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.topology.graphs import Topology
from repro.utils.rand import RandomSource, draw_targets_excluding, resample_forbidden_targets
from repro.utils.views import readonly

#: Peer-sampling strategies accepted by :func:`resolve_peer_sampler`.
PEER_SAMPLING_CHOICES = ("uniform", "round-robin")


#: Cached identity index arrays (one per n seen), shared read-only by the
#: per-round partner draws so each round skips an O(n) allocation.
_IDENTITY_CACHE: dict = {}


def _identity_indices(n: int) -> np.ndarray:
    cached = _IDENTITY_CACHE.get(n)
    if cached is None:
        cached = readonly(np.arange(n))
        # keep the cache from growing without bound across odd sizes
        if len(_IDENTITY_CACHE) > 64:
            _IDENTITY_CACHE.clear()
        _IDENTITY_CACHE[n] = cached
    return cached


def draw_uniform_round_partners(source: RandomSource, n: int) -> np.ndarray:
    """Each node's uniformly random partner among the *other* nodes.

    An initial uniform draw over all ``n`` nodes followed by re-draws of
    self-contacts (a constant expected number of re-draws).  This is the
    message-level engine's historical partner draw; keeping it byte-for-byte
    preserves the random stream of every seeded pre-topology run.
    """
    partners = source.integers(0, n, size=n)
    return resample_forbidden_targets(source, partners, _identity_indices(n), n)


def _require_gossipable(topology: Topology) -> None:
    """Every node needs at least one neighbor to take part in gossip."""
    if topology.min_degree < 1:
        isolated = int(np.argmin(topology.degrees))
        raise ConfigurationError(
            f"topology {topology.name!r} has an isolated node ({isolated}); "
            "every node needs at least one neighbor to gossip"
        )


class PeerSampler(abc.ABC):
    """Draws each node's partner for one synchronous round."""

    #: True when :meth:`draw_round` reads nothing but the stream it is
    #: given, so a round's draw may run ahead of the round (the prefetch of
    #: :func:`repro.gossip.engine.run_protocol_vectorized`).
    stateless = False

    def __init__(self, n: int) -> None:
        if n < 2:
            raise ConfigurationError("a peer sampler needs at least 2 nodes")
        self.n = n

    @abc.abstractmethod
    def draw_round(self, source: RandomSource) -> np.ndarray:
        """Length-``n`` partner array for one round."""

    def draw_for(self, source: RandomSource, nodes: np.ndarray) -> np.ndarray:
        """Partners of ``nodes`` only, for one round (e.g. token pushers)."""
        return self.draw_round(source)[nodes]


class UniformSampler(PeerSampler):
    """Uniform gossip on the complete graph (the paper's model).

    Every draw excludes self-contacts: a node contacts a uniformly random
    *other* node.
    """

    stateless = True

    def draw_round(self, source: RandomSource) -> np.ndarray:
        return draw_uniform_round_partners(source, self.n)

    def draw_for(self, source: RandomSource, nodes: np.ndarray) -> np.ndarray:
        # verbatim the historical token-push stream: one draw per pusher
        return draw_targets_excluding(source, self.n, nodes)


class NeighborSampler(PeerSampler):
    """Uniform choice over each node's neighbor list, vectorized via CSR."""

    stateless = True

    def __init__(self, topology: Topology) -> None:
        if topology.is_complete:
            raise ConfigurationError(
                "use UniformSampler for the complete graph; it avoids "
                "materialising n(n-1) arcs and keeps the historical stream"
            )
        super().__init__(topology.n)
        _require_gossipable(topology)
        self.topology = topology
        self._starts = topology.indptr[:-1]
        self._indices = topology.indices
        self._degrees = topology.degrees

    def draw_round(self, source: RandomSource) -> np.ndarray:
        u = source.random(self.n)
        offsets = np.minimum(
            (u * self._degrees).astype(np.int64), self._degrees - 1
        )
        return self._indices[self._starts + offsets]


class RoundRobinSampler(PeerSampler):
    """Shuffled round-robin over each node's neighbors.

    Every node walks a private random permutation of its neighbor list,
    one neighbor per round; when a node exhausts its list the segment is
    reshuffled and the walk restarts.  Over any window of ``deg(v)``
    consecutive rounds node ``v`` contacts every neighbor exactly once —
    the low-variance "quasi-random" gossip schedule.

    The sampler is stateful (positions and current permutations); use a
    fresh instance per run.
    """

    def __init__(self, topology: Topology) -> None:
        if topology.is_complete:
            raise ConfigurationError(
                "round-robin over the complete graph would materialise "
                "n(n-1) arcs; use a sparse topology"
            )
        super().__init__(topology.n)
        _require_gossipable(topology)
        self.topology = topology
        self._starts = topology.indptr[:-1]
        self._degrees = topology.degrees
        self._segment_ids = np.repeat(
            np.arange(topology.n, dtype=np.int64), self._degrees
        )
        self._order: Optional[np.ndarray] = None
        self._pos = np.zeros(topology.n, dtype=np.int64)

    def _shuffle_segments(self, source: RandomSource, which: np.ndarray) -> None:
        """Reshuffle the neighbor permutation of the nodes in ``which``."""
        arc_mask = which[self._segment_ids]
        keys = source.random(int(arc_mask.sum()))
        segment = self._segment_ids[arc_mask]
        # lexsort is stable and sorts primarily by segment, then by the
        # random keys: an independent uniform permutation per segment.
        order = np.lexsort((keys, segment))
        self._order[arc_mask] = self._order[arc_mask][order]

    def draw_round(self, source: RandomSource) -> np.ndarray:
        if self._order is None:
            self._order = self.topology.indices.copy()
            self._shuffle_segments(source, np.ones(self.n, dtype=bool))
        partners = self._order[self._starts + self._pos]
        self._pos += 1
        wrapped = self._pos >= self._degrees
        if np.any(wrapped):
            self._shuffle_segments(source, wrapped)
            self._pos[wrapped] = 0
        return partners


def resolve_peer_sampler(
    topology: Optional[Topology],
    sampling: str = "uniform",
    n: Optional[int] = None,
) -> PeerSampler:
    """Build the sampler for a run.

    ``topology=None`` and the symbolic complete graph both resolve to
    :class:`UniformSampler` — the historical uniform-gossip stream — so the
    default configuration stays bit-identical to pre-topology behaviour.
    Requesting a non-uniform strategy there is an error rather than a
    silent fallback: round-robin over ``n - 1`` neighbors would need the
    materialised complete graph.
    """
    if sampling not in PEER_SAMPLING_CHOICES:
        raise ConfigurationError(
            f"unknown peer sampling {sampling!r}; choose from "
            f"{PEER_SAMPLING_CHOICES}"
        )
    if topology is not None and n is not None and topology.n != n:
        raise ConfigurationError(
            f"topology has {topology.n} nodes but the protocol has {n}"
        )
    if topology is None or topology.is_complete:
        if sampling != "uniform":
            raise ConfigurationError(
                f"peer sampling {sampling!r} needs a sparse topology; "
                "uniform gossip on the complete graph only supports 'uniform'"
            )
        size = topology.n if topology is not None else n
        if size is None:
            raise ConfigurationError("n is required when no topology is given")
        return UniformSampler(size)
    if sampling == "round-robin":
        return RoundRobinSampler(topology)
    return NeighborSampler(topology)
