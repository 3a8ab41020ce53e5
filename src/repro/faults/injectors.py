"""Composable, seeded, replayable fault injection beyond the static mask.

The Section-5 failure model (:mod:`repro.gossip.failures`) answers one
question per round — *which nodes fail to act* — from a pre-determined
probability bound µ.  Chaos engineering needs richer, message-level
vocabulary: a request that is sent but lost, a response delivered twice, a
payload that arrives late or corrupted, a node that crashes and comes back
with amnesia.  This module provides that vocabulary as two layers:

* :class:`FaultSpec` — a *declarative*, stateless description of one fault
  kind and its per-round / per-node intensity.  Concrete specs:
  :class:`MessageDrop`, :class:`MessageDuplication`, :class:`MessageDelay`,
  :class:`CrashRestart`, :class:`ValueCorruption`.  Specs compose through
  the schedule wrappers of :mod:`repro.faults.schedules` (burst windows,
  ramps, degree-targeted intensity).
* :class:`FaultInjector` — the seeded *runtime*: it owns a private random
  stream (the same design rule as
  :class:`~repro.topology.dynamic.TopologyProcess` — fault draws never
  touch the consumer's stream, so attaching an injector leaves every
  fault-free seeded stream bit-identical, and a seeded chaos run replays
  bit-for-bit), turns the specs into one concrete
  :class:`RoundFaults` decision per round, keeps per-kind injection
  counters, and reports every faulty round as a ``repro.obs`` point event.

Consumers apply what their surface can express: the round engines
(:mod:`repro.gossip.engine`) fold the act-suppression kinds (``crash``,
``drop``) into the failure mask and hand the round's decision to the
protocol, where the tournament pull windows (:mod:`repro.core.tournament`)
apply the other kinds too.  The injector draws *every* kind each round
regardless of consumer, so the private stream layout — and therefore the
replay — is independent of which surface consumes it.
"""

from __future__ import annotations

import abc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.rand import RandomSource

#: The fault vocabulary, in the (fixed) order the injector draws each round.
FAULT_KINDS = ("drop", "duplicate", "delay", "crash", "corrupt")


def _validate_probability(p: float, name: str) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {p}")
    return p


class FaultSpec(abc.ABC):
    """One declarative fault kind with a per-round, per-node intensity.

    Specs are stateless: :meth:`probabilities` maps ``(round_index, n)`` to
    the per-node probability of the fault firing that round.  Schedule
    wrappers (:mod:`repro.faults.schedules`) reshape that intensity in time
    (burst, ramp) or across nodes (targeted-by-degree) and forward every
    other attribute (``max_delay``, ``downtime``, ...) to the wrapped spec.
    """

    #: One of :data:`FAULT_KINDS`.
    kind: str = ""

    @abc.abstractmethod
    def probabilities(self, round_index: int, n: int) -> np.ndarray:
        """Per-node probability (length ``n``) of this fault this round."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class _UniformSpec(FaultSpec):
    """Shared base: one probability, constant over rounds and nodes."""

    def __init__(self, p: float) -> None:
        self.p = _validate_probability(p, "p")

    def probabilities(self, round_index: int, n: int) -> np.ndarray:
        return np.full(n, self.p)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(p={self.p})"


class MessageDrop(_UniformSpec):
    """A node's message this round is sent but lost (the pull sees no
    response; on the engines the node's action is suppressed)."""

    kind = "drop"


class MessageDuplication(_UniformSpec):
    """A delivered message arrives twice.  Pull payloads are idempotent, so
    the observable effect is honest accounting: the duplicate is charged as
    an extra message at the same bit cost."""

    kind = "duplicate"


class MessageDelay(_UniformSpec):
    """A message arrives late: the pulled payload is the partner's value
    from up to ``max_delay`` value-update windows (pull windows) ago,
    served from a bounded snapshot ring."""

    kind = "delay"

    def __init__(self, p: float, max_delay: int = 4) -> None:
        super().__init__(p)
        if int(max_delay) < 1:
            raise ConfigurationError(
                f"max_delay must be >= 1, got {max_delay}"
            )
        self.max_delay = int(max_delay)

    def __repr__(self) -> str:
        return f"MessageDelay(p={self.p}, max_delay={self.max_delay})"


class CrashRestart(_UniformSpec):
    """A node crashes (per-round probability ``rate``), stays down for
    ``downtime`` rounds, then restarts.  While down it neither acts nor
    responds (folded into the failure mask).  With ``reset_values=True``
    (the default) the restart loses in-protocol state: a tournament node
    holds its initial values again at the next window boundary —
    crash-and-restart mid-protocol, not a mere long failure."""

    kind = "crash"

    def __init__(
        self, rate: float, downtime: int = 4, reset_values: bool = True
    ) -> None:
        super().__init__(rate)
        if int(downtime) < 1:
            raise ConfigurationError(
                f"downtime must be >= 1, got {downtime}"
            )
        self.downtime = int(downtime)
        self.reset_values = bool(reset_values)

    def __repr__(self) -> str:
        return (
            f"CrashRestart(rate={self.p}, downtime={self.downtime}, "
            f"reset_values={self.reset_values})"
        )


class ValueCorruption(_UniformSpec):
    """Byzantine-lite: a delivered payload is corrupted in flight — every
    lane of the message is scaled by ``1 + magnitude * u`` with
    ``u ~ U[-1, 1)`` drawn from the injector's stream.  The sender's stored
    state is untouched; only the receiver sees the corrupted copy."""

    kind = "corrupt"

    def __init__(self, p: float, magnitude: float = 0.5) -> None:
        super().__init__(p)
        if not float(magnitude) > 0.0:
            raise ConfigurationError(
                f"magnitude must be > 0, got {magnitude}"
            )
        self.magnitude = float(magnitude)

    def __repr__(self) -> str:
        return f"ValueCorruption(p={self.p}, magnitude={self.magnitude})"


@dataclass
class RoundFaults:
    """The injector's concrete decision for one synchronous round.

    All masks have length ``n``; a mask entry applies to that node's single
    message of the round (one pull / one action), so per-node-per-round is
    exactly per-message granularity.
    """

    round_index: int
    #: Nodes down this round (crash-and-restart state machine).
    crashed: np.ndarray
    #: Nodes whose downtime ended *this* round — the consumer applies the
    #: spec's state loss (value reset) for these before they act again.
    restarted: np.ndarray
    #: Messages sent but lost this round.
    dropped: np.ndarray
    #: Delivered messages that also arrive a second time (accounting).
    duplicated: np.ndarray
    #: Per-node delivery delay in value-update windows (0 = on time).
    delay: np.ndarray
    #: Per-node payload corruption factor (1.0 = clean).
    corruption: np.ndarray
    injected: int = 0

    @property
    def suppressed(self) -> np.ndarray:
        """Nodes whose action this round never takes effect (crash | drop)."""
        return self.crashed | self.dropped


class FaultInjector:
    """Seeded, replayable runtime for a set of composed fault specs.

    Parameters
    ----------
    specs:
        One :class:`FaultSpec` or a sequence of them (including schedule
        wrappers).  Multiple specs of the same kind compose by probability
        union: ``q = 1 - prod(1 - p_i)``.
    rng:
        Seed for the private fault stream.  Like a
        :class:`~repro.topology.dynamic.TopologyProcess`, :meth:`begin`
        replays the stream from its start, so one injector yields the same
        fault schedule on every seeded run — chaos runs replay bit-for-bit.

    The injector draws one :class:`RoundFaults` per round via :meth:`draw`,
    called by its consumer with the run's round index (the engine's
    ``round_index``).
    Round indices that do not increase between calls restart the stream:
    every run indexes its rounds from 0, so a fresh run replays the
    schedule, unless the consumer called :meth:`begin` explicitly.  A
    consumer that runs one computation as several runs moves their round
    0 to its own round count with :meth:`clock_from`.
    """

    def __init__(
        self,
        specs: Union[FaultSpec, Sequence[FaultSpec]],
        rng=None,
    ) -> None:
        if isinstance(specs, FaultSpec):
            specs = [specs]
        specs = list(specs)
        if not specs:
            raise ConfigurationError("FaultInjector needs at least one spec")
        for spec in specs:
            if not isinstance(spec, FaultSpec):
                raise ConfigurationError(
                    f"specs must be FaultSpec instances, got {spec!r}"
                )
            if spec.kind not in FAULT_KINDS:
                raise ConfigurationError(
                    f"unknown fault kind {spec.kind!r} on {spec!r}"
                )
        self.specs = specs
        self._by_kind: Dict[str, list] = {
            kind: [s for s in specs if s.kind == kind] for kind in FAULT_KINDS
        }
        #: Largest delay any delay spec can assign (snapshot-ring bound).
        self.max_delay = max(
            (int(getattr(s, "max_delay", 1)) for s in self._by_kind["delay"]),
            default=0,
        )
        #: Whether any crash spec loses state on restart.
        self.reset_on_restart = any(
            bool(getattr(s, "reset_values", False))
            for s in self._by_kind["crash"]
        )
        if isinstance(rng, RandomSource):
            self._seed_seq = rng.seed_sequence
        elif isinstance(rng, np.random.SeedSequence):
            self._seed_seq = rng
        else:
            self._seed_seq = np.random.SeedSequence(rng)
        self._rng: Optional[RandomSource] = None
        self._down_until: Optional[np.ndarray] = None
        self._last_round: Optional[int] = None
        self._origin = 0
        self.counters: Dict[str, int] = {}
        self.rounds_drawn = 0
        self.begin()

    def begin(self) -> None:
        """Reset to round 0, replaying the identical seeded fault schedule."""
        self._rng = RandomSource(self._seed_seq)
        self._down_until = None
        self._last_round = None
        self.rounds_drawn = 0
        self.counters = {kind: 0 for kind in FAULT_KINDS}
        self.counters["restart"] = 0

    def _kind_probabilities(
        self, kind: str, round_index: int, n: int
    ) -> Optional[np.ndarray]:
        union = self._cumulative_probabilities(kind, round_index, n)
        return union[-1] if union else None

    def _cumulative_probabilities(
        self, kind: str, round_index: int, n: int
    ) -> List[np.ndarray]:
        """Per spec of ``kind``, in order: the probability that it or an
        earlier spec fires.  The last entry is the kind's union."""
        cumulative = []
        survive = np.ones(n)
        for spec in self._by_kind[kind]:
            probs = np.asarray(spec.probabilities(round_index, n), dtype=float)
            if probs.shape != (n,):
                raise ConfigurationError(
                    f"{spec!r} produced shape {probs.shape}, expected ({n},)"
                )
            survive = survive * (1.0 - np.clip(probs, 0.0, 1.0))
            cumulative.append(1.0 - survive)
        return cumulative

    def mu_bound(self) -> float:
        """An upper bound on the per-round act-suppression probability.

        A node crashed by a spec stays down for that spec's ``downtime``
        rounds, so it is down in a round only if it crashed in one of the
        last ``downtime`` rounds: crash spec ``i`` (rate ``p_i``) suppresses
        at most ``1 - (1 - p_i)**downtime_i`` of the nodes.  The crash and
        drop bounds combine by union, and
        :meth:`repro.gossip.env.GossipEnv.mu_bound` unions the result with
        the failure model's ``mu`` to size the Section-5 pull counts and
        the counting budget.  Capped just below 1.
        """
        survive = 1.0
        for kind in ("crash", "drop"):
            for spec in self._by_kind[kind]:
                p = float(getattr(spec, "p", 0.0))
                rounds = int(getattr(spec, "downtime", 1)) if kind == "crash" else 1
                survive *= (1.0 - min(p, 1.0)) ** rounds
        return min(1.0 - survive, 0.999)

    @contextmanager
    def clock_from(self, origin: int) -> Iterator["FaultInjector"]:
        """Within the block, round ``r`` of a run is round ``origin + r`` of
        the schedule."""
        previous, self._origin = self._origin, int(origin)
        try:
            yield self
        finally:
            self._origin = previous

    def draw(self, round_index: int, n: int) -> RoundFaults:
        """The concrete fault decision for one round (consumes the private
        stream only).  Draw order is fixed by :data:`FAULT_KINDS`, so the
        replayed stream layout never depends on the consumer."""
        round_index += self._origin
        if self._last_round is not None and round_index <= self._last_round:
            # A fresh run restarted its round counter: replay from round 0,
            # as a topology process replays its schedule on every begin().
            self.begin()
        self._last_round = round_index
        if self._down_until is None or self._down_until.shape[0] != n:
            # First draw, or the population changed (e.g. a service epoch
            # rebuild over the churn survivors): node identities differ, so
            # pending crash windows cannot carry over — start the crash
            # state machine fresh.  The stream itself keeps advancing, so
            # replays stay deterministic across the size change.
            self._down_until = np.full(n, -1, dtype=np.int64)
        rng = self._rng
        zeros_bool = np.zeros(n, dtype=bool)

        probs = self._kind_probabilities("drop", round_index, n)
        dropped = zeros_bool if probs is None else rng.random(n) < probs

        probs = self._kind_probabilities("duplicate", round_index, n)
        duplicated = zeros_bool if probs is None else rng.random(n) < probs

        delay = np.zeros(n, dtype=np.int64)
        probs = self._kind_probabilities("delay", round_index, n)
        if probs is not None:
            late = rng.random(n) < probs
            if self.max_delay > 0:
                amounts = rng.integers(1, self.max_delay + 1, size=n)
                delay = np.where(late, amounts, 0)

        restarted = zeros_bool
        crashed = zeros_bool
        cumulative = self._cumulative_probabilities("crash", round_index, n)
        if cumulative:
            restarted = self._down_until == round_index
            was_down = self._down_until > round_index
            u = rng.random(n)
            fresh = (u < cumulative[-1]) & ~was_down
            if np.any(fresh):
                # The uniform that decides a crash also picks its spec:
                # the first whose running union covers it.  A node that
                # crashes at round r is down for that spec's rounds
                # [r, r + downtime) and restarts at round r + downtime.
                specs = self._by_kind["crash"]
                downtime = np.full(n, int(getattr(specs[-1], "downtime", 1)))
                for spec, below in zip(specs[-2::-1], cumulative[-2::-1]):
                    downtime[u < below] = int(getattr(spec, "downtime", 1))
                self._down_until = np.where(
                    fresh, round_index + downtime, self._down_until
                )
            crashed = fresh | was_down

        corruption = None
        probs = self._kind_probabilities("corrupt", round_index, n)
        corrupted = zeros_bool
        if probs is not None:
            corrupted = rng.random(n) < probs
            magnitude = max(
                float(getattr(s, "magnitude", 0.5))
                for s in self._by_kind["corrupt"]
            )
            factors = 1.0 + magnitude * (2.0 * rng.random(n) - 1.0)
            corruption = np.where(corrupted, factors, 1.0)
        if corruption is None:
            corruption = np.ones(n)

        counts = {
            "drop": int(dropped.sum()),
            "duplicate": int(duplicated.sum()),
            "delay": int(np.count_nonzero(delay)),
            "crash": int(crashed.sum()),
            "corrupt": int(corrupted.sum()),
            "restart": int(restarted.sum()),
        }
        injected = sum(
            counts[k] for k in ("drop", "duplicate", "delay", "crash", "corrupt")
        )
        for key, value in counts.items():
            self.counters[key] += value
        self.rounds_drawn += 1

        if injected:
            from repro.obs.tracer import get_tracer

            tracer = get_tracer()
            if tracer.active:
                tracer.event("fault", round=int(round_index), **counts)

        return RoundFaults(
            round_index=round_index,
            crashed=crashed,
            restarted=restarted,
            dropped=dropped,
            duplicated=duplicated,
            delay=delay,
            corruption=corruption,
            injected=injected,
        )

    @property
    def total_injected(self) -> int:
        """Total faults injected (all kinds except restarts) since begin()."""
        return sum(self.counters.get(k, 0) for k in FAULT_KINDS)

    def __repr__(self) -> str:
        return (
            f"FaultInjector({', '.join(repr(s) for s in self.specs)}; "
            f"injected={self.total_injected})"
        )
