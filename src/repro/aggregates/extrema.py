"""Extrema (min/max) spreading by push-pull rumor spreading.

Step 4 of Algorithm 3 requires every node to learn the global minimum and
maximum of a set of values.  Forwarding the best value seen so far with
push-pull gossip informs all nodes in ``O(log n)`` rounds w.h.p.
[FG85, Pit87]; under the Section-5 failure model the same holds with a
constant-factor slowdown [ES09].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.gossip.engine import run_protocol
from repro.gossip.env import GossipEnv
from repro.gossip.messages import BITS_HEADER, payload_bits
from repro.gossip.metrics import NetworkMetrics
from repro.gossip.protocol import Action, BatchAction, BatchGossipProtocol, GossipProtocol
from repro.utils.rand import RandomSource
from repro.utils.views import ReadOnlyArray


class ExtremaProtocol(BatchGossipProtocol, GossipProtocol):
    """Push-pull forwarding of the extreme (min or max) value seen so far.

    Pushes and pull responses both carry the sender's best value *as of the
    start of the round* — the synchronous snapshot semantics of the uniform
    gossip model (see :class:`repro.gossip.network.PullBatch`).  Because
    min/max merges are exact and commutative, a round's outcome is
    independent of delivery order, which is what lets the vectorized engine
    reproduce the loop engine bit for bit.
    """

    def __init__(
        self,
        values: Union[Sequence[float], np.ndarray],
        mode: str = "max",
        max_rounds: Optional[int] = None,
        stop_when_converged: bool = True,
    ) -> None:
        array = np.asarray(values, dtype=float)
        if array.ndim != 1 or array.size < 2:
            raise ConfigurationError("values must be a 1-d array of length >= 2")
        if mode not in ("min", "max"):
            raise ConfigurationError("mode must be 'min' or 'max'")
        super().__init__(array.size)
        self.name = f"extrema-{mode}"
        self._mode = mode
        self._best = array.copy()
        self._target = float(array.max() if mode == "max" else array.min())
        self._budget = (
            max_rounds
            if max_rounds is not None
            else int(math.ceil(4 * math.log2(self.n) + 12))
        )
        self._stop_when_converged = stop_when_converged
        self._snapshot = self._best.copy()
        self._scratch: Optional[np.ndarray] = None

    def _better(self, a: float, b: float) -> float:
        return max(a, b) if self._mode == "max" else min(a, b)

    def begin(self) -> None:
        np.copyto(self._snapshot, self._best)

    def end_round(self, round_index: int) -> None:
        np.copyto(self._snapshot, self._best)

    def act(self, node: int, round_index: int) -> Action:
        return Action.pushpull(float(self._snapshot[node]))

    def serve_pull(self, node: int, requester: int, round_index: int) -> float:
        return float(self._snapshot[node])

    def on_receive(self, node, payload, sender, kind, round_index) -> None:
        if payload is None:
            return
        self._best[node] = self._better(float(self._best[node]), float(payload))

    # -- batch (vectorized-engine) interface --------------------------------------
    def act_batch(self, round_index: int, alive: ReadOnlyArray) -> BatchAction:
        bits = payload_bits(0.0, n=self.n)
        # all-alive rounds ship the snapshot itself (read-only) instead of
        # a boolean-masked copy
        payload = self._snapshot if alive.all() else self._snapshot[alive]
        return BatchAction(
            "pushpull",
            payload=payload,
            push_bits=bits,
            pull_bits=bits,
        )

    def receive_batch(self, round_index, alive: ReadOnlyArray, partners, action) -> None:
        merge = np.maximum if self._mode == "max" else np.minimum
        if action.payload.size == self.n:
            # pushes: scatter each node's snapshot value onto its partner,
            # then pulls: gather each partner's snapshot value (take-clip
            # skips the bounds check; partners are in range by construction)
            # — all into a reusable scratch buffer, merged in place
            if self._scratch is None:
                self._scratch = np.empty_like(self._best)
            merge.at(self._best, partners, action.payload)
            np.take(self._snapshot, partners, out=self._scratch, mode="clip")
            merge(self._best, self._scratch, out=self._best)
            return
        targets = partners[alive]
        # pushes: scatter each alive node's snapshot value onto its partner
        merge.at(self._best, targets, action.payload)
        # pull responses: gather each partner's snapshot value
        self._best[alive] = merge(self._best[alive], self._snapshot[targets])

    def is_done(self, round_index: int) -> bool:
        if round_index >= self._budget:
            return True
        if self._stop_when_converged and round_index > 0:
            return bool(np.all(self._best == self._target))
        return False

    def outputs_array(self) -> np.ndarray:
        return self._best.copy()

    def outputs(self) -> List[float]:
        return [float(v) for v in self._best]

    @property
    def converged(self) -> bool:
        return bool(np.all(self._best == self._target))


class ExtremaPairProtocol(BatchGossipProtocol, GossipProtocol):
    """Fused min+max spreading: one run whose messages carry both values.

    Step 4 of Algorithm 3 needs the global *minimum* of the lower sandwich
    estimates and the global *maximum* of the upper ones.  Both spread in
    the same O(log n)-round window — an O(log n)-bit message has room for
    both working values — so the fused protocol runs one partner stream
    whose push/pull payload is the ``(lo, hi)`` pair: the lo lane
    min-merges and the hi lane max-merges, each lane behaving exactly like
    its :class:`ExtremaProtocol` counterpart.  This is the same multi-lane
    trick the tournament phases use on the
    :class:`~repro.gossip.network.GossipNetwork` pull surface.
    """

    name = "extrema-pair"

    def __init__(
        self,
        lo_values: Union[Sequence[float], np.ndarray],
        hi_values: Union[Sequence[float], np.ndarray],
        max_rounds: Optional[int] = None,
        stop_when_converged: bool = True,
    ) -> None:
        lo = np.asarray(lo_values, dtype=float)
        hi = np.asarray(hi_values, dtype=float)
        if lo.ndim != 1 or lo.size < 2:
            raise ConfigurationError("lo_values must be a 1-d array of length >= 2")
        if hi.shape != lo.shape:
            raise ConfigurationError("lo_values and hi_values must have equal length")
        super().__init__(lo.size)
        self._lo = lo.copy()
        self._hi = hi.copy()
        self._lo_target = float(lo.min())
        self._hi_target = float(hi.max())
        self._budget = (
            max_rounds
            if max_rounds is not None
            else int(math.ceil(4 * math.log2(self.n) + 12))
        )
        self._stop_when_converged = stop_when_converged
        self._lo_snapshot = self._lo.copy()
        self._hi_snapshot = self._hi.copy()
        self._scratch: Optional[np.ndarray] = None

    def begin(self) -> None:
        np.copyto(self._lo_snapshot, self._lo)
        np.copyto(self._hi_snapshot, self._hi)

    def end_round(self, round_index: int) -> None:
        np.copyto(self._lo_snapshot, self._lo)
        np.copyto(self._hi_snapshot, self._hi)

    def act(self, node: int, round_index: int) -> Action:
        return Action.pushpull(
            (float(self._lo_snapshot[node]), float(self._hi_snapshot[node]))
        )

    def serve_pull(self, node: int, requester: int, round_index: int):
        return (float(self._lo_snapshot[node]), float(self._hi_snapshot[node]))

    def on_receive(self, node, payload, sender, kind, round_index) -> None:
        if payload is None:
            return
        lo, hi = payload
        self._lo[node] = min(float(self._lo[node]), float(lo))
        self._hi[node] = max(float(self._hi[node]), float(hi))

    # -- batch (vectorized-engine) interface --------------------------------------
    def act_batch(self, round_index: int, alive: ReadOnlyArray) -> BatchAction:
        bits = self.message_bits(None)
        if alive.all():
            payload = (self._lo_snapshot, self._hi_snapshot)
        else:
            payload = (self._lo_snapshot[alive], self._hi_snapshot[alive])
        return BatchAction(
            "pushpull", payload=payload, push_bits=bits, pull_bits=bits
        )

    def receive_batch(self, round_index, alive: ReadOnlyArray, partners, action) -> None:
        lo_payload, hi_payload = action.payload
        if lo_payload.size == self.n:
            if self._scratch is None:
                self._scratch = np.empty_like(self._lo)
            np.minimum.at(self._lo, partners, lo_payload)
            np.take(self._lo_snapshot, partners, out=self._scratch, mode="clip")
            np.minimum(self._lo, self._scratch, out=self._lo)
            np.maximum.at(self._hi, partners, hi_payload)
            np.take(self._hi_snapshot, partners, out=self._scratch, mode="clip")
            np.maximum(self._hi, self._scratch, out=self._hi)
            return
        targets = partners[alive]
        np.minimum.at(self._lo, targets, lo_payload)
        self._lo[alive] = np.minimum(self._lo[alive], self._lo_snapshot[targets])
        np.maximum.at(self._hi, targets, hi_payload)
        self._hi[alive] = np.maximum(self._hi[alive], self._hi_snapshot[targets])

    def is_done(self, round_index: int) -> bool:
        if round_index >= self._budget:
            return True
        if self._stop_when_converged and round_index > 0:
            return self.converged
        return False

    def message_bits(self, payload) -> int:
        # one framing + sender id, two scalar working values
        return payload_bits(0.0, n=self.n) + payload_bits(0.0) - BITS_HEADER

    def lo_values_array(self) -> np.ndarray:
        return self._lo.copy()

    def hi_values_array(self) -> np.ndarray:
        return self._hi.copy()

    def outputs(self) -> List[tuple]:
        return [
            (float(lo), float(hi)) for lo, hi in zip(self._lo, self._hi)
        ]

    @property
    def converged(self) -> bool:
        return bool(
            np.all(self._lo == self._lo_target)
            and np.all(self._hi == self._hi_target)
        )


@dataclass
class ExtremaPairResult:
    """Per-node fused (lo-min, hi-max) estimates plus shared accounting."""

    lo_values: np.ndarray
    hi_values: np.ndarray
    rounds: int
    metrics: NetworkMetrics
    converged: bool


def spread_extrema_pair(
    lo_values: Union[Sequence[float], np.ndarray],
    hi_values: Union[Sequence[float], np.ndarray],
    rng: Union[None, int, RandomSource] = None,
    max_rounds: Optional[int] = None,
    metrics: Optional[NetworkMetrics] = None,
    env: Optional[GossipEnv] = None,
) -> ExtremaPairResult:
    """Spread min(lo_values) and max(hi_values) in one fused run.

    Executes the two spreadings of Algorithm 3's Step 4 in a single
    O(log n) window (rounds = max of the pair by construction) instead of
    two sequential runs; every message carries both working values.
    """
    protocol = ExtremaPairProtocol(lo_values, hi_values, max_rounds=max_rounds)
    result = run_protocol(
        protocol,
        rng=rng,
        max_rounds=protocol._budget + 1,
        metrics=metrics,
        raise_on_budget=False,
        env=env,
    )
    return ExtremaPairResult(
        lo_values=protocol.lo_values_array(),
        hi_values=protocol.hi_values_array(),
        rounds=result.rounds,
        metrics=result.metrics,
        converged=protocol.converged,
    )


@dataclass
class ExtremaResult:
    """Per-node extremum estimates plus accounting."""

    values: np.ndarray
    rounds: int
    metrics: NetworkMetrics
    converged: bool

    @property
    def agreed_value(self) -> float:
        """The single agreed value (only meaningful when ``converged``)."""
        return float(self.values[0])


def spread_extrema(
    values: Union[Sequence[float], np.ndarray],
    mode: str = "max",
    rng: Union[None, int, RandomSource] = None,
    max_rounds: Optional[int] = None,
    metrics: Optional[NetworkMetrics] = None,
    env: Optional[GossipEnv] = None,
) -> ExtremaResult:
    """Spread the global min or max of ``values`` to every node."""
    protocol = ExtremaProtocol(values, mode=mode, max_rounds=max_rounds)
    result = run_protocol(
        protocol,
        rng=rng,
        max_rounds=protocol._budget + 1,
        metrics=metrics,
        raise_on_budget=False,
        env=env,
    )
    return ExtremaResult(
        values=result.outputs_array,
        rounds=result.rounds,
        metrics=result.metrics,
        converged=protocol.converged,
    )
