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
from repro.gossip.messages import BITS_PER_VALUE, payload_bits
from repro.gossip.metrics import NetworkMetrics
from repro.gossip.protocol import Action, BatchAction, BatchGossipProtocol, GossipProtocol
from repro.utils.inputs import integral
from repro.utils.rand import RandomSource
from repro.utils.views import ReadOnlyArray


class ExtremaProtocol(BatchGossipProtocol, GossipProtocol):
    """Push-pull forwarding of the extreme (min or max) value seen so far.

    ``values`` is one value per node, or an ``(n, L)`` matrix of ``L``
    lanes that spread in one run: every message carries one working value
    per lane under one framing (Step 4 of Algorithm 3 spreads the min of
    the lower sandwich estimates and the max of the upper ones in the same
    O(log n) window).  ``mode`` is ``"min"`` or ``"max"`` for every lane,
    or one mode per lane.  Lanes are stored lanes-first, ``(L, n)``.

    Pushes and pull responses both carry the sender's best values *as of
    the start of the round* — the synchronous snapshot semantics of the
    uniform gossip model (as in :mod:`repro.core.tournament`).
    Because min/max merges are exact and commutative, a round's outcome is
    independent of delivery order, which is what lets the vectorized engine
    reproduce the per-node asyncio engine bit for bit.  NaN has no order and is
    rejected; ±inf are ordinary extremes.  float32 values (the exact
    driver's rank keys) spread as float32; any other input is cast to
    float64.
    """

    def __init__(
        self,
        values: Union[Sequence[float], np.ndarray],
        mode: Union[str, Sequence[str]] = "max",
        max_rounds: Optional[int] = None,
        stop_when_converged: bool = True,
    ) -> None:
        array = np.asarray(values)
        if array.dtype != np.float32:
            array = np.asarray(array, dtype=float)
        if array.ndim not in (1, 2) or array.shape[0] < 2 or array.size == 0:
            raise ConfigurationError(
                "values must be a 1-d array or an (n, lanes) matrix with n >= 2"
            )
        if np.isnan(array).any():
            raise ConfigurationError("values must not contain NaN")
        lanes = 1 if array.ndim == 1 else array.shape[1]
        modes = (mode,) * lanes if isinstance(mode, str) else tuple(mode)
        if len(modes) != lanes:
            raise ConfigurationError(
                f"got {len(modes)} modes for {lanes} value lanes"
            )
        if any(lane_mode not in ("min", "max") for lane_mode in modes):
            raise ConfigurationError("mode must be 'min' or 'max'")
        super().__init__(array.shape[0])
        self.name = "extrema-" + "-".join(modes)
        self._scalar = array.ndim == 1
        self._merges = [
            np.maximum if lane_mode == "max" else np.minimum for lane_mode in modes
        ]
        self._best = np.array(array[None] if self._scalar else array.T, order="C")
        self._target = np.array(
            [[merge.reduce(row)] for merge, row in zip(self._merges, self._best)],
            dtype=self._best.dtype,
        )
        self._budget = (
            integral(max_rounds, "max_rounds")
            if max_rounds is not None
            else int(math.ceil(4 * math.log2(self.n) + 12))
        )
        if self._budget < 1:
            raise ConfigurationError("max_rounds must be positive")
        self._stop_when_converged = stop_when_converged
        self._snapshot = self._best.copy()
        self._scratch: Optional[np.ndarray] = None

    def begin(self) -> None:
        np.copyto(self._snapshot, self._best)

    def end_round(self, round_index: int) -> None:
        np.copyto(self._snapshot, self._best)

    def _payload(self, rows: np.ndarray, node: int):
        """A node's values as a message: a float for a 1-d input, else an
        L-tuple."""
        if self._scalar:
            return float(rows[0, node])
        return tuple(float(value) for value in rows[:, node])

    def act(self, node: int, round_index: int) -> Action:
        return Action.pushpull(self._payload(self._snapshot, node))

    def serve_pull(self, node: int, requester: int, round_index: int):
        return self._payload(self._snapshot, node)

    def on_receive(self, node, payload, sender, kind, round_index) -> None:
        if payload is None:
            return
        received = (payload,) if self._scalar else payload
        for lane, (merge, value) in enumerate(zip(self._merges, received)):
            self._best[lane, node] = merge(self._best[lane, node], value)

    def message_bits(self, payload) -> int:
        # one framing + sender id, one scalar working value per lane
        return payload_bits(0.0, n=self.n) + (len(self._best) - 1) * BITS_PER_VALUE

    # -- batch (vectorized-engine) interface --------------------------------------
    def act_batch(self, round_index: int, alive: ReadOnlyArray) -> BatchAction:
        bits = self.message_bits(None)
        # all-alive rounds ship the snapshot itself (read-only) instead of
        # a boolean-masked copy
        payload = self._snapshot if alive.all() else self._snapshot[:, alive]
        return BatchAction(
            "pushpull",
            payload=payload,
            push_bits=bits,
            pull_bits=bits,
        )

    def receive_batch(self, round_index, alive: ReadOnlyArray, partners, action) -> None:
        lanes = zip(self._merges, self._best, self._snapshot, action.payload)
        if action.payload.shape[1] == self.n:
            # pushes: scatter each node's snapshot value onto its partner,
            # then pulls: gather each partner's snapshot value (take-clip
            # skips the bounds check; partners are in range by construction)
            # — all into a reusable scratch buffer, merged in place
            if self._scratch is None:
                self._scratch = np.empty(self.n, dtype=self._best.dtype)
            for merge, best, snapshot, pushed in lanes:
                merge.at(best, partners, pushed)
                np.take(snapshot, partners, out=self._scratch, mode="clip")
                merge(best, self._scratch, out=best)
            return
        targets = partners[alive]
        for merge, best, snapshot, pushed in lanes:
            # pushes: scatter each alive node's snapshot value onto its partner
            merge.at(best, targets, pushed)
            # pull responses: gather each partner's snapshot value
            best[alive] = merge(best[alive], snapshot[targets])

    def is_done(self, round_index: int) -> bool:
        if round_index >= self._budget:
            return True
        if self._stop_when_converged and round_index > 0:
            return self.converged
        return False

    def outputs_array(self) -> np.ndarray:
        """Per-node values: ``(n,)`` for a 1-d input, else ``(n, L)``."""
        return self._best[0].copy() if self._scalar else self._best.T.copy()

    def outputs(self) -> List:
        return [self._payload(self._best, node) for node in range(self.n)]

    @property
    def converged(self) -> bool:
        return bool(np.all(self._best == self._target))


@dataclass
class ExtremaResult:
    """Per-node extremum estimates plus accounting."""

    values: np.ndarray
    rounds: int
    metrics: NetworkMetrics
    converged: bool

    @property
    def agreed_value(self) -> float:
        """The single agreed value of a 1-d run (only meaningful when
        ``converged``)."""
        return float(self.values[0])


def spread_extrema(
    values: Union[Sequence[float], np.ndarray],
    mode: Union[str, Sequence[str]] = "max",
    rng: Union[None, int, RandomSource] = None,
    max_rounds: Optional[int] = None,
    metrics: Optional[NetworkMetrics] = None,
    env: Optional[GossipEnv] = None,
) -> ExtremaResult:
    """Spread the global min or max of ``values`` to every node.

    An ``(n, L)`` matrix spreads ``L`` lanes in one run, each lane's
    extreme chosen by its entry of ``mode``; ``values`` is then ``(n, L)``
    too.  ``max_rounds`` must be a positive integer (default
    ``ceil(4 log2 n + 12)``).
    """
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
