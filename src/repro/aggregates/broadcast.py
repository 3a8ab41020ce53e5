"""Single-message rumor spreading (push-pull broadcast).

Broadcasting one message to all ``n`` nodes takes Θ(log n) rounds
[FG85, Pit87, KSSV00].  This is the reference point that makes the O(log n)
exact-quantile algorithm of Theorem 1.1 optimal: even after the quantile
value has been identified, spreading it to every node costs Ω(log n).

The protocol is the first *mixed-kind* batch protocol: informed nodes
push-pull while uninformed nodes only pull, so one vectorized round carries
a per-node kind array (``BatchAction(kind="mixed")``).  Pushes and pull
responses answer from the round-start snapshot of the informed set — the
synchronous semantics of the uniform gossip model (as in
:mod:`repro.core.tournament`) — which makes the round outcome
independent of delivery order and lets the vectorized engine reproduce the
per-node asyncio engine bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.gossip.engine import run_protocol
from repro.gossip.env import GossipEnv
from repro.gossip.messages import payload_bits
from repro.gossip.metrics import NetworkMetrics
from repro.gossip.protocol import (
    Action,
    BatchAction,
    BatchGossipProtocol,
    GossipProtocol,
    KIND_PULL,
    KIND_PUSHPULL,
)
from repro.utils.rand import RandomSource
from repro.utils.views import ReadOnlyArray


class BroadcastProtocol(BatchGossipProtocol, GossipProtocol):
    """Push-pull spreading of a single rumor from one source node."""

    name = "broadcast"

    def __init__(
        self,
        n: int,
        source: int = 0,
        payload: float = 1.0,
        max_rounds: Optional[int] = None,
    ) -> None:
        super().__init__(n)
        if not 0 <= source < n:
            raise ConfigurationError("source must be a valid node index")
        self._informed = np.zeros(n, dtype=bool)
        self._informed[source] = True
        self._payload = payload
        self._budget = (
            max_rounds
            if max_rounds is not None
            else int(math.ceil(4 * math.log2(n) + 12))
        )
        self._snapshot = self._informed.copy()

    # -- lifecycle: round-start snapshot of the informed set ----------------------
    def begin(self) -> None:
        self._snapshot = self._informed.copy()

    def end_round(self, round_index: int) -> None:
        self._snapshot = self._informed.copy()

    # -- per-node (loop-engine) interface -----------------------------------------
    def act(self, node: int, round_index: int) -> Action:
        if self._snapshot[node]:
            return Action.pushpull(self._payload)
        return Action.pull()

    def serve_pull(self, node: int, requester: int, round_index: int):
        return self._payload if self._snapshot[node] else None

    def on_receive(self, node, payload, sender, kind, round_index) -> None:
        if payload is not None:
            self._informed[node] = True

    # -- batch (vectorized-engine) interface --------------------------------------
    def act_batch(self, round_index: int, alive: ReadOnlyArray) -> BatchAction:
        kinds = np.where(self._snapshot, KIND_PUSHPULL, KIND_PULL).astype(np.int8)
        return BatchAction("mixed", kinds=kinds)

    def receive_batch(self, round_index, alive: ReadOnlyArray, partners, action):
        kinds = action.kinds
        # Pushes: alive nodes whose declared kind includes a push ship the
        # rumor to their partner.
        pushers = alive & (kinds == KIND_PUSHPULL)
        self._informed[partners[pushers]] = True
        # Pull responses: alive nodes whose kind includes a pull receive the
        # rumor iff the partner was informed at the start of the round.
        pullers = alive & ((kinds == KIND_PULL) | (kinds == KIND_PUSHPULL))
        answered = pullers & self._snapshot[partners]
        self._informed[answered] = True
        full_bits = payload_bits(self._payload, n=self.n)
        empty_bits = payload_bits(None, n=self.n)
        full_responses = int(answered.sum())
        empty_responses = int(pullers.sum()) - full_responses
        return [
            (int(pushers.sum()), full_bits),
            (full_responses, full_bits),
            (empty_responses, empty_bits),
        ]

    def is_done(self, round_index: int) -> bool:
        if round_index >= self._budget:
            return True
        return bool(np.all(self._informed)) and round_index > 0

    def outputs(self) -> List[bool]:
        return [bool(v) for v in self._informed]

    @property
    def informed_count(self) -> int:
        return int(self._informed.sum())


@dataclass
class BroadcastResult:
    rounds: int
    informed: int
    n: int
    metrics: NetworkMetrics

    @property
    def all_informed(self) -> bool:
        return self.informed == self.n


def broadcast_rounds(
    n: int,
    rng: Union[None, int, RandomSource] = None,
    source: int = 0,
    max_rounds: Optional[int] = None,
    metrics: Optional[NetworkMetrics] = None,
    env: Optional[GossipEnv] = None,
) -> BroadcastResult:
    """Measure how many rounds push-pull broadcast needs to inform all nodes."""
    protocol = BroadcastProtocol(n, source=source, max_rounds=max_rounds)
    result = run_protocol(
        protocol,
        rng=rng,
        max_rounds=protocol._budget + 1,
        metrics=metrics,
        raise_on_budget=False,
        env=env,
    )
    return BroadcastResult(
        rounds=result.rounds,
        informed=protocol.informed_count,
        n=n,
        metrics=result.metrics,
    )
