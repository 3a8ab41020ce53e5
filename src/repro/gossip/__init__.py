"""Uniform gossip network substrate.

This subpackage implements the communication model the paper analyses:
synchronous rounds in which every node contacts one uniformly random other
node with a push or a pull, messages of O(log n) bits, and (optionally) the
failure model of Section 5 in which node ``v`` fails in round ``i`` with a
pre-determined probability ``p_{v,i} <= mu``.

Every protocol — the tournaments' pull windows
(:mod:`repro.core.tournament`), push-sum, extrema spreading, rumor
broadcast — runs on :func:`~repro.gossip.engine.run_protocol`.  Protocols
implement the :class:`~repro.gossip.protocol.BatchGossipProtocol` mixin and
execute on a vectorized engine that runs each round as array
gathers/scatters, bit-identical to the per-node asyncio engine over
in-process channels.  :class:`~repro.gossip.network.GossipNetwork` is a
handle for timing the pull kernel alone.
"""

from repro.gossip.env import ENGINE_CHOICES, GossipEnv
from repro.gossip.failures import (
    FailureModel,
    NoFailures,
    PerNodeFailures,
    TopologyFailures,
    UniformFailures,
)
from repro.gossip.messages import Message, payload_bits
from repro.gossip.metrics import NetworkMetrics, RoundRecord
from repro.gossip.network import GossipNetwork, PullBatch
from repro.gossip.protocol import (
    KIND_IDLE,
    KIND_PULL,
    KIND_PUSH,
    KIND_PUSHPULL,
    Action,
    BatchAction,
    BatchGossipProtocol,
    GossipProtocol,
)
from repro.gossip.engine import (
    EngineResult,
    run_protocol,
    run_protocol_vectorized,
)

__all__ = [
    "GossipEnv",
    "FailureModel",
    "NoFailures",
    "UniformFailures",
    "PerNodeFailures",
    "TopologyFailures",
    "Message",
    "payload_bits",
    "NetworkMetrics",
    "RoundRecord",
    "GossipNetwork",
    "PullBatch",
    "Action",
    "BatchAction",
    "KIND_IDLE",
    "KIND_PUSH",
    "KIND_PULL",
    "KIND_PUSHPULL",
    "BatchGossipProtocol",
    "GossipProtocol",
    "ENGINE_CHOICES",
    "EngineResult",
    "run_protocol",
    "run_protocol_vectorized",
]
