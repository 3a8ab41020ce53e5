"""Real-network asyncio backend: the same protocols, live transports.

The vectorized engine (:mod:`repro.gossip.engine`) executes synchronous
gossip rounds as function calls.  This package executes the *same*
:class:`~repro.gossip.protocol.GossipProtocol` implementations — push-sum,
counting, extrema — over real message passing: every node speaks
push / pull / push-pull RPC through a
:class:`~repro.net.transport.Transport` (in-process channels for fast
tests, loopback TCP streams by default for deployment realism), and a
round's frames go out together as one awaited wave.

The protocol/transport split is the architectural contract: protocols
never see the transport, transports never see protocol state, and the
round scaffolding (partner draws, failure masks, message accounting) is
shared with the vectorized engine — which is what makes the simulated ≡
deployed equivalence suite possible (``tests/test_net_equivalence.py``
pins round counts and :class:`~repro.gossip.metrics.NetworkMetrics`
message/bit totals of ``engine="asyncio"`` runs against the vectorized
engine).

The robustness layer ships as first-class subsystems:

* :mod:`repro.net.rpc` — per-RPC deadlines and jittered exponential
  backoff whose retry schedules derive from a private seed, so they
  replay exactly regardless of task interleaving;
* :mod:`repro.net.failure_detector` — SWIM-style suspicion (direct ping →
  indirect ping-req through k proxies → suspect → confirm), piggybacked
  on gossip pushes;
* :mod:`repro.net.codec` — the TCP transport's fixed binary wire format:
  frames are decoded field by field, never unpickled;
* :mod:`repro.net.quantile` — a live quantile query that completes with
  honestly widened bounds when peers die mid-run (the PR-8 degraded
  answer contract).
"""

from repro.net.failure_detector import SwimFailureDetector
from repro.net.metrics_http import MetricsServer, fetch_metrics
from repro.net.quantile import (
    NetQuantileAnswer,
    anet_approximate_quantile,
    net_approximate_quantile,
)
from repro.net.rpc import RetryPolicy, RpcClient, RpcError, RpcTimeout
from repro.net.runner import arun_protocol, run_protocol_asyncio
from repro.net.transport import (
    ChannelTransport,
    PeerUnreachable,
    TcpTransport,
    Transport,
)

__all__ = [
    "ChannelTransport",
    "MetricsServer",
    "NetQuantileAnswer",
    "PeerUnreachable",
    "RetryPolicy",
    "RpcClient",
    "RpcError",
    "RpcTimeout",
    "SwimFailureDetector",
    "TcpTransport",
    "Transport",
    "anet_approximate_quantile",
    "arun_protocol",
    "fetch_metrics",
    "net_approximate_quantile",
    "run_protocol_asyncio",
]
