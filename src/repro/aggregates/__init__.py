"""Gossip aggregation substrate.

The exact-quantile algorithm (Algorithm 3) relies on three classic gossip
primitives which we implement here from scratch:

* push-sum averaging / counting (Kempe, Dobra, Gehrke, FOCS'03) — Step 5;
* min/max (extrema) spreading by rumor spreading — Step 4;
* single-message broadcast — the Ω(log n) reference point that makes
  Theorem 1.1 optimal.
"""

from repro.aggregates.push_sum import PushSumProtocol, push_sum_average, push_sum_sum
from repro.aggregates.extrema import ExtremaProtocol, spread_extrema
from repro.aggregates.counting import count_leq
from repro.aggregates.broadcast import BroadcastProtocol, broadcast_rounds

__all__ = [
    "PushSumProtocol",
    "push_sum_average",
    "push_sum_sum",
    "ExtremaProtocol",
    "spread_extrema",
    "count_leq",
    "BroadcastProtocol",
    "broadcast_rounds",
]
