"""Gossip aggregation substrate.

The exact-quantile algorithm (Algorithm 3) relies on three classic gossip
primitives which we implement here from scratch:

* push-sum averaging / counting (Kempe, Dobra, Gehrke, FOCS'03) — Step 5;
* min/max (extrema) spreading by pull rumor spreading — Step 4, run as
  one-round pull windows of the tournament substrate
  (:mod:`repro.core.tournament`) for a budget every node knows
  (:func:`~repro.aggregates.extrema.spread_rounds`);
* single-message broadcast — the Ω(log n) reference point that makes
  Theorem 1.1 optimal.
"""

from repro.aggregates.push_sum import PushSumProtocol, push_sum_average, push_sum_sum
from repro.aggregates.extrema import spread_extrema, spread_rounds
from repro.aggregates.counting import count_leq
from repro.aggregates.broadcast import BroadcastProtocol, broadcast_rounds

__all__ = [
    "PushSumProtocol",
    "push_sum_average",
    "push_sum_sum",
    "spread_extrema",
    "spread_rounds",
    "count_leq",
    "BroadcastProtocol",
    "broadcast_rounds",
]
