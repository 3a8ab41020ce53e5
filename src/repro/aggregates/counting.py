"""Counting / rank computation on top of push-sum (Step 5 of Algorithm 3).

To compute the rank of a threshold value, every node contributes an
indicator (1 if its value is at most the threshold, else 0) and push-sum
averages the indicators; multiplying the average by ``n`` and rounding
yields the exact integer count once the count is off by less than 1/2,
which a relative error below ``1/(2n)`` guarantees.  :func:`count_leq`
budgets push-sum's rounds for a relative error of ``1/(8n)``, which takes
``O(log n)`` rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.aggregates.push_sum import default_push_sum_rounds, push_sum_average
from repro.gossip.env import GossipEnv
from repro.gossip.metrics import NetworkMetrics
from repro.utils.rand import RandomSource


@dataclass
class CountResult:
    """Per-node count estimates and the rounded consensus count."""

    estimates: np.ndarray
    count: int
    rounds: int
    metrics: NetworkMetrics
    exact: bool


def count_leq(
    values: Union[Sequence[float], np.ndarray],
    threshold: float,
    rng: Union[None, int, RandomSource] = None,
    rounds: Optional[int] = None,
    metrics: Optional[NetworkMetrics] = None,
    env: Optional[GossipEnv] = None,
) -> CountResult:
    """Count, via gossip, how many node values are ``<= threshold``.

    Returns the per-node estimates (``n`` times the push-sum average) and the
    count: the median of all nodes' estimates, rounded (all nodes agree up
    to the push-sum error).
    ``exact`` reports whether *every* node's rounded estimate matches the
    true count — the condition the w.h.p. analysis guarantees.  NaN in
    ``values`` or as ``threshold`` has no order and is rejected; ±inf are
    ordinary values.

    The underlying push-sum run goes through
    :func:`~repro.gossip.engine.run_protocol`, so ``env.engine`` selects
    the vectorized engine (``None``) or the asyncio one.
    """
    array = np.asarray(values, dtype=float)
    if array.ndim != 1 or array.size < 2:
        raise ConfigurationError("values must be a 1-d array of length >= 2")
    if np.isnan(array).any() or np.isnan(threshold):
        raise ConfigurationError("values and threshold must not be NaN")
    n = array.size
    indicators = (array <= threshold).astype(float)
    if rounds is None:
        rounds = default_push_sum_rounds(n, relative_error=1.0 / (8.0 * n))
    result = push_sum_average(
        indicators, rng=rng, rounds=rounds, metrics=metrics, env=env
    )
    estimates = result.estimates * n
    true_count = int(indicators.sum())
    rounded = np.rint(estimates).astype(int)
    return CountResult(
        estimates=estimates,
        count=int(np.rint(float(np.median(estimates)))),
        rounds=result.rounds,
        metrics=result.metrics,
        exact=bool(np.all(rounded == true_count)),
    )

