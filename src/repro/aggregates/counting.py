"""Counting / rank computation on top of push-sum (Step 5 of Algorithm 3).

To compute the rank of a threshold value, every node contributes an
indicator (1 if its value is at most the threshold, else 0; pushed
centered, as ±1/2, see :func:`count_indicators`) and push-sum averages
the indicators; multiplying the average by ``n`` and rounding
yields the exact integer count once the count is off by less than 1/2,
which a relative error below ``1/(2n)`` guarantees.  Push-sum reaches it
w.h.p. in ``O(log n)`` rounds; :func:`count_rounds` is that budget with
constants measured on the engine (``benchmarks/BENCH_count_budget.json``)
and is :func:`count_leq`'s default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.aggregates.push_sum import push_sum_average
from repro.gossip.env import GossipEnv, resolve_env
from repro.gossip.metrics import NetworkMetrics
from repro.utils.rand import RandomSource

#: Target probability δ that one count leaves some node's rounded estimate
#: off the true count.
COUNT_FAILURE_TARGET = 1e-3
#: Rounds per log₂ n of :func:`count_rounds`.
COUNT_ROUNDS_SLOPE = 2.7
#: Rounds added to the slope term of :func:`count_rounds`.
COUNT_ROUNDS_OFFSET = 11.0
#: Exponent ``c`` of :func:`count_rounds`' failure stretch ``(1 - mu)**-c``.
COUNT_ROUNDS_MU_EXPONENT = 1.25
#: Largest μ :func:`count_rounds` budgets for: there the stretch is already
#: 17.8×, far past the table's largest measured μ (0.5).
COUNT_MAX_MU = 0.9
#: Largest n whose counts push float32 indicators (complex64 ``(s, w)``
#: pairs, half the bytes of a push-sum round); larger counts push float64.
#: float32 rounding grows with n, and an exact count needs every node's
#: ``n * estimate`` within 1/2 of the count.  The failure-rate table's
#: 2²⁰-node cells read a worst error of 0.20 (μ = 0) and 0.19 (μ = 0.5)
#: at the budget, under its 1/4 gate (a 2× margin); at 2²¹ nodes a 0.999
#: fraction already reads 0.35 in float32, against 0.0007 in float64.
COUNT_FLOAT32_MAX_N = 2 ** 20


def count_rounds(n: int, mu: float = 0.0) -> int:
    """Push-sum rounds after which a count over ``n`` nodes is exact w.h.p.

    ``ceil((a log₂ n + b) / (1 - mu)**c)`` with ``a`` =
    :data:`COUNT_ROUNDS_SLOPE`, ``b`` = :data:`COUNT_ROUNDS_OFFSET` and
    ``c`` = :data:`COUNT_ROUNDS_MU_EXPONENT`: 25 rounds at n = 32, 38 at
    10³, 47 at 10⁴ and 65 at 10⁶ without failures.  Push-sum's
    error falls by a constant factor per round, so every node is within
    ``1/(2n)`` of the average, and rounds to the exact count, after
    ``O(log n + log 1/δ)`` rounds with probability ``1 - δ`` (Kempe, Dobra,
    Gehrke, FOCS 2003, Theorem 3.1).  The constants are read off the
    failure-rate table ``benchmarks/BENCH_count_budget.json``
    (``benchmarks/bench_count_budget.py``), which records the first round
    at which every node's rounded count is exact: its median is about
    2.7 log₂ n, and ``b`` keeps every cell's budget at least two rounds
    above the slowest of its seeds (≥ 1000 seeds per cell up to n = 10⁴,
    100 at 10⁵ and 20 at 10⁶), with zero misses at the budget.  Between
    the 99th percentile and that maximum the tail falls tenfold in three
    to four rounds, so two more rounds put a count's miss rate below the
    target :data:`COUNT_FAILURE_TARGET`.  A node that sits out a round
    with probability ``mu`` (the env's
    :meth:`~repro.gossip.env.GossipEnv.mu_bound`) neither halves nor
    pushes its pair.  In the table's μ = 0.15, 0.3 and 0.5 cells that
    stretches the median by 1.22×, 1.56× and 2.26–2.28×, about
    ``(1 - mu)**-1.24`` and more than the ``1 / (1 - mu)`` share of
    nodes that act, so the budget stretches by ``(1 - mu)**-1.25``.

    The table is for uniform gossip on the complete graph, where the
    counting substrates of the exact driver and the Kempe baseline run.
    A sparse topology or a topology process mixes more slowly, and a count
    there may not be exact at this budget.  Above ``mu`` =
    :data:`COUNT_MAX_MU` the budget is unbounded in effect (about 213 000
    rounds at n = 10³ and ``mu`` = 0.999), so it raises instead.

    The table runs :func:`count_indicators`' inputs, so the budget holds
    for the float32 counts up to :data:`COUNT_FLOAT32_MAX_N` nodes as well
    as for the float64 counts above it.
    """
    if n < 2:
        raise ConfigurationError("n must be at least 2")
    if not 0.0 <= mu <= COUNT_MAX_MU:
        raise ConfigurationError(
            f"mu = {mu:g} is outside [0, {COUNT_MAX_MU}]: no count budget "
            "when nearly every node sits out every round"
        )
    return int(math.ceil(
        (COUNT_ROUNDS_SLOPE * math.log2(n) + COUNT_ROUNDS_OFFSET)
        / (1.0 - mu) ** COUNT_ROUNDS_MU_EXPONENT
    ))


def count_indicators(values: np.ndarray, threshold: float) -> np.ndarray:
    """:func:`count_leq`'s push-sum input: ``+1/2`` where a value is
    ``<= threshold``, ``-1/2`` elsewhere.

    The indicators are float32 while ``values.size`` is at most
    :data:`COUNT_FLOAT32_MAX_N` and float64 above it; the comparison is
    exact in either case.  Centering them on 0 shrinks the mass each pair
    carries, and with it float32's rounding of the average: at n = 10⁶ the
    worst ``|n * estimate - count|`` at the budget fell from 0.31–0.33
    (0/1 indicators) to 0.16–0.17 at a 0.999 fraction, and from 0.14–0.16
    to 0.008–0.011 at 0.5 (two seeds each).
    """
    dtype = np.float32 if values.size <= COUNT_FLOAT32_MAX_N else np.float64
    return np.where(values <= np.float64(threshold), dtype(0.5), dtype(-0.5))


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

    The push-sum runs over :func:`count_indicators` (float32 up to
    :data:`COUNT_FLOAT32_MAX_N` nodes) and adds the centering back to the
    estimates.  ``rounds`` defaults to :func:`count_rounds` at the env's
    :meth:`~repro.gossip.env.GossipEnv.mu_bound`.  The underlying push-sum
    run goes through :func:`~repro.gossip.engine.run_protocol`, so
    ``env.engine`` selects the vectorized engine (``None``) or the asyncio
    one.
    """
    array = np.asarray(values)
    if array.dtype != np.float32:
        array = np.asarray(array, dtype=float)
    if array.ndim != 1 or array.size < 2:
        raise ConfigurationError("values must be a 1-d array of length >= 2")
    if np.isnan(array).any() or np.isnan(threshold):
        raise ConfigurationError("values and threshold must not be NaN")
    n = array.size
    indicators = count_indicators(array, threshold)
    if rounds is None:
        rounds = count_rounds(n, resolve_env(env).mu_bound())
    result = push_sum_average(
        indicators, rng=rng, rounds=rounds, metrics=metrics, env=env
    )
    estimates = (result.estimates + 0.5) * n
    true_count = int(np.count_nonzero(indicators > 0))
    rounded = np.rint(estimates).astype(int)
    return CountResult(
        estimates=estimates,
        count=int(np.rint(float(np.median(estimates)))),
        rounds=result.rounds,
        metrics=result.metrics,
        exact=bool(np.all(rounded == true_count)),
    )

