"""Quantile queries over the live backend, with graceful degradation.

:func:`net_approximate_quantile` runs the simulated path's algorithm over
a live :class:`~repro.net.transport.Transport`: the pull-window plan of
Algorithms 1 and 2 (:func:`~repro.core.approx_quantile.approximation_plans`,
O(log log n + log 1/ε) rounds, Theorem 1.2) runs as one
:class:`~repro.core.tournament.TournamentProtocol`
(:func:`~repro.core.tournament.arun_windows`).  The querier, the
lowest-numbered live node, takes its output as the candidate, and one
push-sum run (Kempe et al.) over the indicators ``value <= candidate``
counts the fraction of the live pool at or below it.  The querier accepts
when its own counted fraction is within ``eps`` of ``phi``; otherwise the
tournament runs again on the same advancing stream, up to
:data:`ATTEMPTS` times, because the tournaments' guarantee is asymptotic.
If every attempt misses, the last candidate is returned with its accuracy
widened to the counted rank error; it never claims ``eps``.

Degradation: when peers die mid-query (transport kills from a chaos
injector, or a pre-wounded transport session), the query *completes*.  A
dead peer's pulls go unanswered, push-sum mass parked on it stays frozen
(``on_send_failure`` self-merges keep the live pool conserved), and the
answer's ``accuracy`` is widened by ``crashed / n`` — each dead peer can
displace the target rank by at most one — with ``degraded=True``.  If the
querier dies during the count, the next live node reads its own count of
the candidate, which travels with the count.  Fewer than two live peers
is a lost quorum, a :class:`~repro.exceptions.ConfigurationError`.

The answer and its acceptance read only what the querier holds after
gossip.  Which nodes are live (the querier, ``n_live``, the ``crashed / n``
term) still comes from the transport's kill state; taking it from the
SWIM detector's suspected and confirmed sets is open work (ROADMAP.md).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.aggregates.push_sum import PushSumProtocol, default_push_sum_rounds
from repro.core.approx_quantile import approximation_plans
from repro.core.three_tournament import DEFAULT_FINAL_SAMPLES
from repro.core.tournament import arun_windows, lane_rows
from repro.core.two_tournament import plan_windows
from repro.exceptions import ConfigurationError
from repro.gossip.env import GossipEnv, resolve_env
from repro.gossip.metrics import NetworkMetrics
from repro.net.failure_detector import SwimFailureDetector
from repro.net.rpc import RetryPolicy
from repro.net.runner import arun_protocol
from repro.net.transport import Transport, resolve_transport
from repro.obs.tracer import get_tracer
from repro.utils.inputs import node_values
from repro.utils.rand import RandomSource, SeedLike

#: Most tournaments one query runs before it answers with a widened bound.
#: Over 200 seeds at n = 32 (φ = 0.5, ε = 0.1, on channels), 160 queries
#: answered on the first attempt, 39 on the second and 1 on the third.
ATTEMPTS = 3


@dataclass
class NetQuantileAnswer:
    """A live-network quantile answer with honest degradation accounting.

    ``counted_rank`` is the querier's push-sum count of the live values at
    or below ``value``, as a fraction of the live pool, after ``attempts``
    tournaments.  ``accuracy`` is the additive rank-accuracy bound as a
    fraction of all ``n`` peers: ``eps`` (the counted rank error if every
    attempt missed) plus ``len(crashed) / n``.
    """

    phi: float
    eps: float
    n: int
    n_live: int
    value: float
    accuracy: float
    degraded: bool
    rounds: int
    attempts: int
    crashed: Tuple[int, ...]
    counted_rank: float
    metrics: NetworkMetrics = field(repr=False)


def _live(transport: Transport, n: int) -> np.ndarray:
    """The live nodes, in id order; fewer than two is a lost quorum."""
    live = np.array([v for v in range(n) if not transport.is_down(v)], dtype=np.int64)
    if live.size < 2:
        raise ConfigurationError(
            f"only {live.size} of {n} peers are live; no quorum to answer from"
        )
    return live


async def anet_approximate_quantile(
    values: Union[Sequence[float], np.ndarray],
    phi: float = 0.5,
    eps: float = 0.1,
    rng: SeedLike = None,
    transport: Union[None, str, Transport] = None,
    env: Optional[GossipEnv] = None,
    retry: Optional[RetryPolicy] = None,
    detector: Optional[SwimFailureDetector] = None,
    metrics: Optional[NetworkMetrics] = None,
) -> NetQuantileAnswer:
    """Async body of :func:`net_approximate_quantile`."""
    array = node_values(values)
    n = array.size
    source = rng if isinstance(rng, RandomSource) else RandomSource(rng)
    rows = lane_rows(array, resolve_env(env).dtype)
    stats = metrics if metrics is not None else NetworkMetrics()
    rounds_before = stats.rounds
    live_transport, owned = resolve_transport(transport, n)
    live_run = dict(transport=live_transport, retry=retry, detector=detector)
    count_rounds = default_push_sum_rounds(n, relative_error=1.0 / (8.0 * n))
    try:
        for attempt in range(1, ATTEMPTS + 1):
            # Every attempt and count accumulates into ``stats``, so the
            # query meets the env's fault schedule on one round clock.
            plans = approximation_plans(rows, phi, eps, DEFAULT_FINAL_SAMPLES,
                                        False, source)
            final = await arun_windows(rows, plan_windows(plans, stats),
                                       source, stats, env, **live_run)
            candidate = float(final[0, _live(live_transport, n)[0]])
            counter = PushSumProtocol((array <= candidate).astype(float),
                                      rounds=count_rounds)
            with get_tracer().span("counting", stats) as span:
                span.annotate(attempt=attempt)
                await arun_protocol(counter, rng=source.child(), metrics=stats,
                                    env=env, raise_on_budget=False, **live_run)
            live = _live(live_transport, n)
            counted = float(counter.outputs_array()[live[0]])
            if abs(counted - phi) <= eps:
                break

        crashed = tuple(sorted(live_transport.down))
        error = abs(counted - phi)
        return NetQuantileAnswer(
            phi=phi,
            eps=eps,
            n=n,
            n_live=int(live.size),
            value=candidate,
            accuracy=max(eps, error) + len(crashed) / float(n),
            degraded=bool(crashed) or error > eps,
            rounds=stats.rounds - rounds_before,
            attempts=attempt,
            crashed=crashed,
            counted_rank=counted,
            metrics=stats,
        )
    finally:
        if owned:
            await live_transport.stop()


def net_approximate_quantile(
    values: Union[Sequence[float], np.ndarray],
    phi: float = 0.5,
    eps: float = 0.1,
    rng: SeedLike = None,
    transport: Union[None, str, Transport] = None,
    env: Optional[GossipEnv] = None,
    retry: Optional[RetryPolicy] = None,
    detector: Optional[SwimFailureDetector] = None,
    metrics: Optional[NetworkMetrics] = None,
    run_timeout_s: float = 120.0,
) -> NetQuantileAnswer:
    """ε-approximate φ-quantile over a live transport, degradation included.

    Pass a shared :class:`~repro.net.transport.Transport` instance to carry
    kill state into the query (peers already down answer nothing and the
    result is honestly widened), and/or an ``env`` whose ``faults`` injector
    kills peers *during* it.  Every gossip run of the query (each
    tournament and each count) runs in ``env`` and accumulates into
    ``metrics``, on whose round clock the injector's schedule runs: it
    restarts only if ``metrics`` is fresh, so a crash schedule covers the
    whole query, retries included.  ``run_timeout_s`` bounds the whole
    query in wall time.
    """
    if run_timeout_s <= 0:
        raise ConfigurationError("run_timeout_s must be positive")
    query = anet_approximate_quantile(
        values, phi, eps, rng, transport, env, retry, detector, metrics
    )
    return asyncio.run(asyncio.wait_for(query, run_timeout_s))
