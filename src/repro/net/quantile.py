"""Quantile queries over the live backend, with graceful degradation.

:func:`net_approximate_quantile` answers an ε-approximate φ-quantile query
entirely over a live :class:`~repro.net.transport.Transport`, composing two
gossip primitives the vectorized engine already runs:

1. one two-lane :class:`~repro.aggregates.extrema.ExtremaProtocol` run
   (a min lane and a max lane, both working values in every message)
   brackets the live value range ``[lo, hi]``;
2. bisection by counting: each step runs
   :class:`~repro.aggregates.push_sum.PushSumProtocol` over the indicator
   vector ``values <= mid`` and narrows the bracket until the rank
   uncertainty is within ``eps`` of the target rank — Step 5 of
   Algorithm 3's counting trick, aimed at a quantile instead of a rank.

The point of the module is the PR-8 degradation contract under churn:
when peers die mid-query (transport kills from a chaos injector, or a
pre-wounded transport session), the query *completes* instead of raising.
Push-sum mass parked on dead peers stays frozen (the engine's
``on_send_failure`` self-merge keeps the live pool conserved), counts are
taken over the surviving pool, and the answer's ``accuracy`` is widened by
``crashed / n`` — each dead peer can displace the target rank by at most
one — with ``degraded=True``.  Honest bounds, never silently tight ones.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.aggregates.extrema import ExtremaProtocol
from repro.aggregates.push_sum import PushSumProtocol, default_push_sum_rounds
from repro.exceptions import ConfigurationError
from repro.gossip.env import GossipEnv
from repro.gossip.metrics import NetworkMetrics
from repro.net.failure_detector import SwimFailureDetector
from repro.net.rpc import RetryPolicy
from repro.net.runner import arun_protocol
from repro.net.transport import Transport, resolve_transport
from repro.utils.inputs import node_values
from repro.utils.rand import RandomSource, SeedLike


@dataclass
class NetQuantileAnswer:
    """A live-network quantile answer with honest degradation accounting.

    ``accuracy`` is the additive rank-accuracy bound as a fraction of the
    *initial* population: ``eps`` when nothing went wrong, widened by
    ``len(crashed) / n`` when peers died — a dead peer's frozen value can
    displace the live target rank by at most one position.
    """

    phi: float
    eps: float
    n: int
    n_live: int
    value: float
    accuracy: float
    degraded: bool
    rounds: int
    bisection_steps: int
    crashed: Tuple[int, ...]
    rank_bracket: Tuple[float, float]
    metrics: NetworkMetrics = field(repr=False)


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
    max_bisection_steps: int = 40,
    count_rounds: Optional[int] = None,
) -> NetQuantileAnswer:
    """Async body of :func:`net_approximate_quantile`."""
    array = node_values(values, min_nodes=2)
    if not 0.0 <= phi <= 1.0:
        raise ConfigurationError(f"phi must be in [0, 1], got {phi}")
    if not 0.0 < eps < 0.5:
        raise ConfigurationError(f"eps must be in (0, 0.5), got {eps}")
    n = array.size
    source = rng if isinstance(rng, RandomSource) else RandomSource(rng)
    stats = metrics if metrics is not None else NetworkMetrics()
    live_transport, owned = resolve_transport(transport, n)
    if count_rounds is None:
        count_rounds = default_push_sum_rounds(n, relative_error=1.0 / (8.0 * n))

    try:
        # Phase 1: bracket the live value range with one two-lane extrema
        # run: lane 0 spreads the min, lane 1 the max.
        bracket = ExtremaProtocol(
            np.column_stack([array, array]), mode=("min", "max")
        )
        result = await arun_protocol(
            bracket,
            rng=source.child(),
            metrics=stats,
            transport=live_transport,
            env=env,
            retry=retry,
            detector=detector,
            raise_on_budget=False,
        )
        rounds = result.rounds
        live = np.array(
            [v for v in range(n) if not live_transport.is_down(v)],
            dtype=np.int64,
        )
        if live.size < 2:
            raise ConfigurationError(
                "fewer than 2 peers survived the extrema phase; no quorum "
                "to answer from"
            )
        # The widest bracket any surviving node holds contains every value
        # a surviving node contributed.
        bounds = bracket.outputs_array()[live]
        lo_v = float(bounds[:, 0].min())
        hi_v = float(bounds[:, 1].max())

        # Phase 2: bisection by counting over the surviving pool.  Frozen
        # (dead) mass never reaches the live pool, so live estimates
        # converge to the live indicator average; times n_live, a count.
        n_live = int(live.size)
        target = phi * n_live
        lo_rank, hi_rank = 0.0, float(n_live)
        answer = hi_v
        steps = 0
        while (
            steps < max_bisection_steps
            and (hi_rank - lo_rank) > eps * n_live
            and (hi_v - lo_v) > 0.0
        ):
            mid = 0.5 * (lo_v + hi_v)
            if mid <= lo_v or mid >= hi_v:
                break
            counter = PushSumProtocol(
                (array <= mid).astype(float), rounds=count_rounds
            )
            count_run = await arun_protocol(
                counter,
                rng=source.child(),
                metrics=stats,
                transport=live_transport,
                env=env,
                retry=retry,
                detector=detector,
                raise_on_budget=False,
            )
            rounds += count_run.rounds
            steps += 1
            survivors = np.array(
                [v for v in live if not live_transport.is_down(int(v))],
                dtype=np.int64,
            )
            if survivors.size < 2:
                break
            estimates = count_run.outputs_array[survivors]
            count = float(np.median(estimates)) * n_live
            if count >= target:
                hi_v, hi_rank, answer = mid, count, mid
            else:
                lo_v, lo_rank = mid, count
            live = survivors

        crashed = tuple(sorted(live_transport.down))
        degraded = bool(crashed)
        accuracy = eps + (len(crashed) / float(n))
        return NetQuantileAnswer(
            phi=phi,
            eps=eps,
            n=n,
            n_live=int(live.size),
            value=float(answer),
            accuracy=float(accuracy),
            degraded=degraded,
            rounds=int(rounds),
            bisection_steps=steps,
            crashed=crashed,
            rank_bracket=(float(lo_rank), float(hi_rank)),
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
    max_bisection_steps: int = 40,
    count_rounds: Optional[int] = None,
    run_timeout_s: float = 120.0,
) -> NetQuantileAnswer:
    """ε-approximate φ-quantile over a live transport, degradation included.

    Pass a shared :class:`~repro.net.transport.Transport` instance to carry
    kill state into the query (peers already down answer nothing and the
    result is honestly widened), and/or an ``env`` whose ``faults`` injector
    kills peers *during* it.  Every gossip run of the query (the extrema
    bracket and each counting step) runs in ``env``.  ``run_timeout_s``
    bounds the whole query in wall time.
    """
    if run_timeout_s <= 0:
        raise ConfigurationError("run_timeout_s must be positive")
    return asyncio.run(
        asyncio.wait_for(
            anet_approximate_quantile(
                values,
                phi=phi,
                eps=eps,
                rng=rng,
                transport=transport,
                env=env,
                retry=retry,
                detector=detector,
                metrics=metrics,
                max_bisection_steps=max_bisection_steps,
                count_rounds=count_rounds,
            ),
            run_timeout_s,
        )
    )
