"""Theorem 1.2 / 2.1 — the ε-approximate φ-quantile algorithm.

The algorithm composes the two tournament phases:

* Phase I (Algorithm 1, :mod:`repro.core.two_tournament`) rewrites the value
  of every node so that the quantiles around ``phi`` in the original data
  become the quantiles around the median of the new data.
* Phase II (Algorithm 2, :mod:`repro.core.three_tournament`) approximates
  the median of the new data to within ``eps / 4``, which by Lemma 2.11 is a
  value whose original rank lies in ``[(phi - eps) n, (phi + eps) n]``.

Total round complexity: ``O(log log n + log 1/eps)``, with every message a
single value (O(log n) bits).  Both phases and the final vote run as one
plan of pull windows (:mod:`repro.core.tournament`), so one engine run —
one round clock, one delay ring, one set of initial values for state-loss
restarts — carries the whole approximation.

Multi-lane runs: ``phi`` (and ``eps``) may be per-lane sequences on an
``(n, L)`` value matrix — every lane computes its own quantile on one
shared partner stream, each message carrying the ``L`` working values.
This is how the exact-quantile driver executes the paper's Step-3 sandwich:
both ε/2 approximations fused into a single two-lane run whose round count
is max-of-lanes by construction.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.results import ApproxQuantileResult
from repro.core.three_tournament import (
    DEFAULT_FINAL_SAMPLES,
    three_tournament_plan,
    vote_size,
)
from repro.core.tournament import lane_rows, run_windows
from repro.core.two_tournament import PhasePlan, per_lane, plan_windows, two_tournament_plan
from repro.exceptions import ConfigurationError
from repro.gossip.env import GossipEnv, resolve_env
from repro.gossip.metrics import NetworkMetrics
from repro.obs.tracer import get_tracer
from repro.utils.inputs import node_values
from repro.utils.rand import RandomSource


def min_supported_eps(n: int) -> float:
    """Smallest ``eps`` for which Theorem 2.1's analysis applies, ~ n^{-0.096}.

    The theorem requires ``eps = Omega(1 / n^{0.096})`` (Lemma 2.16 carries
    an additional poly-log factor).  This helper returns the plain power-law
    term as *guidance*; the implementation does not enforce it because the
    exact-quantile driver deliberately calls the approximate algorithm in
    the regime where it composes with value duplication (Section 3).
    """
    if n < 2:
        raise ConfigurationError("n must be at least 2")
    return float(n) ** (-0.096)


def approximate_quantile(
    values: Union[np.ndarray, list, tuple],
    phi: Union[float, Sequence[float]] = 0.5,
    eps: Union[float, Sequence[float]] = 0.1,
    rng: Union[None, int, RandomSource] = None,
    final_samples: int = DEFAULT_FINAL_SAMPLES,
    track_bands: bool = False,
    metrics: Optional[NetworkMetrics] = None,
    keep_history: bool = False,
    env: Optional[GossipEnv] = None,
) -> ApproxQuantileResult:
    """Compute an ε-approximate φ-quantile with uniform gossip.

    Parameters
    ----------
    values:
        One finite value per node, or an ``(n, L)`` matrix for a fused
        multi-lane run.
    phi:
        Target quantile in ``[0, 1]`` — one per lane for multi-lane runs.
    eps:
        Approximation parameter in ``(0, 1/2)`` (scalar or per lane): the
        output's rank is within ``[(phi - eps) n, (phi + eps) n]`` w.h.p.
        (for ``eps`` above roughly ``n^{-0.096}``; see
        :func:`min_supported_eps`).
    rng:
        Seed or :class:`RandomSource`.
    final_samples:
        Size ``K`` of the final vote of Algorithm 2 (odd, O(1)).
    track_bands:
        Record per-iteration band occupancies (slower; single-lane runs
        only, used by experiments).
    metrics / keep_history:
        Accumulate rounds into an existing metrics object, or keep
        per-round records on a fresh one (``keep_history`` applies only
        when ``metrics`` is not given).
    env:
        The :class:`~repro.gossip.env.GossipEnv`.  Both phases run on its
        engine.  Under its failure model the plain algorithm degrades
        gracefully (a failed pull reads the puller's own value); the
        variant with the Section-5 guarantees is
        :func:`repro.core.robust.robust_approximate_quantile`.  On a sparse
        ``topology`` pulls are drawn from graph neighbors instead of
        uniformly: the paper's guarantees assume the complete graph, and
        the achieved rank error degrades with the spectral gap, which is
        exactly what ``experiments/topology_sweep.py`` measures.

    Returns
    -------
    ApproxQuantileResult
        Per-node outputs, the representative estimate, and round
        accounting.  Multi-lane runs return ``(n, L)`` estimates and one
        representative estimate per lane.
    """
    if metrics is None:
        metrics = NetworkMetrics(keep_history=keep_history)
    return run_approximation(
        node_values(values, lanes=True), phi, eps, final_samples, rng,
        metrics, env, track_bands,
    )


def run_approximation(
    values: np.ndarray,
    phi: Union[float, Sequence[float]],
    eps: Union[float, Sequence[float]],
    final_samples: int,
    rng: Union[None, int, RandomSource],
    metrics: NetworkMetrics,
    env: Optional[GossipEnv] = None,
    track_bands: bool = False,
) -> ApproxQuantileResult:
    """The body of :func:`approximate_quantile`, which also takes
    non-finite values: the exact driver's non-holders gossip +inf keys."""
    source = rng if isinstance(rng, RandomSource) else RandomSource(rng)
    env = resolve_env(env)
    rows = lane_rows(values, env.dtype)
    plan1, plan2 = approximation_plans(rows, phi, eps, final_samples, track_bands, source)
    rounds_before = metrics.rounds
    with get_tracer().span("approx_quantile", metrics) as span:
        span.annotate(n=values.shape[0], lanes=rows.shape[0])
        final = run_windows(rows, plan_windows([plan1, plan2], metrics), source, metrics, env)
    # Phase II began from Phase I's output.
    assert plan2.phase.input is not None
    phase1 = plan1.result(values, plan2.phase.input)
    phase2 = plan2.result(values, final)
    return ApproxQuantileResult(
        phi=phi if np.isscalar(phi) else tuple(phi),
        eps=eps if np.isscalar(eps) else tuple(eps),
        n=values.shape[0],
        estimates=phase2.final_values,
        rounds=metrics.rounds - rounds_before,
        metrics=metrics,
        phase1=phase1,
        phase2=phase2,
    )


def approximation_plans(
    rows: np.ndarray,
    phi: Union[float, Sequence[float]],
    eps: Union[float, Sequence[float]],
    final_samples: int,
    track_bands: bool,
    source: RandomSource,
) -> Tuple[PhasePlan, PhasePlan]:
    """Algorithm 1, then Algorithm 2 at ``eps / 4``, as pull-window plans
    over the ``(L, n)`` ``rows``: the one plan of every ε-approximation,
    simulated (:func:`run_approximation`) or live
    (:func:`repro.net.quantile.anet_approximate_quantile`).  Algorithm 1's
    schedules validate ``phi`` and ``eps``; its δ coin is a child of
    ``source``."""
    lanes, n = rows.shape
    epss = per_lane(eps, lanes, "eps")
    plan1 = two_tournament_plan(rows, phi, epss, None, track_bands, source)
    plan2 = three_tournament_plan(
        lanes, n, [lane_eps / 4.0 for lane_eps in epss], None,
        vote_size(final_samples), track_bands,
    )
    return plan1, plan2
