"""Theorem 1.2 / 2.1 — the ε-approximate φ-quantile algorithm.

The algorithm composes the two tournament phases:

* Phase I (Algorithm 1, :mod:`repro.core.two_tournament`) rewrites the value
  of every node so that the quantiles around ``phi`` in the original data
  become the quantiles around the median of the new data.
* Phase II (Algorithm 2, :mod:`repro.core.three_tournament`) approximates
  the median of the new data to within ``eps / 4``, which by Lemma 2.11 is a
  value whose original rank lies in ``[(phi - eps) n, (phi + eps) n]``.

Total round complexity: ``O(log log n + log 1/eps)``, with every message a
single value (O(log n) bits).

Multi-lane runs: ``phi`` (and ``eps``) may be per-lane sequences on an
``(n, L)`` value matrix — every lane computes its own quantile on one
shared partner stream, each message carrying the ``L`` working values.
This is how the exact-quantile driver executes the paper's Step-3 sandwich:
both ε/2 approximations fused into a single two-lane run whose round count
is max-of-lanes by construction.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.core.results import ApproxQuantileResult
from repro.core.three_tournament import DEFAULT_FINAL_SAMPLES, run_three_tournament
from repro.core.two_tournament import per_lane, run_two_tournament
from repro.exceptions import ConfigurationError
from repro.gossip.env import GossipEnv
from repro.gossip.metrics import NetworkMetrics
from repro.gossip.network import GossipNetwork
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
    values: Union[np.ndarray, list, tuple, None] = None,
    phi: Union[float, Sequence[float]] = 0.5,
    eps: Union[float, Sequence[float]] = 0.1,
    rng: Union[None, int, RandomSource] = None,
    final_samples: int = DEFAULT_FINAL_SAMPLES,
    track_bands: bool = False,
    network: Optional[GossipNetwork] = None,
    metrics: Optional[NetworkMetrics] = None,
    keep_history: bool = False,
    env: Optional[GossipEnv] = None,
) -> ApproxQuantileResult:
    """Compute an ε-approximate φ-quantile with uniform gossip.

    Parameters
    ----------
    values:
        One value per node, or an ``(n, L)`` matrix for a fused multi-lane
        run.  Alternatively pass an existing ``network``.
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
    network / metrics:
        Advanced: run on an existing network (its value array is consumed)
        and/or accumulate rounds into an existing metrics object.
    keep_history:
        Keep per-round records on the constructed network's metrics object
        (previously hardcoded off, which silently discarded round
        attribution whenever no explicit ``metrics`` was supplied).  Only
        valid when the network is constructed here.
    env:
        The :class:`~repro.gossip.env.GossipEnv` of the constructed network
        (only valid when the network is constructed here; a supplied
        ``network`` already carries its own).  Under its failure model the
        plain algorithm degrades gracefully (failed pulls keep the previous
        value); the variant with the Section-5 guarantees is
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
    if network is None:
        if values is None:
            raise ConfigurationError("either values or network must be given")
        network = GossipNetwork(
            node_values(values, lanes=True),
            rng=rng,
            metrics=metrics,
            keep_history=keep_history,
            env=env,
        )
    elif values is not None:
        raise ConfigurationError("pass either values or network, not both")
    elif keep_history:
        raise ConfigurationError(
            "keep_history applies to the constructed network; configure the "
            "supplied network (or its metrics object) instead"
        )
    elif env is not None:
        raise ConfigurationError(
            "env applies to the constructed network; pass it to the "
            "GossipNetwork constructor when supplying an existing network"
        )

    lanes = network.lanes
    phis = per_lane(phi, lanes, "phi")
    epss = per_lane(eps, lanes, "eps")
    for lane_phi in phis:
        if not 0.0 <= lane_phi <= 1.0:
            raise ConfigurationError(f"phi must be in [0, 1], got {lane_phi}")
    for lane_eps in epss:
        if not 0.0 < lane_eps < 0.5:
            raise ConfigurationError(f"eps must be in (0, 0.5), got {lane_eps}")

    rounds_before = network.metrics.rounds

    with get_tracer().span("approx_quantile", network.metrics) as span:
        span.annotate(n=network.n, lanes=lanes)
        phase1 = run_two_tournament(
            network, phi=phis, eps=epss, track_band=track_bands
        )
        phase2 = run_three_tournament(
            network,
            eps=[lane_eps / 4.0 for lane_eps in epss],
            final_samples=final_samples,
            track_band=track_bands,
        )

    estimates = phase2.final_values
    rounds = network.metrics.rounds - rounds_before

    return ApproxQuantileResult(
        phi=phi if np.isscalar(phi) else tuple(phis),
        eps=eps if np.isscalar(eps) else tuple(epss),
        n=network.n,
        estimates=estimates,
        rounds=rounds,
        metrics=network.metrics,
        phase1=phase1,
        phase2=phase2,
    )
