"""Algorithm 2 — 3-TOURNAMENT: approximate the median.

Every iteration each node pulls the values of three uniformly random nodes
and adopts the *median* of the three.  The fraction of nodes holding values
outside the band ``[1/2 - eps, 1/2 + eps]`` follows ``l_{i+1} = 3 l_i^2 -
2 l_i^3``: it shrinks geometrically for the first O(log 1/eps) iterations
and doubly exponentially afterwards, reaching ``O(n^{-1/3})`` after
``O(log 1/eps + log log n)`` iterations.  A final vote — sample ``K = O(1)``
nodes and output the median of the sample — then lands inside the band with
high probability (Lemma 2.17).

Like Algorithm 1 the phase is lane-wise: on a multi-lane network each lane
runs its own ``eps`` schedule on the shared partner stream (short lanes
idle, rounds = max over lanes) and the final vote is one shared
``K``-round pull whose per-lane sample medians become the per-lane outputs.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.core.results import PhaseIterationStats, TournamentPhaseResult
from repro.core.schedules import ThreeTournamentSchedule, three_tournament_schedule
from repro.core.two_tournament import lane_block, normalize_schedules, per_lane
from repro.exceptions import ConfigurationError
from repro.gossip.network import GossipNetwork
from repro.obs.tracer import get_tracer
from repro.utils.stats import empirical_quantile

#: Default size of the final vote.  The paper only requires K = O(1); an odd
#: constant around 15 makes the failure probability (4e / n^{2/3})^{K/2}
#: negligible for every network size the library simulates.
DEFAULT_FINAL_SAMPLES = 15


def median_band_thresholds(values: np.ndarray, eps: float) -> Tuple[float, float]:
    """Values bounding the band ``[1/2 - eps, 1/2 + eps]`` of ``values``."""
    lo_value = empirical_quantile(values, max(0.0, 0.5 - eps))
    hi_value = empirical_quantile(values, min(1.0, 0.5 + eps))
    return lo_value, hi_value


#: Triples per pass of :func:`_median_of_three`: 32768 pulled triples of
#: float64 (768 KiB) stay cache-resident across the kernel's four passes.
_MEDIAN_CHUNK = 32768


def _median_of_three(block: np.ndarray) -> np.ndarray:
    """Element-wise median of the trailing triples of ``block``, without sorting.

    ``max(min(a, b), min(max(a, b), c))`` selects exactly the element a
    3-sort would put in the middle — four element-wise passes instead of a
    per-row sort, and bit-identical output values.  The passes run chunk
    by chunk over the contiguous triples, so each chunk is read from
    memory once for all four instead of once per pass.  Returns
    ``block.shape[:-1]``.
    """
    triples = block.reshape(-1, 3)
    medians = np.empty(triples.shape[0], dtype=block.dtype)
    scratch = np.empty(min(_MEDIAN_CHUNK, medians.size), dtype=block.dtype)
    for start in range(0, medians.size, _MEDIAN_CHUNK):
        first, second, third = triples[start:start + _MEDIAN_CHUNK].T
        lo = medians[start:start + _MEDIAN_CHUNK]
        hi = scratch[:lo.size]
        np.minimum(first, second, out=lo)
        np.maximum(first, second, out=hi)
        np.minimum(hi, third, out=hi)
        np.maximum(lo, hi, out=lo)
    return medians.reshape(block.shape[:-1])


def run_three_tournament(
    network: GossipNetwork,
    eps: Union[float, Sequence[float]],
    schedule: Union[
        None, ThreeTournamentSchedule, Sequence[ThreeTournamentSchedule]
    ] = None,
    final_samples: int = DEFAULT_FINAL_SAMPLES,
    track_band: bool = True,
) -> TournamentPhaseResult:
    """Run Algorithm 2 on ``network`` (in place).

    Returns a :class:`TournamentPhaseResult` whose ``final_values`` are the
    per-node *outputs* of the algorithm: the median of ``final_samples``
    uniformly sampled values after the tournament iterations (per lane on a
    multi-lane network).  The band statistics track the fraction of nodes
    outside the ``[1/2 - eps, 1/2 + eps]`` band of the phase's *input*
    values after every iteration (single-lane runs only).
    """
    if final_samples < 1 or final_samples % 2 == 0:
        raise ConfigurationError("final_samples must be a positive odd integer")
    lanes = network.lanes
    epss = per_lane(eps, lanes, "eps")
    schedules = normalize_schedules(
        schedule,
        lanes,
        ThreeTournamentSchedule,
        lambda lane: three_tournament_schedule(epss[lane], network.n),
    )

    if track_band:
        if lanes != 1:
            raise ConfigurationError(
                "track_band is a single-lane instrument; run fused lanes "
                "with track_band=False"
            )
        initial = network.snapshot()
        lo_value, hi_value = median_band_thresholds(initial, epss[0])

    stats: List[PhaseIterationStats] = []
    num_iterations = max((s.num_iterations for s in schedules), default=0)
    # The span covers the tournament iterations *and* the final vote — the
    # algorithm's whole round budget.  Observation only: wall time and
    # counter snapshots, never the RNG.
    with get_tracer().span("three_tournament", network.metrics) as phase_span:
        phase_span.annotate(
            lanes=lanes,
            iterations=num_iterations,
            final_samples=final_samples,
        )
        for step in range(num_iterations):
            block = lane_block(network, 3, "3-tournament")  # (L, n, 3)
            live = network.lane_rows                        # (L, n)
            rows = _median_of_three(block)                  # (L, n)
            for lane, lane_schedule in enumerate(schedules):
                if step >= lane_schedule.num_iterations:
                    rows[lane] = live[lane]                 # lane idles
            network.set_lane_rows(rows)
            if track_band:
                n = network.n
                iteration = schedules[0].iterations[step]
                low = float(np.count_nonzero(rows[0] < lo_value)) / n
                high = float(np.count_nonzero(rows[0] > hi_value)) / n
                stats.append(
                    PhaseIterationStats(
                        iteration=iteration.index,
                        predicted=iteration.l_after,
                        high_fraction=high,
                        low_fraction=low,
                        band_fraction=1.0 - low - high,
                    )
                )

        # Final vote: every node samples `final_samples` values and outputs
        # the median of its sample (Algorithm 2, line 8) — one shared pull
        # batch, per-lane medians.
        block = lane_block(network, final_samples, "3-tournament-vote")
        # The block is this phase's own, so it is sorted in place along its
        # contiguous K axis.  A full sort of these short rows runs faster
        # than partition(mid) and puts the same element at ``mid``.
        mid = final_samples // 2
        block.sort(axis=2)
        rows = block[:, :, mid].copy()
        outputs = rows[0] if network.values.ndim == 1 else rows.T

    return TournamentPhaseResult(
        final_values=outputs,
        iterations=num_iterations,
        rounds=3 * num_iterations + final_samples,
        stats=stats,
    )
