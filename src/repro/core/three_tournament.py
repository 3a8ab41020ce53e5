"""Algorithm 2 — 3-TOURNAMENT: approximate the median.

Every iteration each node pulls the values of three uniformly random nodes
and adopts the *median* of the three.  The fraction of nodes holding values
outside the band ``[1/2 - eps, 1/2 + eps]`` follows ``l_{i+1} = 3 l_i^2 -
2 l_i^3``: it shrinks geometrically for the first O(log 1/eps) iterations
and doubly exponentially afterwards, reaching ``O(n^{-1/3})`` after
``O(log 1/eps + log log n)`` iterations.  A final vote — sample ``K = O(1)``
nodes and output the median of the sample — then lands inside the band with
high probability (Lemma 2.17).

Like Algorithm 1 the phase runs as pull windows of
:class:`~repro.core.tournament.TournamentProtocol` and is lane-wise: on an
``(n, L)`` input each lane runs its own ``eps`` schedule on the shared
partner stream (short lanes idle, rounds = max over lanes) and the final
vote is one shared ``K``-round window whose per-lane sample medians
become the per-lane outputs.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.results import PhaseIterationStats, TournamentPhaseResult
from repro.core.schedules import ThreeTournamentSchedule, three_tournament_schedule
from repro.core.tournament import Phase, PullWindow, WindowPulls, lane_rows
from repro.core.two_tournament import (
    PhasePlan,
    check_track_band,
    measure_band,
    normalize_schedules,
    per_lane,
    run_plans,
)
from repro.exceptions import ConfigurationError
from repro.gossip.env import GossipEnv, resolve_env
from repro.gossip.metrics import NetworkMetrics
from repro.utils.inputs import integral
from repro.utils.rand import RandomSource
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


def vote_size(final_samples: object) -> int:
    """``final_samples`` checked: a positive odd integer."""
    samples = integral(final_samples, "final_samples", "a positive odd integer")
    if samples < 1 or samples % 2 == 0:
        raise ConfigurationError("final_samples must be a positive odd integer")
    return samples


def median_of_three(pulls: WindowPulls, active: Sequence[bool] = ()) -> np.ndarray:
    """Each node's median of its three pulls, per lane (a window kernel).

    ``max(min(a, b), min(max(a, b), c))`` selects exactly the element a
    3-sort would put in the middle: four element-wise passes over
    contiguous ``(L, n)`` rows.  Lanes flagged False in ``active`` idle
    (keep their values).
    """
    first, second, third = pulls.rows()
    rows = np.minimum(first, second)
    np.maximum(first, second, out=second)
    np.minimum(second, third, out=second)
    np.maximum(rows, second, out=rows)
    for lane, running in enumerate(active):
        if not running:
            rows[lane] = pulls.snapshot[lane]
    return rows


def final_vote(pulls: WindowPulls) -> np.ndarray:
    """Each node's middle sample of its ``K`` pulls, per lane (a window kernel).

    A full sort of these short rows runs faster than ``partition(mid)``
    and puts the same element at ``mid``.  On a streamed window the sort
    runs in place in the window's ``(K, L, n)`` buffer, along its strided
    first axis: at n = 10⁶ and 2 lanes, 427–484 ms and 446 MB peak per
    window, against 518–691 ms and 674 MB for a sort of a transposed copy.
    """
    block = pulls.block()                                   # (L, n, K)
    block.sort(axis=2)
    return block[:, :, block.shape[2] // 2].copy()


def three_tournament_plan(
    lanes: int,
    n: int,
    eps: Union[float, Sequence[float]],
    schedule: Union[
        None, ThreeTournamentSchedule, Sequence[ThreeTournamentSchedule]
    ],
    final_samples: int,
    track_band: bool,
) -> PhasePlan:
    """Algorithm 2 over ``(lanes, n)`` rows as pull windows, vote included;
    band statistics are measured against the rows the phase starts from."""
    final_samples = vote_size(final_samples)
    epss = per_lane(eps, lanes, "eps")
    schedules = normalize_schedules(
        schedule,
        lanes,
        ThreeTournamentSchedule,
        lambda lane: three_tournament_schedule(epss[lane], n),
    )
    check_track_band(track_band, lanes)
    bands: List[Tuple[float, float]] = []
    stats: List[PhaseIterationStats] = []

    def step(index: int, pulls: WindowPulls) -> np.ndarray:
        rows = median_of_three(
            pulls, [index < s.num_iterations for s in schedules]
        )
        if track_band:
            if not bands:
                assert phase.input is not None          # set when the phase began
                bands.append(median_band_thresholds(phase.input[0], epss[0]))
            low, inside, high = measure_band(rows[0], *bands[0])
            stats.append(
                PhaseIterationStats(
                    iteration=schedules[0].iterations[index].index,
                    predicted=schedules[0].iterations[index].l_after,
                    high_fraction=high,
                    low_fraction=low,
                    band_fraction=inside,
                )
            )
        return rows

    iterations = max((s.num_iterations for s in schedules), default=0)
    # The span covers the iterations *and* the vote, the algorithm's whole
    # round budget.
    phase = Phase("three_tournament", {
        "lanes": lanes, "iterations": iterations, "final_samples": final_samples,
    })
    windows = [
        PullWindow(3, partial(step, index), label="3-tournament", phase=phase)
        for index in range(iterations)
    ]
    # Final vote: every node samples `final_samples` values and outputs the
    # median of its sample (Algorithm 2, line 8) — one shared window,
    # per-lane medians.
    windows.append(PullWindow(final_samples, final_vote, label="3-tournament-vote",
                              phase=phase))
    return PhasePlan(phase, windows, iterations, stats)


def run_three_tournament(
    values: Union[Sequence[float], np.ndarray],
    eps: Union[float, Sequence[float]],
    schedule: Union[
        None, ThreeTournamentSchedule, Sequence[ThreeTournamentSchedule]
    ] = None,
    final_samples: int = DEFAULT_FINAL_SAMPLES,
    track_band: bool = True,
    rng: Union[None, int, RandomSource] = None,
    metrics: Optional[NetworkMetrics] = None,
    env: Optional[GossipEnv] = None,
) -> TournamentPhaseResult:
    """Run Algorithm 2 over ``values``.

    Returns a :class:`TournamentPhaseResult` whose ``final_values`` are the
    per-node *outputs* of the algorithm: the median of ``final_samples``
    uniformly sampled values after the tournament iterations (per lane on
    an ``(n, L)`` input).  The band statistics track the fraction of nodes
    outside the ``[1/2 - eps, 1/2 + eps]`` band of the phase's *input*
    values after every iteration (single-lane runs only).  ``rng``,
    ``metrics`` and ``env`` are as for
    :func:`~repro.core.two_tournament.run_two_tournament`.
    """
    env = resolve_env(env)
    rows = lane_rows(values, env.dtype)
    plan = three_tournament_plan(*rows.shape, eps, schedule, final_samples, track_band)
    return plan.result(values, run_plans(rows, [plan], rng, metrics, env))
