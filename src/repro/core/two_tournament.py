"""Algorithm 1 — 2-TOURNAMENT: shift the target quantile band to the median.

Every iteration each node pulls the values of two uniformly random nodes and
adopts the *minimum* of the two (when the heavy side lies above the band;
the symmetric case adopts the maximum).  This squares the fraction of nodes
holding above-band values each iteration.  In the final iteration the
tournament is only performed with probability ``delta`` so that the
above-band mass lands at ``T = 1/2 - eps`` instead of overshooting, which
places the entire band ``[phi - eps, phi + eps]`` onto the quantiles around
the median (Lemma 2.11).

Each iteration is one two-round pull window of
:class:`~repro.core.tournament.TournamentProtocol`, so the phase runs on
either gossip engine, alone or ahead of Algorithm 2 in one plan.  The
phase is *lane-wise*: on an ``(n, L)`` input
each lane runs its own ``(phi, eps)`` schedule on the shared partner
stream.  Lane schedules may differ in length; a lane whose schedule is
exhausted idles (keeps its values) while the longer lanes finish, so the
fused phase executes ``max``-of-lanes rounds — the paper's Step-3
accounting, by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.results import PhaseIterationStats, TournamentPhaseResult
from repro.core.schedules import TwoTournamentSchedule, two_tournament_schedule
from repro.core.tournament import Phase, PullWindow, WindowPulls, lane_rows, run_windows
from repro.exceptions import ConfigurationError
from repro.gossip.env import GossipEnv, resolve_env
from repro.gossip.metrics import NetworkMetrics
from repro.obs.tracer import get_tracer
from repro.utils.rand import RandomSource
from repro.utils.stats import empirical_quantile


def band_thresholds(
    initial_values: np.ndarray, phi: float, eps: float
) -> Tuple[float, float]:
    """Values bounding the target band ``[phi - eps, phi + eps]`` of the inputs."""
    lo_q = max(0.0, phi - eps)
    hi_q = min(1.0, phi + eps)
    lo_value = empirical_quantile(initial_values, lo_q)
    hi_value = empirical_quantile(initial_values, hi_q)
    return lo_value, hi_value


def measure_band(
    values: np.ndarray, lo_value: float, hi_value: float
) -> Tuple[float, float, float]:
    """Fractions of ``values`` below, inside, and above ``[lo_value, hi_value]``."""
    n = values.size
    low = float(np.count_nonzero(values < lo_value)) / n
    high = float(np.count_nonzero(values > hi_value)) / n
    return low, 1.0 - low - high, high


def per_lane(value, lanes: int, what: str) -> List:
    """Normalize a scalar-or-sequence phase parameter to one entry per lane."""
    if np.isscalar(value):
        return [value] * lanes
    values = list(value)
    if len(values) != lanes:
        raise ConfigurationError(
            f"need one {what} per lane ({lanes}), got {len(values)}"
        )
    return values


def normalize_schedules(schedule, lanes: int, schedule_class, build) -> List:
    """One schedule per lane from a None / single / sequence argument.

    Shared by both tournament phases: ``None`` builds per-lane schedules
    via ``build(lane)``, a bare ``schedule_class`` instance is accepted for
    single-lane networks only, and a sequence must provide exactly one
    schedule per lane.
    """
    if schedule is None:
        return [build(lane) for lane in range(lanes)]
    if isinstance(schedule, schedule_class):
        if lanes != 1:
            raise ConfigurationError(
                "a multi-lane phase needs one schedule per lane"
            )
        return [schedule]
    schedules = list(schedule)
    if len(schedules) != lanes:
        raise ConfigurationError(
            f"need one schedule per lane ({lanes}), got {len(schedules)}"
        )
    return schedules


def check_track_band(track_band: bool, lanes: int) -> None:
    """Band tracking is a single-lane instrument."""
    if track_band and lanes != 1:
        raise ConfigurationError(
            "track_band is a single-lane instrument; run fused lanes "
            "with track_band=False"
        )


@dataclass
class PhasePlan:
    """One tournament phase as pull windows, and what it reports."""

    phase: Phase
    windows: List[PullWindow]
    iterations: int
    stats: List[PhaseIterationStats]

    def result(self, values: Union[Sequence[float], np.ndarray],
               rows: np.ndarray) -> TournamentPhaseResult:
        """The phase's result, given the ``(L, n)`` rows it ended with."""
        return TournamentPhaseResult(
            final_values=rows[0] if np.ndim(values) == 1 else rows.T,
            iterations=self.iterations,
            rounds=sum(window.rounds for window in self.windows),
            stats=self.stats,
        )


def plan_windows(
    plans: Sequence[PhasePlan], metrics: Optional[NetworkMetrics]
) -> List[PullWindow]:
    """The phases' windows as one plan to run.  A phase without windows
    leaves its (empty) tracer span here, as the run will not open it."""
    for plan in plans:
        if not plan.windows:
            with get_tracer().span(plan.phase.name, metrics) as span:
                span.annotate(**plan.phase.meta)
    return [window for plan in plans for window in plan.windows]


def two_tournament_plan(
    rows: np.ndarray,
    phi: Union[float, Sequence[float]],
    eps: Union[float, Sequence[float]],
    schedule: Union[
        None, TwoTournamentSchedule, Sequence[TwoTournamentSchedule]
    ],
    track_band: bool,
    source: RandomSource,
) -> PhasePlan:
    """Algorithm 1 over the ``(L, n)`` ``rows`` as pull windows.  The δ
    coin is a child of ``source``, drawn in the same order on both engines."""
    lanes = rows.shape[0]
    phis = per_lane(phi, lanes, "phi")
    epss = per_lane(eps, lanes, "eps")
    schedules = normalize_schedules(
        schedule,
        lanes,
        TwoTournamentSchedule,
        lambda lane: two_tournament_schedule(phis[lane], epss[lane]),
    )
    check_track_band(track_band, lanes)
    band = band_thresholds(rows[0], phis[0], epss[0]) if track_band else None
    coins = source.child()
    stats: List[PhaseIterationStats] = []

    def step(index: int, pulls: WindowPulls) -> np.ndarray:
        pulled = pulls.rows()                               # (2, L, n)
        # in the pulls' layout, so a streamed next window gathers from
        # node-major rows without a copy
        rows = np.empty_like(pulled[0])
        for lane, lane_schedule in enumerate(schedules):
            row = rows[lane]
            if index >= lane_schedule.num_iterations:
                row[:] = pulls.snapshot[lane]               # lane idles
                continue
            delta = lane_schedule.iterations[index].delta
            first = pulled[0, lane]
            winner = np.minimum if lane_schedule.direction == "min" else np.maximum
            winner(first, pulled[1, lane], out=row)
            if delta < 1.0:
                # With probability 1 - delta the node copies a single random
                # value instead (Algorithm 1, lines 9-11): its first pull.
                np.copyto(row, first, where=coins.random(pulls.n) >= delta)
        if track_band:
            low, inside, high = measure_band(rows[0], *band)
            iteration = schedules[0].iterations[index]
            stats.append(
                PhaseIterationStats(
                    iteration=iteration.index,
                    predicted=iteration.h_after
                    if iteration.delta >= 1.0
                    else schedules[0].threshold,
                    high_fraction=high,
                    low_fraction=low,
                    band_fraction=inside,
                )
            )
        return rows

    iterations = max((s.num_iterations for s in schedules), default=0)
    phase = Phase("two_tournament", {"lanes": lanes, "iterations": iterations})
    windows = [
        PullWindow(2, partial(step, index), label="2-tournament", phase=phase)
        for index in range(iterations)
    ]
    return PhasePlan(phase, windows, iterations, stats)


def run_two_tournament(
    values: Union[Sequence[float], np.ndarray],
    phi: Union[float, Sequence[float]],
    eps: Union[float, Sequence[float]],
    schedule: Union[
        None, TwoTournamentSchedule, Sequence[TwoTournamentSchedule]
    ] = None,
    track_band: bool = True,
    rng: Union[None, int, RandomSource] = None,
    metrics: Optional[NetworkMetrics] = None,
    env: Optional[GossipEnv] = None,
) -> TournamentPhaseResult:
    """Run Algorithm 1 over ``values`` and return the phase statistics.

    ``values`` is one value per node or an ``(n, L)`` matrix of lanes;
    ``final_values`` has the same shape, in ``env.dtype``.  Rounds run on
    the env's engine and accumulate into ``metrics`` when given.  A node
    whose pull failed (failure model, churn, faults) reads its own value
    for that pull; the failure-aware variant with the Section-5 guarantees
    lives in :mod:`repro.core.robust`.

    On a multi-lane input ``phi`` / ``eps`` (or ``schedule``) may be
    per-lane sequences; band tracking is a single-lane instrument and must
    be disabled for fused runs.
    """
    env = resolve_env(env)
    rows = lane_rows(values, env.dtype)
    source = rng if isinstance(rng, RandomSource) else RandomSource(rng)
    plan = two_tournament_plan(rows, phi, eps, schedule, track_band, source)
    windows = plan_windows([plan], metrics)
    return plan.result(values, run_windows(rows, windows, source, metrics, env))
