"""Algorithm 1 — 2-TOURNAMENT: shift the target quantile band to the median.

Every iteration each node pulls the values of two uniformly random nodes and
adopts the *minimum* of the two (when the heavy side lies above the band;
the symmetric case adopts the maximum).  This squares the fraction of nodes
holding above-band values each iteration.  In the final iteration the
tournament is only performed with probability ``delta`` so that the
above-band mass lands at ``T = 1/2 - eps`` instead of overshooting, which
places the entire band ``[phi - eps, phi + eps]`` onto the quantiles around
the median (Lemma 2.11).

The phase is *lane-wise*: on a multi-lane network (see
:class:`~repro.gossip.network.GossipNetwork`) each lane runs its own
``(phi, eps)`` schedule on the shared partner stream.  Lane schedules may
differ in length; a lane whose schedule is exhausted idles (keeps its
values) while the longer lanes finish, so the fused phase executes
``max``-of-lanes rounds — the paper's Step-3 accounting, by construction.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.core.results import PhaseIterationStats, TournamentPhaseResult
from repro.core.schedules import TwoTournamentSchedule, two_tournament_schedule
from repro.exceptions import ConfigurationError
from repro.gossip.network import GossipNetwork
from repro.obs.tracer import get_tracer
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


def lane_block(network: GossipNetwork, k: int, label: str) -> np.ndarray:
    """Pull ``k`` rounds and return the lanes-first ``(L, n, k)`` block.

    A failed pull (only possible when ``network.can_fail``) reads the
    puller's own pre-pull value, so a node that failed every round of an
    iteration keeps its value.  On the failure-free path the block is the
    gather itself: contiguous, and owned by the caller.
    """
    current = network.lane_rows.copy() if network.can_fail else None
    batch = network.pull(k, label=label)
    block = batch.by_lane
    if current is not None:
        block = np.where(batch.ok, block, current[:, :, None])
    return block


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


def run_two_tournament(
    network: GossipNetwork,
    phi: Union[float, Sequence[float]],
    eps: Union[float, Sequence[float]],
    schedule: Union[
        None, TwoTournamentSchedule, Sequence[TwoTournamentSchedule]
    ] = None,
    track_band: bool = True,
) -> TournamentPhaseResult:
    """Run Algorithm 1 on ``network`` (in place) and return phase statistics.

    The network's value array is overwritten with the post-phase values.
    Nodes whose pull failed in a round (only possible when the network has a
    failure model attached) keep their previous value for that iteration;
    the failure-aware variant with the Section-5 guarantees lives in
    :mod:`repro.core.robust`.

    On a multi-lane network ``phi`` / ``eps`` (or ``schedule``) may be
    per-lane sequences; band tracking is a single-lane instrument and must
    be disabled for fused runs.
    """
    lanes = network.lanes
    phis = per_lane(phi, lanes, "phi")
    epss = per_lane(eps, lanes, "eps")
    schedules = normalize_schedules(
        schedule,
        lanes,
        TwoTournamentSchedule,
        lambda lane: two_tournament_schedule(phis[lane], epss[lane]),
    )

    if track_band:
        if lanes != 1:
            raise ConfigurationError(
                "track_band is a single-lane instrument; run fused lanes "
                "with track_band=False"
            )
        initial = network.snapshot()
        lo_value, hi_value = band_thresholds(initial, phis[0], epss[0])

    stats: List[PhaseIterationStats] = []
    num_iterations = max((s.num_iterations for s in schedules), default=0)
    # The span reads wall time and metric counters only; the random stream
    # is identical with or without a tracer installed.
    with get_tracer().span("two_tournament", network.metrics) as phase_span:
        phase_span.annotate(lanes=lanes, iterations=num_iterations)
        for step in range(num_iterations):
            block = lane_block(network, 2, "2-tournament")  # (L, n, 2)
            live = network.lane_rows                        # (L, n)
            rows = np.empty(live.shape, dtype=live.dtype)
            for lane, lane_schedule in enumerate(schedules):
                row = rows[lane]
                if step >= lane_schedule.num_iterations:
                    row[:] = live[lane]                     # lane idles
                    continue
                iteration = lane_schedule.iterations[step]
                first = block[lane, :, 0]
                winner = (
                    np.minimum if lane_schedule.direction == "min"
                    else np.maximum
                )
                winner(first, block[lane, :, 1], out=row)
                if iteration.delta < 1.0:
                    # With probability 1 - delta the node copies a single
                    # random value instead (Algorithm 1, lines 9-11); we
                    # reuse the first pull for that copy, exactly one
                    # sampled value.
                    coin = network.rng.random(network.n)
                    np.copyto(row, first, where=coin >= iteration.delta)

            network.set_lane_rows(rows)
            if track_band:
                low, band, high = measure_band(rows[0], lo_value, hi_value)
                iteration = schedules[0].iterations[step]
                stats.append(
                    PhaseIterationStats(
                        iteration=iteration.index,
                        predicted=iteration.h_after
                        if iteration.delta >= 1.0
                        else schedules[0].threshold,
                        high_fraction=high,
                        low_fraction=low,
                        band_fraction=band,
                    )
                )

    return TournamentPhaseResult(
        final_values=network.snapshot(),
        iterations=num_iterations,
        rounds=2 * num_iterations,
        stats=stats,
    )
