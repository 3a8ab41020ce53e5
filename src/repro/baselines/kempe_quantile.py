"""Kempe-Dobra-Gehrke exact quantile computation — the Θ(log² n) baseline.

[KDG03] implements the classic randomized selection algorithm
[Hoa61, FR75] over gossip: repeatedly pick a uniformly random *pivot* among
the candidate values, count its rank with gossip aggregation (O(log n)
rounds), and discard the half of the candidates on the wrong side of the
target rank.  The number of candidate values halves in expectation per
phase, so O(log n) phases — and therefore Θ(log² n) rounds — suffice with
high probability.  This is the algorithm Theorem 1.1 improves on
quadratically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from repro.aggregates.counting import count_leq
from repro.aggregates.push_sum import default_push_sum_rounds
from repro.exceptions import ConfigurationError, ConvergenceError
from repro.gossip.env import GossipEnv
from repro.gossip.failures import FailureModel
from repro.gossip.metrics import NetworkMetrics
from repro.utils.rand import RandomSource
from repro.utils.stats import target_rank


@dataclass
class KempePhase:
    """Bookkeeping for one selection phase."""

    phase: int
    pivot: float
    pivot_rank: int
    candidates_before: int
    candidates_after: int
    rounds_so_far: int


@dataclass
class KempeQuantileResult:
    """Outcome of the gossip randomized-selection baseline."""

    phi: float
    n: int
    target_rank: int
    value: float
    rounds: int
    phases: int
    metrics: NetworkMetrics
    fidelity: str
    history: List[KempePhase] = field(default_factory=list)


def _pivot_selection_rounds(n: int) -> int:
    """Rounds charged for selecting a uniformly random candidate value.

    [KDG03] piggybacks pivot selection on the counting gossip (each node
    tags its contribution with a random key and the maximum key wins), which
    spreads in O(log n) rounds like any extremum.
    """
    return int(math.ceil(2 * math.log2(n))) + 8


def kempe_exact_quantile(
    values: Union[np.ndarray, list, tuple],
    phi: float,
    rng: Union[None, int, RandomSource] = None,
    fidelity: str = "idealized",
    failure_model: Union[None, float, FailureModel] = None,
    max_phases: Optional[int] = None,
) -> KempeQuantileResult:
    """Compute the exact φ-quantile with the [KDG03] selection baseline.

    ``fidelity="simulated"`` runs the per-phase rank counting through the
    push-sum substrate; ``fidelity="idealized"`` (default) computes counts
    exactly and charges the proven O(log n) round cost per phase, so the
    Θ(log² n) total is still reflected in the returned ``rounds``.
    """
    if fidelity not in ("idealized", "simulated"):
        raise ConfigurationError("fidelity must be 'idealized' or 'simulated'")
    if not 0.0 <= phi <= 1.0:
        raise ConfigurationError("phi must be in [0, 1]")
    array = np.asarray(values, dtype=float)
    if array.ndim != 1 or array.size < 2:
        raise ConfigurationError("values must be a 1-d array of length >= 2")

    n = array.size
    simulate = fidelity == "simulated"
    source = rng if isinstance(rng, RandomSource) else RandomSource(rng)
    env = GossipEnv(failure_model=failure_model)
    metrics = NetworkMetrics(keep_history=False)
    if max_phases is None:
        max_phases = int(10 * math.log2(n)) + 20

    k = target_rank(n, phi)
    counting_rounds = default_push_sum_rounds(n, relative_error=1.0 / (8.0 * n))

    # Candidate interval, maintained as value bounds (inclusive).
    lo_value, hi_value = -math.inf, math.inf
    lo_rank = 0                      # number of values <= lo_value
    history: List[KempePhase] = []
    sorted_values = np.sort(array)

    phase = 0
    answer = None
    while phase < max_phases:
        candidates_mask = (array > lo_value) & (array <= hi_value) if math.isfinite(
            lo_value
        ) else (array <= hi_value)
        candidates = array[candidates_mask]
        if candidates.size == 0:
            raise ConvergenceError("Kempe selection lost all candidates")
        if candidates.size == 1:
            answer = float(candidates[0])
            break
        phase += 1

        # Pivot: a uniformly random candidate value.
        pivot = float(source.choice(candidates))
        metrics.charge_rounds(_pivot_selection_rounds(n), label="pivot-selection")

        # Rank of the pivot via gossip counting.
        if simulate:
            count = count_leq(
                array, threshold=pivot, rng=source.child(),
                rounds=counting_rounds, metrics=metrics, env=env,
            )
            pivot_rank = count.count
            true_rank = int(np.searchsorted(sorted_values, pivot, side="right"))
            if pivot_rank != true_rank:
                # The w.h.p. guarantee failed (possible at small n); fall back
                # to the true rank so the baseline terminates, as [KDG03]'s
                # analysis assumes exact counts.
                pivot_rank = true_rank
        else:
            pivot_rank = int(np.searchsorted(sorted_values, pivot, side="right"))
            metrics.charge_rounds(counting_rounds, label="counting")

        before = int(candidates.size)
        if pivot_rank >= k:
            hi_value = pivot
        if pivot_rank <= k:
            lo_value = pivot
            lo_rank = pivot_rank
        if pivot_rank == k:
            answer = pivot

        candidates_after = int(
            np.count_nonzero((array > lo_value) & (array <= hi_value))
        )
        history.append(
            KempePhase(
                phase=phase,
                pivot=pivot,
                pivot_rank=pivot_rank,
                candidates_before=before,
                candidates_after=candidates_after,
                rounds_so_far=metrics.rounds,
            )
        )
        if answer is not None:
            break

    if answer is None:
        candidates_mask = (array > lo_value) & (array <= hi_value)
        candidates = array[candidates_mask]
        if candidates.size == 1:
            answer = float(candidates[0])
        else:
            raise ConvergenceError(
                f"Kempe selection did not converge within {max_phases} phases"
            )

    # Spreading the answer to all nodes costs one more broadcast.
    metrics.charge_rounds(int(math.ceil(2 * math.log2(n))) + 8, label="broadcast")

    return KempeQuantileResult(
        phi=phi,
        n=n,
        target_rank=k,
        value=float(answer),
        rounds=metrics.rounds,
        phases=phase,
        metrics=metrics,
        fidelity=fidelity,
        history=history,
    )
