"""Result dataclasses returned by the core quantile algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from repro.gossip.metrics import NetworkMetrics


@dataclass
class PhaseIterationStats:
    """Measured band occupancies after one tournament iteration.

    ``predicted`` is the schedule's deterministic prediction (``h_i`` or
    ``l_i``); ``high_fraction`` / ``low_fraction`` / ``band_fraction`` are
    the empirically measured fractions of nodes whose current value lies
    above, below, or inside the target quantile band of the *initial*
    values.  The concentration lemmas (2.5, 2.10, 2.15) predict that the
    measured fractions track the schedule closely.
    """

    iteration: int
    predicted: float
    high_fraction: float
    low_fraction: float
    band_fraction: float


@dataclass
class TournamentPhaseResult:
    """Outcome of running one tournament phase on a network."""

    final_values: np.ndarray
    iterations: int
    rounds: int
    stats: List[PhaseIterationStats] = field(default_factory=list)


class ApproxQuantileResult:
    """Outcome of the ε-approximate φ-quantile computation (Theorem 1.2).

    Attributes
    ----------
    estimates:
        The value output by every node — ``(n,)``, or ``(n, L)`` for a
        fused multi-lane run.
    estimate:
        A representative output (the median of the per-node outputs; one
        per lane on multi-lane runs); all nodes agree up to the ε
        guarantee.  Computed lazily — the exact-quantile driver consumes
        only ``estimates`` and skips the O(n log n) medians.
    rounds:
        Total synchronous gossip rounds executed.
    phase1, phase2:
        Per-phase details (band trajectories), useful for the experiments.
    """

    def __init__(
        self,
        phi: float,
        eps: float,
        n: int,
        estimates: np.ndarray,
        rounds: int,
        metrics: NetworkMetrics,
        estimate: Union[None, float, np.ndarray] = None,
        phase1: Optional[TournamentPhaseResult] = None,
        phase2: Optional[TournamentPhaseResult] = None,
    ) -> None:
        self.phi = phi
        self.eps = eps
        self.n = n
        self.estimates = estimates
        self.rounds = rounds
        self.metrics = metrics
        self._estimate = estimate
        self.phase1 = phase1
        self.phase2 = phase2

    @property
    def estimate(self) -> Union[float, np.ndarray]:
        if self._estimate is None:
            self._estimate = self._median_of_lanes(self.estimates)
        return self._estimate

    @staticmethod
    def _median_of_lanes(estimates: np.ndarray) -> Union[float, np.ndarray]:
        if estimates.ndim == 1:
            finite = estimates[np.isfinite(estimates)]
            return float(np.median(finite)) if finite.size else float("nan")
        return np.array(
            [
                ApproxQuantileResult._median_of_lanes(lane)
                for lane in estimates.T
            ]
        )

    def summary(self) -> Dict[str, Union[float, np.ndarray]]:
        return {
            "phi": self.phi,
            "eps": self.eps,
            "n": self.n,
            "estimate": self.estimate,
            "rounds": self.rounds,
        }


@dataclass
class ExactIterationStats:
    """Per-iteration bookkeeping of Algorithm 3."""

    iteration: int
    eps: float
    valued_nodes: int
    multiplicity: int
    cumulative_multiplicity: int
    target_rank: int
    distinct_candidates: int
    rounds_so_far: int


@dataclass
class ExactQuantileResult:
    """Outcome of the exact φ-quantile computation (Theorem 1.1)."""

    phi: float
    n: int
    target_rank: int
    value: float
    rounds: int
    iterations: int
    metrics: NetworkMetrics
    history: List[ExactIterationStats] = field(default_factory=list)
    retries: int = 0

    def summary(self) -> Dict[str, float]:
        return {
            "phi": self.phi,
            "n": self.n,
            "target_rank": self.target_rank,
            "value": self.value,
            "rounds": self.rounds,
            "iterations": self.iterations,
            "retries": self.retries,
        }
