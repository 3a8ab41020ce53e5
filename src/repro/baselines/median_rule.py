"""The Doerr et al. [DGM+11] median rule.

Every node repeatedly samples three uniformly random values and adopts the
median.  Doerr et al. show that O(log n) rounds of this dynamic converge to
a value within ±O(√(log n)/√n) of the median even under adversarial node
failures — but only for the median, not for general quantiles, and not with
a sub-logarithmic round complexity.  The paper's 3-TOURNAMENT phase is the
same dynamic run for only O(log 1/ε + log log n) iterations with an
explicit stopping rule; this module provides the original fixed-length
variant as a baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.core.three_tournament import median_of_three
from repro.core.tournament import PullWindow, lane_rows, run_windows
from repro.exceptions import ConfigurationError
from repro.gossip.env import GossipEnv
from repro.gossip.failures import FailureModel
from repro.gossip.metrics import NetworkMetrics
from repro.utils.inputs import integral, node_values
from repro.utils.rand import RandomSource
from repro.utils.stats import quantile_of_value


@dataclass
class MedianRuleResult:
    """Outcome of the median-rule dynamic."""

    n: int
    iterations: int
    rounds: int
    values: np.ndarray
    metrics: NetworkMetrics
    #: Quantile (in the initial data) of the most common final value.
    consensus_quantile: float
    #: Fraction of nodes holding the most common final value.
    consensus_fraction: float


def median_rule(
    values: Union[np.ndarray, list, tuple],
    rng: Union[None, int, RandomSource] = None,
    iterations: Optional[int] = None,
    failure_model: Union[None, float, FailureModel] = None,
    constant: float = 3.0,
) -> MedianRuleResult:
    """Run the 3-sample median rule for ``iterations`` (default c·log2 n)
    rounds of three pulls each, on the gossip engine."""
    array = node_values(values)
    n = array.size
    if iterations is None:
        iterations = int(math.ceil(constant * math.log2(n)))
    iterations = integral(iterations, "iterations", "a positive integer")
    if iterations < 1:
        raise ConfigurationError("iterations must be positive")

    metrics = NetworkMetrics(keep_history=False)
    step = PullWindow(3, median_of_three, label="median-rule")
    rows = run_windows(
        lane_rows(array, np.dtype(float)), [step] * iterations, rng, metrics,
        GossipEnv(failure_model=failure_model),
    )
    final = rows[0]
    uniques, counts = np.unique(final, return_counts=True)
    winner = float(uniques[int(np.argmax(counts))])
    return MedianRuleResult(
        n=n,
        iterations=iterations,
        rounds=metrics.rounds,
        values=final,
        metrics=metrics,
        consensus_quantile=quantile_of_value(array, winner),
        consensus_fraction=float(np.max(counts)) / n,
    )
