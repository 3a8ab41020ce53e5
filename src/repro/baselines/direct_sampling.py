"""The trivial sampling baseline: O(log n / ε²) rounds.

Each node pulls one uniformly random value per round for
``t = ceil(c · log2 n / ε²)`` rounds and outputs the φ-quantile of its
sample.  By Chernoff/Hoeffding (Lemma A.1) the sample quantile is within ε
of the population quantile w.h.p.  The message size is a single value
(O(log n) bits), but the round complexity is exponentially worse in ε than
the tournament algorithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.gossip.failures import FailureModel, resolve_failure_model
from repro.gossip.metrics import NetworkMetrics
from repro.utils.rand import RandomSource
from repro.utils.stats import empirical_quantile


def sampling_rounds(n: int, eps: float, constant: float = 1.0) -> int:
    """The baseline's round budget ``ceil(constant * log2 n / eps^2)``."""
    if n < 2:
        raise ConfigurationError("n must be at least 2")
    if not 0.0 < eps < 1.0:
        raise ConfigurationError("eps must be in (0, 1)")
    return int(math.ceil(constant * math.log2(n) / (eps * eps)))


@dataclass
class SamplingResult:
    """Outcome of the direct-sampling baseline."""

    phi: float
    eps: float
    n: int
    estimates: np.ndarray
    estimate: float
    rounds: int
    metrics: NetworkMetrics
    observers: int


def sampling_quantile(
    values: Union[np.ndarray, list, tuple],
    phi: float,
    eps: float,
    rng: Union[None, int, RandomSource] = None,
    failure_model: Union[None, float, FailureModel] = None,
    rounds: Optional[int] = None,
    constant: float = 1.0,
    max_observers: int = 512,
) -> SamplingResult:
    """Run the sampling baseline.

    Because the per-node sample sizes grow like ``log n / eps²``, the full
    ``n × t`` sample matrix can be very large; the simulation therefore
    materialises the outputs of at most ``max_observers`` nodes (the
    algorithm is symmetric, so observer nodes are statistically identical to
    the rest), while the round and message accounting covers all ``n``
    nodes.  The rounds are charged, not simulated, so ``failure_model`` is
    only validated.
    """
    if not 0.0 <= phi <= 1.0:
        raise ConfigurationError("phi must be in [0, 1]")
    if not 0.0 < eps < 1.0:
        raise ConfigurationError("eps must be in (0, 1)")
    array = np.asarray(values, dtype=float)
    if array.ndim != 1 or array.size < 2:
        raise ConfigurationError("values must be a 1-d array of length >= 2")
    n = array.size
    if rounds is None:
        rounds = sampling_rounds(n, eps, constant)
    observers = int(min(n, max(1, max_observers)))

    resolve_failure_model(failure_model)
    # Values never change in this baseline, so each pull is an iid draw from
    # the static value array; every round is charged and the observer
    # samples are drawn directly.
    metrics = NetworkMetrics(keep_history=False)
    metrics.charge_rounds(rounds, label="sampling")
    metrics.record_messages(rounds * n, 64 + max(1, int(math.ceil(math.log2(n)))))

    source = rng if isinstance(rng, RandomSource) else RandomSource(rng)
    draws = source.integers(0, n, size=(observers, rounds))
    samples = array[draws]
    estimates = np.array(
        [empirical_quantile(samples[i], phi) for i in range(observers)], dtype=float
    )

    return SamplingResult(
        phi=phi,
        eps=eps,
        n=n,
        estimates=estimates,
        estimate=float(np.median(estimates)),
        rounds=rounds,
        metrics=metrics,
        observers=observers,
    )
