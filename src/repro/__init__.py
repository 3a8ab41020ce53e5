"""repro — Optimal Gossip Algorithms for Exact and Approximate Quantile Computations.

A production-quality reproduction of Haeupler, Mohapatra and Su (PODC 2018):
uniform-gossip algorithms that compute an exact φ-quantile in O(log n)
rounds and an ε-approximate φ-quantile in O(log log n + log 1/ε) rounds,
together with the gossip substrate they run on, the baselines they are
compared against, the Section-5 failure-tolerant variants and the
Theorem 1.3 lower-bound harness.

Quick start
-----------
>>> from repro import approximate_quantile, exact_quantile
>>> import numpy as np
>>> values = np.random.default_rng(0).permutation(np.arange(1.0, 2049.0))
>>> approx = approximate_quantile(values, phi=0.9, eps=0.1, rng=0)
>>> exact = exact_quantile(values, phi=0.9, rng=0)
"""

from repro.core import (
    approximate_quantile,
    estimate_all_ranks,
    exact_quantile,
    robust_approximate_quantile,
)
from repro.core.results import ApproxQuantileResult, ExactQuantileResult
from repro.core.robust import RobustQuantileResult
from repro.core.all_quantiles import AllRanksResult, true_self_quantiles
from repro.core.service import QuantileService, QueryAnswer
from repro.gossip import (
    GossipEnv,
    GossipNetwork,
    NetworkMetrics,
    NoFailures,
    PerNodeFailures,
    UniformFailures,
)
from repro.topology import Topology, build_topology
from repro.utils.rand import RandomSource
from repro.utils.stats import (
    empirical_quantile,
    quantile_of_value,
    rank_error,
    within_eps,
)

__version__ = "1.0.0"

__all__ = [
    "approximate_quantile",
    "exact_quantile",
    "estimate_all_ranks",
    "robust_approximate_quantile",
    "ApproxQuantileResult",
    "ExactQuantileResult",
    "RobustQuantileResult",
    "AllRanksResult",
    "true_self_quantiles",
    "QuantileService",
    "QueryAnswer",
    "GossipEnv",
    "GossipNetwork",
    "NetworkMetrics",
    "NoFailures",
    "UniformFailures",
    "PerNodeFailures",
    "Topology",
    "build_topology",
    "RandomSource",
    "empirical_quantile",
    "quantile_of_value",
    "rank_error",
    "within_eps",
    "__version__",
]
