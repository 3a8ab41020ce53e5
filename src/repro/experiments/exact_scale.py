"""E12 — Theorem 1.1 at scale: fully simulated exact quantiles, n ≥ 10⁴.

The original exact-rounds experiment (E1) sweeps small networks because the
exact driver used to be gated by the loop-only token
split-and-distribute step.  With every sub-protocol vectorized (tournament
pulls, extrema, counting and tokens), the Step-3/Step-4 pairs fused into
multi-lane runs, and float32-exact values gossiped in float32, the *fully
simulated* exact algorithm runs to n = 10⁶ single-threaded, which is the
regime where comparisons against the congested-clique-style related work
become meaningful.

For each (n, φ) the experiment runs the exact algorithm end to end
and reports round counts (the Theorem 1.1 shape
check: rounds / log₂ n stays bounded), duplication iterations, retries
(all, and split into sandwich and final-query misses), wall-clock time,
exactness against the offline quantile and the rank error of the returned
value.  Trials dispatch through
:func:`repro.experiments.runner.run_trials`; the per-n value array is
published to worker processes through shared memory instead of being
pickled per trial.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.exact_quantile import exact_quantile
from repro.datasets.generators import distinct_uniform
from repro.obs.tracer import Tracer
from repro.utils.rand import RandomSource
from repro.utils.stats import empirical_quantile
from repro.utils.views import ReadOnlyArray

COLUMNS = [
    "n",
    "phi",
    "trials",
    "rounds",
    "rounds_per_logn",
    "iterations",
    "retries",
    "sandwich_retries",
    "final_retries",
    "wall_s",
    "correct",
    "rank_error",
]

#: Preset sweep: the fused multi-lane float32-key path reaches n = 10⁶
#: single-threaded (see benchmarks/BENCH_exact.json for the trajectory).
DEFAULT_SIZES = (10_000, 100_000, 300_000, 1_000_000)


def _run_one_trial(
    phi: float,
    truth: float,
    trial_index: int,
    rng: RandomSource,
    values: Optional[ReadOnlyArray] = None,
) -> Dict[str, float]:
    """One exact query; module-level so process pools can pickle it.

    ``values`` arrives as a (read-only) shared-memory view published by
    :func:`repro.experiments.runner.run_trials`; ``truth`` is the offline
    quantile, computed once per (n, phi) rather than per trial.
    """
    # A trial-local tracer (not installed ambiently) times the call through
    # the same span API the rest of the stack uses; local scope keeps the
    # engines' per-round hooks disabled, so the timed run stays on the
    # noop-tracer hot path.
    timer = Tracer()
    with timer.span("exact_scale_trial") as span:
        span.annotate(phi=phi)
        result = exact_quantile(values, phi=phi, rng=rng)
    wall = timer.spans[0].wall_s
    rank_true = np.searchsorted(np.sort(values), truth, side="right")
    rank_got = np.searchsorted(np.sort(values), result.value, side="right")
    return {
        "rounds": float(result.rounds),
        "iterations": float(result.iterations),
        "retries": float(result.retries),
        "sandwich_retries": float(result.sandwich_retries),
        "final_retries": float(result.final_retries),
        "wall_s": wall,
        "correct": float(result.value == truth),
        "rank_error": float(abs(int(rank_got) - int(rank_true))) / values.size,
    }


def run(
    sizes: Sequence[int] = DEFAULT_SIZES,
    phis: Sequence[float] = (0.5,),
    trials: int = 1,
    seed: int = 21,
    workers: Optional[int] = None,
) -> List[Dict[str, float]]:
    """Run experiment E12 and return one row per (n, phi)."""
    from repro.experiments.runner import run_trials

    master = RandomSource(seed)
    rows: List[Dict[str, float]] = []
    for n in sizes:
        values = distinct_uniform(n, rng=master.child())
        for phi in phis:
            truth = empirical_quantile(values, phi)
            outcomes = run_trials(
                partial(_run_one_trial, phi, truth),
                trials,
                seed=master.child(),
                workers=workers,
                shared={"values": values},
            )

            def mean(key: str) -> float:
                return float(np.mean([o[key] for o in outcomes]))

            rows.append({
                "n": n,
                "phi": phi,
                "trials": trials,
                "rounds": mean("rounds"),
                "rounds_per_logn": mean("rounds") / math.log2(n),
                "iterations": mean("iterations"),
                "retries": mean("retries"),
                "sandwich_retries": mean("sandwich_retries"),
                "final_retries": mean("final_retries"),
                "wall_s": mean("wall_s"),
                "correct": mean("correct"),
                "rank_error": mean("rank_error"),
            })
    return rows
