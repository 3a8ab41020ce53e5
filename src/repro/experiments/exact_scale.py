"""E12 — Theorem 1.1 at scale: fully simulated exact quantiles, n ≥ 10⁴.

The original exact-rounds experiment (E1) sweeps small networks because the
exact driver used to be gated by the loop-only token
split-and-distribute step.  With every sub-protocol vectorized (tournament
pulls, extrema, counting and tokens), the Step-3/Step-4 pairs fused into
multi-lane runs, and an opt-in float32 key path, the *fully simulated*
exact algorithm runs to n = 10⁶ single-threaded, which is the regime where
comparisons against the congested-clique-style related work become
meaningful.

For each (n, φ, dtype) the experiment runs the exact algorithm end to end
and reports round counts (the Theorem 1.1 shape
check: rounds / log₂ n stays bounded), duplication iterations, retries
(all, and split into sandwich and final-query misses), wall-clock time, exactness against the offline quantile, the rank
error of the returned value, and — for float32 rows — whether the rank
error matches the float64 run bit for bit (``f32_parity``: keys are ranks,
exactly representable in float32 below 2²⁴, so parity is the documented
expectation, not an approximation).  Trials dispatch through
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
from repro.exceptions import ConfigurationError
from repro.gossip.env import GossipEnv
from repro.obs.tracer import Tracer
from repro.utils.rand import RandomSource
from repro.utils.stats import empirical_quantile
from repro.utils.views import ReadOnlyArray

COLUMNS = [
    "n",
    "phi",
    "trials",
    "dtype",
    "rounds",
    "rounds_per_logn",
    "iterations",
    "retries",
    "sandwich_retries",
    "final_retries",
    "wall_s",
    "correct",
    "rank_error",
    "f32_parity",
]

#: Preset sweep: the fused multi-lane + float32 path reaches n = 10⁶
#: single-threaded (see benchmarks/BENCH_exact.json for the trajectory).
DEFAULT_SIZES = (10_000, 100_000, 300_000, 1_000_000)


def _run_one_trial(
    phi: float,
    dtype: Optional[str],
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
        span.annotate(phi=phi, dtype=dtype or "float64")
        result = exact_quantile(
            values, phi=phi, rng=rng, env=GossipEnv(dtype=dtype)
        )
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
    dtypes: Sequence[str] = ("float64", "float32"),
    workers: Optional[int] = None,
) -> List[Dict[str, float]]:
    """Run experiment E12 and return one row per (n, phi, dtype).

    ``dtypes`` selects the gossip key-array precisions to sweep; when both
    float64 and float32 run for an (n, phi) cell the float32 row carries an
    ``f32_parity`` column — 1.0 iff its measured rank error equals the
    float64 row's.
    """
    for dtype in dtypes:
        if dtype not in ("float64", "float32"):
            raise ConfigurationError(
                f"unknown dtype {dtype!r}; choose float64 and/or float32"
            )
    from repro.experiments.runner import run_trials

    master = RandomSource(seed)
    rows: List[Dict[str, float]] = []
    for n in sizes:
        values = distinct_uniform(n, rng=master.child())
        for phi in phis:
            truth = empirical_quantile(values, phi)
            # one seed per (n, phi) cell, shared across dtypes, so the
            # float32 run replays the float64 gossip schedule exactly.
            # SeedSequence spawning is stateful, so each dtype gets a
            # *fresh* sequence rebuilt from the cell's entropy/spawn_key —
            # reusing one object would hand later dtypes different children.
            cell_seq = master.child().seed_sequence
            rank_errors: Dict[str, float] = {}
            cell_rows: Dict[str, Dict[str, float]] = {}
            for dtype in dtypes:
                replay = np.random.SeedSequence(
                    entropy=cell_seq.entropy, spawn_key=cell_seq.spawn_key
                )
                outcomes = run_trials(
                    partial(_run_one_trial, phi, dtype, truth),
                    trials,
                    seed=RandomSource(replay),
                    workers=workers,
                    shared={"values": values},
                )
                mean_rounds = float(np.mean([o["rounds"] for o in outcomes]))
                mean_rank_error = float(np.mean([o["rank_error"] for o in outcomes]))
                rank_errors[dtype] = mean_rank_error
                row = {
                    "n": n,
                    "phi": phi,
                    "trials": trials,
                    "dtype": dtype,
                    "rounds": mean_rounds,
                    "rounds_per_logn": mean_rounds / math.log2(n),
                    "iterations": float(np.mean([o["iterations"] for o in outcomes])),
                    "retries": float(np.mean([o["retries"] for o in outcomes])),
                    "sandwich_retries": float(
                        np.mean([o["sandwich_retries"] for o in outcomes])
                    ),
                    "final_retries": float(
                        np.mean([o["final_retries"] for o in outcomes])
                    ),
                    "wall_s": float(np.mean([o["wall_s"] for o in outcomes])),
                    "correct": float(np.mean([o["correct"] for o in outcomes])),
                    "rank_error": mean_rank_error,
                }
                cell_rows[dtype] = row
                rows.append(row)
            # parity is attached after the sweep so it appears regardless
            # of the order the dtypes were requested in
            if "float32" in cell_rows and "float64" in rank_errors:
                cell_rows["float32"]["f32_parity"] = float(
                    rank_errors["float32"] == rank_errors["float64"]
                )
    return rows
