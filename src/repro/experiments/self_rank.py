"""E5 — Corollary 1.5: every node estimates its own quantile to within ±O(ε).

Runs the grid-of-quantiles construction over several workload shapes
(uniform permutation, Zipf, sensor field) along a fused-vs-sequential
execution axis: the fused mode column-stacks the whole grid into
(lane-chunked) multi-lane tournaments — one shared partner stream, rounds
= max-of-lanes per chunk — while the sequential mode runs the
single-lane reference (``max_lanes=1``): one tournament per grid target.  Reported per
row: the distribution of per-node self-rank errors (against midrank
ground truth, so duplicate-heavy workloads are not charged for ties) and
the total round count, which is the corollary's
(1/ε)·O(log log n + log 1/ε) sequentially and sheds the (1/ε) factor
when fused.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.core.all_quantiles import (
    DEFAULT_MAX_LANES,
    estimate_all_ranks,
    true_self_quantiles,
)
from repro.datasets.workloads import make_workload
from repro.utils.rand import RandomSource

COLUMNS = [
    "workload",
    "mode",
    "n",
    "eps",
    "rounds",
    "grid_queries",
    "chunks",
    "mean_error",
    "p95_error",
    "max_error",
    "fraction_within_2eps",
]

MODES = ("fused", "sequential")


def run(
    workloads: Sequence[str] = ("distinct", "zipf", "sensor"),
    sizes: Sequence[int] = (1024,),
    eps_values: Sequence[float] = (0.1, 0.05),
    seed: int = 5,
    modes: Sequence[str] = MODES,
    max_lanes: int = DEFAULT_MAX_LANES,
) -> List[Dict[str, float]]:
    """Run experiment E5: one row per (workload, n, eps, mode)."""
    for mode in modes:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; choose from {MODES}")
    rng = RandomSource(seed)
    rows: List[Dict[str, float]] = []
    for workload in workloads:
        for n in sizes:
            for eps in eps_values:
                trial_rng = rng.child()
                values = make_workload(workload, n, rng=trial_rng.child())
                truth = true_self_quantiles(values)
                for mode in modes:
                    result = estimate_all_ranks(
                        values,
                        eps=eps,
                        rng=trial_rng.child(),
                        max_lanes=max_lanes if mode == "fused" else 1,
                    )
                    errors = np.abs(result.quantile_estimates - truth)
                    rows.append(
                        {
                            "workload": workload,
                            "mode": mode,
                            "n": n,
                            "eps": eps,
                            "rounds": result.rounds,
                            "grid_queries": int(result.grid.size),
                            "chunks": result.chunks,
                            "mean_error": float(errors.mean()),
                            "p95_error": float(np.quantile(errors, 0.95)),
                            "max_error": float(errors.max()),
                            "fraction_within_2eps": float(
                                np.mean(errors <= 2 * eps)
                            ),
                        }
                    )
    return rows
