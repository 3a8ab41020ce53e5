"""E4 — Theorem 1.4: robustness to per-round node failures.

Runs the robust ε-approximate φ-quantile algorithm under increasing failure
probabilities μ and reports the round count (which should inflate only by
the Θ(1/(1−μ) log 1/(1−μ)) per-iteration factor), the fraction of nodes
that stayed good, the fraction that learned an answer, and the error of the
answers that were produced.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.theory import robust_slowdown_reference
from repro.core.approx_quantile import approximate_quantile
from repro.core.robust import robust_approximate_quantile
from repro.datasets.generators import distinct_uniform
from repro.gossip.env import GossipEnv
from repro.utils.rand import RandomSource, resolve_seed_sequence
from repro.utils.stats import rank_error

COLUMNS = [
    "n",
    "mu",
    "eps",
    "phi",
    "trials",
    "rounds",
    "failure_free_rounds",
    "slowdown",
    "reference_slowdown",
    "good_fraction",
    "answered_fraction",
    "mean_error",
    "success_fraction",
]


def _run_one_trial(
    grid: Tuple[Tuple[int, float], ...],
    eps: float,
    phi: float,
    trial_index: int,
    rng: RandomSource,
) -> Dict[str, float]:
    """One (n, mu) trial; module-level so process pools can pickle it."""
    n, mu = grid[trial_index]
    values = distinct_uniform(n, rng=rng.child())
    result = robust_approximate_quantile(
        values, phi=phi, eps=eps, rng=rng.child(),
        env=GossipEnv(failure_model=mu),
    )
    error = rank_error(values, result.estimate, phi)
    return {
        "error": error,
        "rounds": result.rounds,
        "good_fraction": result.good_fraction,
        "answered_fraction": result.answered_fraction,
        "success": int(error <= eps + 1e-12),
    }


def run(
    sizes: Sequence[int] = (1024, 2048),
    mus: Sequence[float] = (0.0, 0.2, 0.5),
    eps: float = 0.1,
    phi: float = 0.5,
    trials: int = 3,
    seed: int = 4,
    workers: Optional[int] = None,
) -> List[Dict[str, float]]:
    """Run experiment E4 and return one row per (n, mu).

    The (n, mu, trial) grid dispatches through the parallel trial executor;
    the per-``n`` failure-free reference runs are cheap and stay inline.
    """
    from repro.experiments.runner import run_trials

    grid = tuple((n, mu) for n in sizes for mu in mus for _ in range(trials))
    outcomes = run_trials(
        partial(_run_one_trial, grid, eps, phi), len(grid), seed=seed,
        workers=workers,
    )

    # The reference runs draw from a separate branch of the seed space:
    # spawning children of SeedSequence(seed) here would replay the exact
    # streams run_trials handed to the first trials, making the mu = 0
    # "slowdown" a comparison of a run against itself.
    rng = resolve_seed_sequence((seed, 1)) if seed is not None else RandomSource()
    rows: List[Dict[str, float]] = []
    cursor = 0
    for n in sizes:
        # Failure-free reference: the plain algorithm on the same sizes.
        ref_rng = rng.child()
        ref_values = distinct_uniform(n, rng=ref_rng.child())
        reference = approximate_quantile(
            ref_values, phi=phi, eps=eps, rng=ref_rng.child()
        )
        for mu in mus:
            batch = outcomes[cursor : cursor + trials]
            cursor += trials
            mean_rounds = float(np.mean([b["rounds"] for b in batch]))
            rows.append(
                {
                    "n": n,
                    "mu": mu,
                    "eps": eps,
                    "phi": phi,
                    "trials": trials,
                    "rounds": mean_rounds,
                    "failure_free_rounds": reference.rounds,
                    "slowdown": mean_rounds / reference.rounds,
                    "reference_slowdown": robust_slowdown_reference(mu),
                    "good_fraction": float(
                        np.mean([b["good_fraction"] for b in batch])
                    ),
                    "answered_fraction": float(
                        np.mean([b["answered_fraction"] for b in batch])
                    ),
                    "mean_error": float(np.mean([b["error"] for b in batch])),
                    "success_fraction": sum(b["success"] for b in batch) / trials,
                }
            )
    return rows
