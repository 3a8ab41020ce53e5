"""E10 — ablations of the paper's design choices (see the README's "Layout").

Three questions the paper's construction answers implicitly; each ablation
removes one ingredient and measures what breaks:

* **Truncated last iteration (δ).**  Algorithm 1 performs the tournament in
  its final iteration only with probability δ so the above-band mass lands
  *at* T = 1/2 − ε instead of overshooting.  The ablation always performs
  the tournament (δ ≡ 1) and measures how far the band drifts past the
  median, which translates directly into extra rank error.
* **Phase I (band shifting).**  For φ ≠ 1/2 one could hope to run only the
  3-TOURNAMENT median dynamics.  The ablation skips Phase I and shows the
  returned value collapses towards the median regardless of φ — the error
  becomes ≈ |φ − 1/2| instead of ≤ ε.
* **Final vote size K.**  Lemma 2.17 only needs K = O(1); the ablation
  sweeps K and measures the per-node failure fraction, showing diminishing
  returns beyond a small constant.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.core.schedules import two_tournament_schedule
from repro.core.three_tournament import run_three_tournament
from repro.core.two_tournament import run_two_tournament
from repro.datasets.generators import distinct_uniform
from repro.gossip.network import GossipNetwork
from repro.utils.rand import RandomSource
from repro.utils.stats import fraction_within_eps, rank_error

COLUMNS = [
    "ablation",
    "n",
    "phi",
    "eps",
    "setting",
    "trials",
    "mean_error",
    "max_error",
    "node_success_fraction",
]


def _full_pipeline(
    values: np.ndarray,
    phi: float,
    eps: float,
    rng: RandomSource,
    truncate_last: bool = True,
    skip_phase1: bool = False,
    final_samples: int = 15,
) -> np.ndarray:
    """Run the two-phase algorithm with individual ingredients switched off."""
    network = GossipNetwork(values, rng=rng, keep_history=False)
    if not skip_phase1:
        schedule = two_tournament_schedule(phi, eps)
        if not truncate_last and schedule.iterations:
            # force delta = 1 in every iteration (the ablated variant)
            forced = [it.__class__(it.index, it.h_before, it.h_after, 1.0)
                      for it in schedule.iterations]
            schedule = schedule.__class__(
                phi=schedule.phi,
                eps=schedule.eps,
                direction=schedule.direction,
                h0=schedule.h0,
                threshold=schedule.threshold,
                iterations=forced,
            )
        run_two_tournament(network, phi=phi, eps=eps, schedule=schedule, track_band=False)
    phase2 = run_three_tournament(
        network, eps=eps / 4.0, final_samples=final_samples, track_band=False
    )
    return phase2.final_values


def run(
    n: int = 2048,
    phi: float = 0.25,
    eps: float = 0.1,
    trials: int = 3,
    vote_sizes: Sequence[int] = (1, 3, 7, 15),
    seed: int = 11,
) -> List[Dict[str, object]]:
    """Run the three ablations and return one row per configuration."""
    rng = RandomSource(seed)
    rows: List[Dict[str, object]] = []

    def record(ablation: str, setting: str, errors, node_success):
        rows.append(
            {
                "ablation": ablation,
                "n": n,
                "phi": phi,
                "eps": eps,
                "setting": setting,
                "trials": trials,
                "mean_error": float(np.mean(errors)),
                "max_error": float(np.max(errors)),
                "node_success_fraction": float(np.mean(node_success)),
            }
        )

    # --- ablation 1: truncated vs un-truncated last iteration ------------------
    for truncate, label in ((True, "delta-truncated (paper)"), (False, "delta=1 (ablated)")):
        errors, success = [], []
        for _ in range(trials):
            trial_rng = rng.child()
            values = distinct_uniform(n, rng=trial_rng.child())
            estimates = _full_pipeline(
                values, phi, eps, trial_rng.child(), truncate_last=truncate
            )
            representative = float(np.median(estimates[np.isfinite(estimates)]))
            errors.append(rank_error(values, representative, phi))
            success.append(fraction_within_eps(values, estimates, phi, eps))
        record("last-iteration-truncation", label, errors, success)

    # --- ablation 2: with vs without Phase I ------------------------------------
    for skip, label in ((False, "phase I + phase II (paper)"), (True, "phase II only (ablated)")):
        errors, success = [], []
        for _ in range(trials):
            trial_rng = rng.child()
            values = distinct_uniform(n, rng=trial_rng.child())
            estimates = _full_pipeline(
                values, phi, eps, trial_rng.child(), skip_phase1=skip
            )
            representative = float(np.median(estimates[np.isfinite(estimates)]))
            errors.append(rank_error(values, representative, phi))
            success.append(fraction_within_eps(values, estimates, phi, eps))
        record("phase-one", label, errors, success)

    # --- ablation 3: final vote size K -------------------------------------------
    for k in vote_sizes:
        if k % 2 == 0:
            continue
        errors, success = [], []
        for _ in range(trials):
            trial_rng = rng.child()
            values = distinct_uniform(n, rng=trial_rng.child())
            estimates = _full_pipeline(
                values, phi, eps, trial_rng.child(), final_samples=int(k)
            )
            representative = float(np.median(estimates[np.isfinite(estimates)]))
            errors.append(rank_error(values, representative, phi))
            success.append(fraction_within_eps(values, estimates, phi, eps))
        record("final-vote-size", f"K={k}", errors, success)

    return rows
