"""E9 — Step 7: token split-and-distribute in O(log n) cheap phases.

For each (n, μ) the experiment distributes tokens with a power-of-two
multiplicity and reports the number of phases (should grow like log n), the
total rounds, and the maximum number of tokens that ever co-located on one
node (should stay O(1), which is what makes each phase O(1) rounds).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

from repro.core.tokens import distribute_tokens
from repro.gossip.env import GossipEnv
from repro.utils.rand import RandomSource

COLUMNS = [
    "n",
    "mu",
    "items",
    "multiplicity",
    "trials",
    "phases",
    "phases_per_logn",
    "rounds",
    "max_tokens_per_node",
    "failed_pushes",
]


def run(
    sizes: Sequence[int] = (512, 1024, 2048, 4096),
    mus: Sequence[float] = (0.0, 0.3),
    item_fraction: float = 0.05,
    multiplicity: int = 8,
    trials: int = 3,
    seed: int = 9,
) -> List[Dict[str, float]]:
    """Run experiment E9 and return one row per (n, mu)."""
    rng = RandomSource(seed)
    rows: List[Dict[str, float]] = []
    for n in sizes:
        items = max(1, int(item_fraction * n))
        for mu in mus:
            env = GossipEnv(failure_model=mu if mu > 0 else None)
            phases = []
            rounds = []
            max_tokens = []
            failed = []
            for _ in range(trials):
                trial_rng = rng.child()
                item_nodes = trial_rng.choice(
                    np.arange(n), size=items, replace=False
                )
                result = distribute_tokens(
                    item_nodes,
                    multiplicity=multiplicity,
                    n=n,
                    rng=trial_rng.child(),
                    env=env,
                )
                phases.append(result.phases)
                rounds.append(result.rounds)
                max_tokens.append(result.max_tokens_per_node)
                failed.append(result.failed_pushes)
            rows.append(
                {
                    "n": n,
                    "mu": mu,
                    "items": items,
                    "multiplicity": multiplicity,
                    "trials": trials,
                    "phases": float(np.mean(phases)),
                    "phases_per_logn": float(np.mean(phases)) / math.log2(n),
                    "rounds": float(np.mean(rounds)),
                    "max_tokens_per_node": float(np.max(max_tokens)),
                    "failed_pushes": float(np.mean(failed)),
                }
            )
    return rows
