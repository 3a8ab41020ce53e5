"""E10 — gossip dynamics beyond the complete graph: the topology sweep.

The paper's algorithms are analysed for uniform gossip on the complete
graph.  This experiment re-runs the library's three core dynamics on
structured topologies (see :mod:`repro.topology`) and relates convergence
to the topology's spectral gap:

* **push-sum** — rounds until the per-node average estimates agree to a
  relative spread below ``tolerance`` (the quantile-counting primitive of
  Algorithm 3, Step 5);
* **broadcast** — rounds until a single rumor informs every node (the
  extrema-spreading primitive of Step 4);
* **approx-quantile** — the tournament algorithms of Theorems 1.2/2.1 run
  unchanged with neighbor pulls; their *round* count is fixed by the
  schedule, so the sweep reports the achieved rank error instead.

Expected shape: expanders (random regular, Erdős–Rényi, small-world at
moderate rewiring) track the complete graph to within a constant factor —
their spectral gap is constant — while the ring and torus need polynomially
many rounds (gap ``1/n²`` and ``1/n``) and blow past the round cap.

All trials run on the vectorized engine and dispatch through the parallel
trial executor, so rows are identical for any ``workers`` count.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.aggregates.broadcast import BroadcastProtocol
from repro.aggregates.push_sum import PushSumProtocol
from repro.core.approx_quantile import approximate_quantile
from repro.datasets.generators import distinct_uniform
from repro.exceptions import ConfigurationError
from repro.gossip.engine import run_protocol
from repro.gossip.env import GossipEnv
from repro.topology import build_topology, degree_stats, estimate_spectral_gap
from repro.utils.rand import RandomSource
from repro.utils.stats import rank_error

COLUMNS = [
    "n",
    "topology",
    "protocol",
    "degree",
    "trials",
    "rounds",
    "converged_fraction",
    "quality",
    "spectral_gap",
    "mean_degree",
]

#: Protocols the sweep knows how to drive.
PROTOCOLS = ("push-sum", "broadcast", "approx-quantile")

#: Default topology list: complete as the paper's reference plus the
#: structured families (torus is omitted by default because its ``1/n``
#: gap makes the round cap the only possible outcome at large n; add it
#: explicitly to see exactly that).
DEFAULT_TOPOLOGIES = ("complete", "ring", "regular", "erdos-renyi", "small-world")


def _quality_label(protocol: str) -> str:
    """What the ``quality`` column means for each protocol (docs + tests)."""
    return {
        "push-sum": "final relative spread of the average estimates",
        "broadcast": "fraction of nodes informed",
        "approx-quantile": "rank error of the estimate",
    }[protocol]


def _run_cell(
    grid: Tuple[Tuple[int, str, str], ...],
    degree: int,
    rewire_p: float,
    max_rounds: int,
    tolerance: float,
    eps: float,
    phi: float,
    trial_index: int,
    rng: RandomSource,
) -> Dict[str, float]:
    """One (n, topology, protocol) trial; module-level for process pools."""
    n, topo_name, protocol = grid[trial_index]
    topology = build_topology(
        topo_name, n, degree=degree, rewire_p=rewire_p, rng=rng.child()
    )
    env = GossipEnv(topology=topology)
    # Diagnostics come from the same sampled graph the trial runs on.
    gap = estimate_spectral_gap(topology, rng=rng.child())
    mean_degree = degree_stats(topology)["mean_degree"]
    values = distinct_uniform(n, rng=rng.child())

    if protocol == "push-sum":
        proto = PushSumProtocol(values, rounds=max_rounds, tolerance=tolerance)
        result = run_protocol(
            proto, rng=rng.child(), raise_on_budget=False,
            max_rounds=max_rounds + 1, env=env,
        )
        spread = proto.relative_spread()
        return {
            "rounds": result.rounds,
            "converged": float(spread <= tolerance),
            "quality": spread,
            "spectral_gap": gap,
            "mean_degree": mean_degree,
        }
    if protocol == "broadcast":
        proto = BroadcastProtocol(n, max_rounds=max_rounds)
        result = run_protocol(
            proto, rng=rng.child(), raise_on_budget=False,
            max_rounds=max_rounds + 1, env=env,
        )
        informed = proto.informed_count / n
        return {
            "rounds": result.rounds,
            "converged": float(informed == 1.0),
            "quality": informed,
            "spectral_gap": gap,
            "mean_degree": mean_degree,
        }
    # approx-quantile: fixed O(log log n + log 1/eps) schedule; quality is
    # the achieved rank error of the tournament estimate on this topology.
    result = approximate_quantile(
        values, phi=phi, eps=eps, rng=rng.child(), env=env
    )
    error = rank_error(values, result.estimate, phi)
    return {
        "rounds": result.rounds,
        "converged": float(error <= eps + 1e-12),
        "quality": error,
        "spectral_gap": gap,
        "mean_degree": mean_degree,
    }


def run(
    sizes: Sequence[int] = (10_000,),
    topologies: Sequence[str] = DEFAULT_TOPOLOGIES,
    protocols: Sequence[str] = PROTOCOLS,
    degree: int = 8,
    rewire_p: float = 0.1,
    max_rounds: int = 1_500,
    tolerance: float = 1e-3,
    eps: float = 0.1,
    phi: float = 0.5,
    trials: int = 2,
    seed: int = 10,
    workers: Optional[int] = None,
) -> List[Dict[str, float]]:
    """Run experiment E10 and return one row per (n, topology, protocol)."""
    from repro.experiments.runner import run_trials

    for protocol in protocols:
        if protocol not in PROTOCOLS:
            raise ConfigurationError(
                f"unknown protocol {protocol!r}; choose from {PROTOCOLS}"
            )
    grid = tuple(
        (n, topo, protocol)
        for n in sizes
        for topo in topologies
        for protocol in protocols
        for _ in range(trials)
    )
    task = partial(_run_cell, grid, degree, rewire_p, max_rounds, tolerance, eps, phi)
    outcomes = run_trials(task, len(grid), seed=seed, workers=workers)

    rows: List[Dict[str, float]] = []
    cursor = 0
    for n in sizes:
        for topo in topologies:
            for protocol in protocols:
                batch = outcomes[cursor : cursor + trials]
                cursor += trials
                rows.append(
                    {
                        "n": n,
                        "topology": topo,
                        "protocol": protocol,
                        "degree": degree,
                        "trials": trials,
                        "rounds": float(np.mean([b["rounds"] for b in batch])),
                        "converged_fraction": float(
                            np.mean([b["converged"] for b in batch])
                        ),
                        "quality": float(np.mean([b["quality"] for b in batch])),
                        "spectral_gap": float(
                            np.mean([b["spectral_gap"] for b in batch])
                        ),
                        "mean_degree": float(
                            np.mean([b["mean_degree"] for b in batch])
                        ),
                    }
                )
    return rows
