"""Benchmark: vectorized gossip throughput across topologies.

Measures (a) raw partner-sampling throughput — the new per-round hot path —
for the uniform, neighbor-uniform and round-robin samplers, and (b) full
push-sum rounds/second on the vectorized engine over each topology family.
The neighbor-sampling path is one extra gather per round, so topology
gossip should stay within a small constant factor of uniform gossip.
Usable standalone::

    PYTHONPATH=src python benchmarks/bench_topology.py --sizes 10000 100000

``--smoke`` runs a reduced grid and asserts the end-to-end invariants
(every topology executes on the vectorized engine, partners respect the
graph); CI runs it on every push so the hot path cannot silently break.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:  # pragma: no cover - environment dependent
    sys.path.insert(0, str(SRC))

import numpy as np

from repro.aggregates.push_sum import PushSumProtocol
from repro.gossip.engine import run_protocol_vectorized
from repro.gossip.env import GossipEnv
from repro.topology import build_topology, resolve_peer_sampler
from repro.utils.rand import RandomSource

TOPOLOGIES = ("complete", "ring", "regular", "erdos-renyi", "small-world")


def _time_sampler(topology, sampling: str, n: int, rounds: int, seed: int) -> float:
    """Partner draws per second for one sampler."""
    sampler = resolve_peer_sampler(topology, sampling=sampling, n=n)
    rng = RandomSource(seed)
    start = time.perf_counter()
    for _ in range(rounds):
        sampler.draw_round(rng)
    elapsed = time.perf_counter() - start
    return rounds / elapsed


def _time_push_sum(topology, n: int, rounds: int, seed: int):
    """(rounds/sec, result, protocol) for vectorized push-sum on a topology."""
    values = RandomSource(seed).random(n) * 100.0
    protocol = PushSumProtocol(values, rounds=rounds)
    start = time.perf_counter()
    result = run_protocol_vectorized(
        protocol, rng=seed, max_rounds=rounds + 1,
        env=GossipEnv(topology=topology),
    )
    elapsed = time.perf_counter() - start
    return result.rounds / elapsed, result, protocol


def run_benchmark(sizes, rounds: int = 50, seed: int = 0, degree: int = 8):
    rows = []
    for n in sizes:
        for name in TOPOLOGIES:
            topology = build_topology(name, n, degree=degree, rng=seed)
            sampling = "uniform"
            sampler_rps = _time_sampler(topology, sampling, n, rounds, seed)
            engine_rps, result, _ = _time_push_sum(topology, n, rounds, seed)
            rows.append(
                {
                    "n": n,
                    "topology": name,
                    "sampler_rounds_per_sec": sampler_rps,
                    "push_sum_rounds_per_sec": engine_rps,
                    "rounds": result.rounds,
                }
            )
    return rows


def smoke(seed: int = 0) -> int:
    """Reduced CI grid with hard assertions on the hot path."""
    n, rounds = 5_000, 20
    baseline = None
    for name in TOPOLOGIES:
        topology = build_topology(name, n, degree=8, rng=seed)
        rps, result, protocol = _time_push_sum(topology, n, rounds, seed)
        assert result.rounds == rounds, (name, result.rounds)
        assert result.completed, name
        # Push-sum conserves total s-mass and total weight exactly (every
        # round only moves halves around); a scrambled scatter or a partner
        # draw writing out of bounds breaks these immediately.
        true_mass = float(RandomSource(seed).random(n).sum() * 100.0)
        assert abs(protocol.total_mass - true_mass) < 1e-6 * true_mass, name
        assert abs(protocol.total_weight - n) < 1e-6 * n, name
        estimates = np.asarray(result.outputs, dtype=float)
        assert np.isfinite(estimates).all(), name
        if name == "complete":
            baseline = rps
        print(f"smoke: {name:12s} {rps:10.1f} rounds/s")
    # round-robin sampling also executes
    env = GossipEnv(
        topology=build_topology("regular", n, degree=8, rng=seed),
        peer_sampling="round-robin",
    )
    values = RandomSource(seed).random(n)
    result = run_protocol_vectorized(
        PushSumProtocol(values, rounds=10), rng=seed, max_rounds=11, env=env
    )
    assert result.rounds == 10
    print(f"smoke: round-robin on regular OK; complete baseline "
          f"{baseline:.0f} rounds/s")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[10_000, 100_000])
    parser.add_argument("--rounds", type=int, default=50)
    parser.add_argument("--degree", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced CI grid with correctness assertions",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        return smoke(seed=args.seed)

    rows = run_benchmark(
        args.sizes, rounds=args.rounds, seed=args.seed, degree=args.degree
    )
    header = (
        f"{'n':>9}  {'topology':<12}  {'sampler draws/s':>16}  "
        f"{'push-sum rds/s':>15}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['n']:>9}  {row['topology']:<12}  "
            f"{row['sampler_rounds_per_sec']:>16.1f}  "
            f"{row['push_sum_rounds_per_sec']:>15.1f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
