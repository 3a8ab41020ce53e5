"""Benchmark: vectorized gossip throughput under dynamic topologies.

Measures push-sum rounds/second on the vectorized engine when the graph is
a per-round object (:mod:`repro.topology.dynamic`): a static small-world
baseline, churn over that graph (per-round active-subgraph CSR rebuilds),
churn over the complete graph, and newscast-style edge resampling at
refresh periods 1 and 16.  The dynamic overhead is one O(E) CSR rebuild
per changed round, so everything should stay within a small factor of the
static baseline.  Usable standalone::

    PYTHONPATH=src python benchmarks/bench_dynamic.py --sizes 10000 100000

Emits a machine-readable trajectory (``--json benchmarks/BENCH_dynamic.json``
by default) that ``bench_trend.py`` diffs across PRs.  ``--smoke`` runs a
reduced grid with hard end-to-end assertions (mass conservation under
churn, asyncio/vectorized agreement); CI runs it on every push.
"""

from __future__ import annotations

import argparse
import json
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
from repro.net import run_protocol_asyncio
from repro.topology import ChurnProcess, EdgeResamplingProcess, build_topology
from repro.utils.rand import RandomSource


def _scenarios(n: int, degree: int, seed: int):
    """(name, process factory) pairs; factories so every run starts fresh."""
    base = build_topology("small-world", n, degree=degree, rng=seed)
    return [
        ("static-small-world", lambda: None, base),
        (
            "churn-small-world",
            lambda: ChurnProcess(topology=base, churn_rate=0.05, rng=seed),
            None,
        ),
        (
            "churn-complete",
            lambda: ChurnProcess(n=n, churn_rate=0.05, rng=seed),
            None,
        ),
        (
            "resample-every-1",
            lambda: EdgeResamplingProcess(
                n, view_size=degree, resample_every=1, rng=seed
            ),
            None,
        ),
        (
            "resample-every-16",
            lambda: EdgeResamplingProcess(
                n, view_size=degree, resample_every=16, rng=seed
            ),
            None,
        ),
    ]


def _time_scenario(runner, n, rounds, seed, process, topology):
    values = RandomSource(seed).random(n) * 100.0
    protocol = PushSumProtocol(values, rounds=rounds)
    start = time.perf_counter()
    result = runner(
        protocol,
        rng=seed,
        max_rounds=rounds + 1,
        env=GossipEnv(topology=topology, topology_process=process),
    )
    elapsed = time.perf_counter() - start
    return result, protocol, elapsed, float(values.sum())


def run_benchmark(sizes, rounds: int = 50, seed: int = 0, degree: int = 8):
    rows = []
    for n in sizes:
        baseline_rps = None
        for name, factory, topology in _scenarios(n, degree, seed):
            result, protocol, elapsed, true_mass = _time_scenario(
                run_protocol_vectorized, n, rounds, seed, factory(), topology
            )
            rps = result.rounds / elapsed
            if baseline_rps is None:
                baseline_rps = rps
            rows.append(
                {
                    "n": n,
                    "scenario": name,
                    "rounds": result.rounds,
                    "wall_s": elapsed,
                    "rounds_per_sec": rps,
                    "slowdown_vs_static": baseline_rps / rps,
                    "mass_rel_error": abs(protocol.total_mass - true_mass)
                    / true_mass,
                }
            )
    return rows


def smoke(seed: int = 0):
    """Reduced CI grid with hard assertions on the dynamic hot path."""
    n, rounds, degree = 4_000, 25, 8
    rows = []
    for name, factory, topology in _scenarios(n, degree, seed):
        result, protocol, elapsed, true_mass = _time_scenario(
            run_protocol_vectorized, n, rounds, seed, factory(), topology
        )
        assert result.rounds == rounds, (name, result.rounds)
        # Dynamic topologies must conserve push-sum mass exactly: departed
        # nodes freeze, they never absorb or lose the aggregate.
        assert abs(protocol.total_mass - true_mass) < 1e-6 * true_mass, name
        assert abs(protocol.total_weight - n) < 1e-6 * n, name
        assert np.isfinite(np.asarray(result.outputs, dtype=float)).all(), name
        rows.append(
            {
                "n": n,
                "scenario": name,
                "rounds": result.rounds,
                "wall_s": elapsed,
                "rounds_per_sec": result.rounds / elapsed,
                "mass_rel_error": abs(protocol.total_mass - true_mass) / true_mass,
            }
        )
        print(f"smoke: {name:20s} {result.rounds / elapsed:10.1f} rounds/s")
    # The vectorized engine must agree bit-for-bit with the per-node
    # asyncio engine over in-process channels under a process.
    small = 257
    env = GossipEnv(
        topology_process=ChurnProcess(n=small, churn_rate=0.2, rng=seed)
    )
    values = RandomSource(seed).random(small)
    reference = run_protocol_asyncio(
        PushSumProtocol(values, rounds=12), rng=seed, max_rounds=13, env=env
    )
    vec = run_protocol_vectorized(
        PushSumProtocol(values, rounds=12), rng=seed, max_rounds=13, env=env
    )
    assert reference.outputs == vec.outputs
    assert reference.metrics.summary() == vec.metrics.summary()
    print("smoke: asyncio == vectorized under churn OK")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[10_000, 100_000])
    parser.add_argument("--rounds", type=int, default=50)
    parser.add_argument("--degree", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--json", type=Path, default=None,
        help="write the row trajectory to this JSON file "
             "(default benchmarks/BENCH_dynamic.json for full runs)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced CI grid with correctness assertions",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        rows = smoke(seed=args.seed)
    else:
        rows = run_benchmark(
            args.sizes, rounds=args.rounds, seed=args.seed, degree=args.degree
        )
        header = f"{'n':>9}  {'scenario':<20}  {'rounds/s':>12}  {'slowdown':>9}"
        print(header)
        print("-" * len(header))
        for row in rows:
            print(
                f"{row['n']:>9}  {row['scenario']:<20}  "
                f"{row['rounds_per_sec']:>12.1f}  "
                f"{row['slowdown_vs_static']:>8.2f}x"
            )

    json_path = args.json
    if json_path is None and not args.smoke:
        json_path = Path(__file__).resolve().parent / "BENCH_dynamic.json"
    if json_path is not None:
        payload = {
            "benchmark": "dynamic",
            "unit": "seconds",
            "smoke": bool(args.smoke),
            "rows": rows,
        }
        json_path.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {json_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
