"""Benchmark: loop vs vectorized gossip engine throughput.

Runs push-sum (the hot protocol behind counting and the Kempe baseline)
under both engines at increasing network sizes and reports rounds/second
and the vectorized speedup.  At every size it first checks that both
engines produce byte-identical estimates on the same round budget (CI
runs ``--sizes 1000 10000``).  Usable standalone::

    PYTHONPATH=src python benchmarks/bench_engine.py --sizes 1000 10000 100000

The loop engine's cost per round is O(n) Python calls, so its round budget
is scaled down at large n to keep the benchmark short; rounds/sec is the
comparable unit either way.
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
from repro.gossip.engine import run_protocol_loop, run_protocol_vectorized
from repro.utils.rand import RandomSource


def _run_engine(runner, n: int, rounds: int, seed: int):
    """Rounds per second for one engine at size ``n``, and its estimates."""
    values = RandomSource(seed).random(n) * 100.0
    protocol = PushSumProtocol(values, rounds=rounds)
    start = time.perf_counter()
    result = runner(protocol, rng=seed, max_rounds=rounds + 1)
    elapsed = time.perf_counter() - start
    assert result.rounds == rounds
    return result.rounds / elapsed, protocol.outputs_array()


def run_benchmark(sizes, seed: int = 0):
    rows = []
    for n in sizes:
        # keep the slow loop engine's wall time bounded at large n
        loop_rounds = max(3, min(30, 300_000 // n))
        vec_rounds = 50
        loop_rps, loop_estimates = _run_engine(run_protocol_loop, n, loop_rounds, seed)
        # the engines must agree byte for byte on the same round budget
        _, vec_estimates = _run_engine(run_protocol_vectorized, n, loop_rounds, seed)
        if loop_estimates.tobytes() != vec_estimates.tobytes():
            raise AssertionError(
                f"n={n}: loop and vectorized push-sum estimates differ"
            )
        vec_rps, _ = _run_engine(run_protocol_vectorized, n, vec_rounds, seed)
        rows.append(
            {
                "n": n,
                "loop_rounds_per_sec": loop_rps,
                "vectorized_rounds_per_sec": vec_rps,
                "speedup": vec_rps / loop_rps,
            }
        )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[1_000, 10_000, 100_000]
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rows = run_benchmark(args.sizes, seed=args.seed)
    header = f"{'n':>9}  {'loop rds/s':>12}  {'vectorized rds/s':>17}  {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['n']:>9}  {row['loop_rounds_per_sec']:>12.1f}  "
            f"{row['vectorized_rounds_per_sec']:>17.1f}  "
            f"{row['speedup']:>7.1f}x"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
