"""Benchmark: vectorized gossip engine throughput, checked against asyncio.

Runs push-sum (the hot protocol behind counting and the Kempe baseline) on
the vectorized engine at increasing network sizes and reports
rounds/second.  At every size it first checks that the vectorized engine
and its per-node reference — the asyncio engine over in-process channels —
produce byte-identical estimates on the same round budget (CI runs
``--sizes 1000 10000``).  Usable standalone::

    PYTHONPATH=src python benchmarks/bench_engine.py --sizes 1000 10000 100000

The asyncio engine's cost per round is O(n) tasks and RPCs, so its round
budget is scaled down at large n to keep the benchmark short; rounds/sec
is the comparable unit either way.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:  # pragma: no cover - environment dependent
    sys.path.insert(0, str(SRC))

from repro.aggregates.push_sum import PushSumProtocol
from repro.gossip.engine import run_protocol_vectorized
from repro.net import run_protocol_asyncio
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
        # keep the per-node reference's wall time bounded at large n
        reference_rounds = max(3, min(30, 30_000 // n))
        vec_rounds = 50
        reference_rps, reference_estimates = _run_engine(
            run_protocol_asyncio, n, reference_rounds, seed
        )
        # the engines must agree byte for byte on the same round budget
        _, vec_estimates = _run_engine(
            run_protocol_vectorized, n, reference_rounds, seed
        )
        if reference_estimates.tobytes() != vec_estimates.tobytes():
            raise AssertionError(
                f"n={n}: asyncio and vectorized push-sum estimates differ"
            )
        vec_rps, _ = _run_engine(run_protocol_vectorized, n, vec_rounds, seed)
        rows.append(
            {
                "n": n,
                "asyncio_rounds_per_sec": reference_rps,
                "vectorized_rounds_per_sec": vec_rps,
                "speedup": vec_rps / reference_rps,
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
    header = f"{'n':>9}  {'asyncio rds/s':>14}  {'vectorized rds/s':>17}  {'speedup':>9}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['n']:>9}  {row['asyncio_rounds_per_sec']:>14.1f}  "
            f"{row['vectorized_rounds_per_sec']:>17.1f}  "
            f"{row['speedup']:>8.1f}x"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
