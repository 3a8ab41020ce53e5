"""Benchmark: vectorized gossip engine throughput, checked against asyncio.

Runs push-sum, three tournament plans and an extrema spreading on the
vectorized engine at increasing network sizes and reports rounds/second:

* push-sum, the hot protocol behind counting and the Kempe baseline;
* ``count``: push-sum over ``count_leq``'s centered indicators, the
  float32 (complex64) pairs Step 5 of Algorithm 3 pushes at these sizes;
* tournament plans of 3-round ``TournamentProtocol`` windows, each closed
  by a median-of-three kernel, over 2 and 4 lanes (streamed: each round is
  gathered node-major as it ends) and over 5 lanes (wide: gathered
  lane-major when the window closes), printed as ``pull-L``;
* ``extrema-2``: the exact driver's Step 4, a two-lane min/max spread
  over float32 integer values: ``spread_protocol``'s one-round pull windows on
  ``TournamentProtocol`` (the max lane stored negated, streamed
  node-major), one window per round of the budget.

At every size it first checks that the vectorized engine and its per-node
reference — the asyncio engine over in-process channels — produce
byte-identical results on the same round budget: the float64 and float32
push-sum estimates, each tournament plan's final rows and the float32
extrema outputs (CI runs ``--sizes 1000 10000``).
Usable standalone::

    PYTHONPATH=src python benchmarks/bench_engine.py --sizes 1000 10000 100000

The vectorized rate is the median of ``VECTORIZED_RUNS`` runs of 50 rounds
(48 for the tournament, whole windows), printed with their min–max.  The
asyncio engine's cost per round is O(n) tasks and RPCs, so its one run —
the equivalence reference — has a round budget scaled down at large n to
keep the benchmark short; rounds/sec is the comparable unit either way.
Each size runs in a fresh Python process: run after a smaller size in the
same process, the n = 100 000 rates read about half.
"""

from __future__ import annotations

import argparse
import multiprocessing
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:  # pragma: no cover - environment dependent
    sys.path.insert(0, str(SRC))

import numpy as np

from repro.aggregates.counting import count_indicators
from repro.aggregates.extrema import spread_protocol
from repro.aggregates.push_sum import PushSumProtocol
from repro.core.three_tournament import median_of_three
from repro.core.tournament import STREAM_MAX_LANES, PullWindow, TournamentProtocol, lane_rows
from repro.gossip.engine import run_protocol_vectorized
from repro.net import run_protocol_asyncio
from repro.utils.rand import RandomSource

#: Timed vectorized runs per size and protocol; the rate is their median.
VECTORIZED_RUNS = 5
#: Rounds of one tournament window.
WINDOW_ROUNDS = 3


def _push_sum(n: int, rounds: int, seed: int):
    """A push-sum protocol of ``rounds`` rounds, how to read its result, and
    the rounds it must run."""
    values = RandomSource(seed).random(n) * 100.0
    protocol = PushSumProtocol(values, rounds=rounds)
    return protocol, protocol.outputs_array, rounds


def _count(n: int, rounds: int, seed: int):
    """Push-sum over ``count_leq``'s indicators of a random half of the
    nodes: ±1/2, float32 (complex64 pairs) up to ``COUNT_FLOAT32_MAX_N``
    nodes."""
    indicators = count_indicators(RandomSource(seed).random(n), 0.5)
    protocol = PushSumProtocol(indicators, rounds=rounds)
    return protocol, protocol.outputs_array, rounds


def _tournament(lanes: int):
    """A plan builder: ``lanes`` lanes through ``rounds // 3``
    median-of-three windows (whole windows only, so ``rounds`` rounded
    down to a multiple of 3)."""
    def build(n: int, rounds: int, seed: int):
        values = RandomSource(seed).random((n, lanes)) * 100.0
        windows = [PullWindow(WINDOW_ROUNDS, median_of_three, label="bench-3-pull")]
        count = rounds // WINDOW_ROUNDS
        protocol = TournamentProtocol(lane_rows(values, np.dtype(float)), windows * count)
        return protocol, lambda: protocol.rows, count * WINDOW_ROUNDS

    return build


def _extrema(n: int, rounds: int, seed: int):
    """Two lanes of float32 rank keys 1..n in random node order, spreading
    their min and max for exactly ``rounds`` rounds."""
    source = RandomSource(seed)
    keys = np.column_stack(
        [source.permutation(n) + 1, source.permutation(n) + 1]
    ).astype(np.float32)
    protocol = spread_protocol(keys, mode=("min", "max"), rounds=rounds)
    return protocol, lambda: protocol.rows, rounds


PROTOCOLS = {
    "push-sum": _push_sum,
    "count": _count,
    "pull-2": _tournament(2),
    f"pull-{STREAM_MAX_LANES}": _tournament(STREAM_MAX_LANES),
    f"pull-{STREAM_MAX_LANES + 1}": _tournament(STREAM_MAX_LANES + 1),
    "extrema-2": _extrema,
}


def _run_engine(runner, build, n: int, rounds: int, seed: int):
    """Rounds per second for one engine run at size ``n``, and its result."""
    protocol, result_of, expected = build(n, rounds, seed)
    start = time.perf_counter()
    result = runner(protocol, rng=seed, max_rounds=rounds + 1)
    elapsed = time.perf_counter() - start
    assert result.rounds == expected
    return result.rounds / elapsed, result_of()


def run_benchmark(sizes, seed: int = 0):
    rows = []
    for n in sizes:
        # keep the per-node reference's wall time bounded at large n
        reference_rounds = max(3, min(30, 30_000 // n))
        for name, build in PROTOCOLS.items():
            reference_rps, reference = _run_engine(
                run_protocol_asyncio, build, n, reference_rounds, seed
            )
            # the engines must agree byte for byte on the same round budget
            _, vectorized = _run_engine(
                run_protocol_vectorized, build, n, reference_rounds, seed
            )
            if reference.tobytes() != vectorized.tobytes():
                raise AssertionError(
                    f"n={n}: asyncio and vectorized {name} results differ"
                )
            rates = sorted(
                _run_engine(run_protocol_vectorized, build, n, 50, seed)[0]
                for _ in range(VECTORIZED_RUNS)
            )
            vec_rps = statistics.median(rates)
            rows.append(
                {
                    "n": n,
                    "protocol": name,
                    "asyncio_rounds_per_sec": reference_rps,
                    "vectorized_rounds_per_sec": vec_rps,
                    "vectorized_min": rates[0],
                    "vectorized_max": rates[-1],
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

    rows = []
    for n in args.sizes:
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            rows += pool.apply(run_benchmark, ([n],), {"seed": args.seed})
    header = (
        f"{'n':>9}  {'protocol':<10}  {'asyncio rds/s':>14}  "
        f"{'vectorized rds/s':>17}  {f'min-max of {VECTORIZED_RUNS}':>17}  "
        f"{'speedup':>9}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        spread = f"{row['vectorized_min']:.0f}-{row['vectorized_max']:.0f}"
        print(
            f"{row['n']:>9}  {row['protocol']:<10}  "
            f"{row['asyncio_rounds_per_sec']:>14.1f}  "
            f"{row['vectorized_rounds_per_sec']:>17.1f}  {spread:>17}  "
            f"{row['speedup']:>8.1f}x"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
