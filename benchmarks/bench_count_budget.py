"""Failure-rate table of the push-sum counting budget (Step 5 of Algorithm 3).

For each cell (n, μ) it runs the real :class:`PushSumProtocol` on the
vectorized engine over indicator inputs (a seeded random set of
``round(f n)`` ones, f = 0.5 on even seeds and 0.05 on odd ones) and
records, per seed, the first round at which every node's
``rint(n * estimate)`` equals the true count.  A row gives the
:func:`~repro.aggregates.counting.count_rounds` budget, the median / p99 /
max of that statistic, and the misses: seeds whose count is not exact at
every node after exactly the budget's rounds, which is what
:func:`~repro.aggregates.counting.count_leq` returns.  A seed not exact
within ``1.5 x`` the budget is recorded at that horizon plus one.

The ``fit`` block reads the budget's constants off the table: the
least-squares line of the μ = 0 medians over log₂ n, the exponent ``c``
for which a μ cell's median is the μ = 0 median times ``(1 - μ)**-c``
(the median over the μ cells), and the smallest offset ``b`` for which
``(a log₂ n + b) / (1 - μ)**c`` with the module's ``a`` and ``c`` stays
``MARGIN`` rounds above every cell's maximum.  The
script exits non-zero if a cell misses at its budget or its slowest seed
reaches it, so ``--smoke`` (CI) checks the budget on a reduced grid.
Usable standalone::

    PYTHONPATH=src python benchmarks/bench_count_budget.py           # ~4 min
    PYTHONPATH=src python benchmarks/bench_count_budget.py --smoke
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:  # pragma: no cover - environment dependent
    sys.path.insert(0, str(SRC))

import numpy as np

from repro.aggregates.counting import (
    COUNT_FAILURE_TARGET,
    COUNT_ROUNDS_MU_EXPONENT,
    COUNT_ROUNDS_OFFSET,
    COUNT_ROUNDS_SLOPE,
    count_leq,
    count_rounds,
)
from repro.aggregates.push_sum import PushSumProtocol
from repro.gossip.engine import run_protocol
from repro.gossip.env import GossipEnv
from repro.utils.rand import RandomSource

DEFAULT_JSON = Path(__file__).resolve().parent / "BENCH_count_budget.json"
#: Indicator fractions, alternating over seeds.
FRACTIONS = (0.5, 0.05)
#: (n, μ, seeds) of the full table: ≥ 1000 seeds up to n = 10⁴ without
#: failures and at μ = 0.15, the tail beyond it, and the failure stretch
#: at μ = 0.3 and 0.5.
CELLS = (
    (32, 0.0, 2000),
    (1_000, 0.0, 1000),
    (10_000, 0.0, 1000),
    (100_000, 0.0, 100),
    (1_000_000, 0.0, 20),
    (32, 0.15, 1000),
    (1_000, 0.15, 1000),
    (10_000, 0.15, 1000),
    (100_000, 0.15, 100),
    (1_000, 0.3, 1000),
    (10_000, 0.3, 300),
    (1_000, 0.5, 1000),
    (10_000, 0.5, 300),
)
#: Rounds by which a budget should clear its cell's slowest seed.
MARGIN = 2
SMOKE_CELLS = (
    (32, 0.0, 200),
    (1_000, 0.0, 50),
    (1_000, 0.15, 50),
    (1_000, 0.5, 20),
    (10_000, 0.0, 5),
)


class _ExactProbe(PushSumProtocol):
    """Push-sum that notes the first round its rounded count is exact at
    every node, and whether it is exact after ``budget`` rounds.  It stops
    once it has seen both (or at its round cap)."""

    def __init__(self, indicators: np.ndarray, budget: int, horizon: int) -> None:
        super().__init__(indicators, rounds=horizon)
        self._count = float(indicators.sum())
        self._budget = budget
        self.first_exact = horizon + 1
        self.exact_at_budget = False

    def is_done(self, round_index: int) -> bool:
        if round_index > 0:
            estimates = self.outputs_array() * self.n
            exact = bool(np.all(np.rint(estimates) == self._count))
            if exact and self.first_exact > round_index:
                self.first_exact = round_index
            if round_index == self._budget:
                self.exact_at_budget = exact
            if round_index >= self._budget and self.first_exact <= round_index:
                return True
        return super().is_done(round_index)


def _indicators(n: int, seed: int) -> np.ndarray:
    ones = int(round(FRACTIONS[seed % len(FRACTIONS)] * n))
    indicators = np.zeros(n)
    indicators[RandomSource(seed).permutation(n)[:ones]] = 1.0
    return indicators


def _run_rng(seed: int) -> RandomSource:
    return RandomSource(seed).child()


def _nearest_rank(ordered: np.ndarray, q: float) -> int:
    return int(ordered[max(0, math.ceil(q * ordered.size) - 1)])


def run_cell(n: int, mu: float, seeds: int) -> dict:
    env = GossipEnv(failure_model=mu if mu > 0 else None)
    budget = count_rounds(n, mu)
    horizon = math.ceil(1.5 * budget)
    firsts = np.empty(seeds, dtype=int)
    misses = 0
    start = time.perf_counter()
    for seed in range(seeds):
        indicators = _indicators(n, seed)
        probe = _ExactProbe(indicators, budget, horizon)
        run_protocol(probe, rng=_run_rng(seed), max_rounds=horizon + 1, env=env)
        firsts[seed] = probe.first_exact
        misses += not probe.exact_at_budget
        if seed == 0:
            # the probe's state at the budget is count_leq's result
            result = count_leq(indicators, 0.5, rng=_run_rng(seed), env=env)
            assert result.rounds == budget, (result.rounds, budget)
            assert result.exact == probe.exact_at_budget, (n, mu)
    firsts.sort()
    return {
        "n": n,
        "mu": mu,
        "seeds": seeds,
        "budget": budget,
        "median": float(np.median(firsts)),
        "p99": _nearest_rank(firsts, 0.99),
        "max": int(firsts[-1]),
        "misses": misses,
        "wall_s": time.perf_counter() - start,
    }


def fit(rows) -> dict:
    """The budget's constants as the table implies them."""
    clean = {row["n"]: row["median"] for row in rows if row["mu"] == 0.0}
    slope, intercept = np.polyfit(
        [math.log2(n) for n in clean], list(clean.values()), 1
    )
    exponents = [
        math.log(row["median"] / clean[row["n"]]) / -math.log(1.0 - row["mu"])
        for row in rows if row["mu"] > 0.0 and row["n"] in clean
    ]
    needed = max(
        (row["max"] + MARGIN) * (1.0 - row["mu"]) ** COUNT_ROUNDS_MU_EXPONENT
        - COUNT_ROUNDS_SLOPE * math.log2(row["n"])
        for row in rows
    )
    return {
        "median_slope": round(float(slope), 3),
        "median_intercept": round(float(intercept), 3),
        "median_mu_exponent": round(float(np.median(exponents)), 3),
        "slope": COUNT_ROUNDS_SLOPE,
        "mu_exponent": COUNT_ROUNDS_MU_EXPONENT,
        "offset": COUNT_ROUNDS_OFFSET,
        "offset_needed": round(float(needed), 3),
        "margin": MARGIN,
        "failure_target": COUNT_FAILURE_TARGET,
    }


def write_json(rows, path: Path, smoke: bool) -> None:
    payload = {
        "benchmark": "count_budget",
        "unit": "rounds",
        "smoke": smoke,
        "fractions": list(FRACTIONS),
        "fit": fit(rows),
        "rows": rows,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--json", type=Path, default=None,
        help=f"output path (default: {DEFAULT_JSON.name}, or a .smoke.json "
             "sibling under --smoke so the checked-in table survives)",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="reduced CI grid",
    )
    args = parser.parse_args(argv)
    cells = SMOKE_CELLS if args.smoke else CELLS
    default = DEFAULT_JSON.with_suffix(".smoke.json") if args.smoke else DEFAULT_JSON

    header = (
        f"{'n':>9}  {'mu':>4}  {'seeds':>5}  {'budget':>6}  {'median':>6}  "
        f"{'p99':>4}  {'max':>4}  {'misses':>6}"
    )
    print(header)
    print("-" * len(header))
    rows = []
    for n, mu, seeds in cells:
        row = run_cell(n, mu, seeds)
        rows.append(row)
        print(
            f"{n:>9}  {mu:>4.2f}  {seeds:>5}  {row['budget']:>6}  "
            f"{row['median']:>6.1f}  {row['p99']:>4}  {row['max']:>4}  "
            f"{row['misses']:>6}",
            flush=True,
        )
    write_json(rows, args.json or default, smoke=args.smoke)
    failed = [row for row in rows if row["misses"] or row["max"] >= row["budget"]]
    for row in failed:
        print(f"budget not cleared: {row}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
