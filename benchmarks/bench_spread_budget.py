"""Failure-rate table of the extrema spreading budget (Step 4 of Algorithm 3).

For each cell (n, μ) it runs the real spread — the one-round pull windows
of :func:`~repro.aggregates.extrema.spread_protocol` on
:class:`~repro.core.tournament.TournamentProtocol`, on the vectorized
engine — over two float32 lanes of rank keys 1..n in independent seeded
random node orders, a min lane and a max lane as in the exact driver's
Step 4, so each lane's extreme starts at one holder.  It records, per
seed, the first round at which both lanes' extremes have reached every
node.  A row gives the :func:`~repro.aggregates.extrema.spread_rounds`
budget, the median / p99 / max of that statistic and the misses (seeds
whose spread has not reached every node after exactly the budget's rounds,
which is what :func:`~repro.aggregates.extrema.spread_extrema` returns).
A seed not done within ``1.5 x`` the budget is recorded at that horizon
plus one.

The ``fit`` block reads the budget's constants off the table, as
``bench_count_budget.py`` does: the least-squares line of the μ = 0
medians over log₂ n, the exponent ``c`` for which a μ cell's median is
the μ = 0 median times ``(1 - μ)**-c`` (the median over the μ cells), and
the smallest offset ``b`` for which ``(a log₂ n + b) / (1 - μ)**c`` with
the module's ``a`` and ``c`` stays ``MARGIN`` rounds above every cell's
maximum.  The script exits non-zero if a cell misses at its budget or its
slowest seed reaches it, so ``--smoke`` (CI) checks the budget on a
reduced grid.  Usable standalone::

    PYTHONPATH=src python benchmarks/bench_spread_budget.py           # ~5 min
    PYTHONPATH=src python benchmarks/bench_spread_budget.py --smoke
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

from repro.aggregates.extrema import (
    SPREAD_ROUNDS_MU_EXPONENT,
    SPREAD_ROUNDS_OFFSET,
    SPREAD_ROUNDS_SLOPE,
    spread_extrema,
    spread_protocol,
    spread_rounds,
)
from repro.gossip.engine import run_protocol
from repro.gossip.env import GossipEnv
from repro.utils.rand import RandomSource

DEFAULT_JSON = Path(__file__).resolve().parent / "BENCH_spread_budget.json"
#: The lanes of every run: Step 4's lower and upper sandwich sides.
MODES = ("min", "max")
#: (n, μ, seeds) of the full table: ≥ 1000 seeds up to n = 10⁴ at every
#: μ, the tail at 10⁵ and 10⁶ without failures and at μ = 0.15, and the
#: 10⁶-node stretch at μ = 0.5.
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
    (1_000_000, 0.15, 12),
    (1_000, 0.3, 1000),
    (10_000, 0.3, 1000),
    (1_000, 0.5, 1000),
    (10_000, 0.5, 1000),
    (1_000_000, 0.5, 12),
)
#: Rounds by which a budget should clear its cell's slowest seed.
MARGIN = 2
SMOKE_CELLS = (
    (32, 0.0, 200),
    (1_000, 0.0, 100),
    (1_000, 0.15, 50),
    (1_000, 0.5, 50),
    (10_000, 0.0, 20),
)


def _values(n: int, seed: int) -> np.ndarray:
    """Two lanes of float32 rank keys 1..n in independent random node
    orders, as ``(n, 2)``: each lane's extreme is held by one node."""
    source = RandomSource(seed)
    return np.column_stack(
        [source.permutation(n) + 1 for _ in MODES]
    ).astype(np.float32)


def _run_rng(seed: int) -> RandomSource:
    return RandomSource(seed).child()


def _nearest_rank(ordered: np.ndarray, q: float) -> int:
    return int(ordered[max(0, math.ceil(q * ordered.size) - 1)])


def _probe(values: np.ndarray, env: GossipEnv, seed: int, budget: int, horizon: int):
    """(first round at which every node holds both extremes, whether they
    did after ``budget`` rounds): the spread's rows read after each round,
    stopping once both are known."""
    protocol = spread_protocol(values, mode=MODES, rounds=horizon, env=env)
    target = protocol.rows.min(axis=1, keepdims=True)
    first, at_budget = horizon + 1, False

    class _Stop(Exception):
        pass

    def observe(record, elapsed) -> None:
        nonlocal first, at_budget
        done = bool(np.all(protocol.rows == target))
        rounds = record.round_index + 1
        if done and first > rounds:
            first = rounds
        if rounds == budget:
            at_budget = done
        if rounds >= budget and first <= rounds:
            raise _Stop

    try:
        run_protocol(protocol, rng=_run_rng(seed), max_rounds=horizon,
                     on_round=observe, env=env)
    except _Stop:
        pass
    return first, at_budget


def run_cell(n: int, mu: float, seeds: int) -> dict:
    env = GossipEnv(failure_model=mu if mu > 0 else None)
    budget = spread_rounds(n, mu)
    horizon = math.ceil(1.5 * budget)
    firsts = np.empty(seeds, dtype=int)
    misses = 0
    start = time.perf_counter()
    for seed in range(seeds):
        values = _values(n, seed)
        firsts[seed], done = _probe(values, env, seed, budget, horizon)
        misses += not done
        if seed == 0:
            # the probe's state at the budget is spread_extrema's result
            result = spread_extrema(values, mode=MODES, rng=_run_rng(seed), env=env)
            assert result.rounds == budget, (result.rounds, budget)
            assert result.converged == done, (n, mu)
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
        (row["max"] + MARGIN) * (1.0 - row["mu"]) ** SPREAD_ROUNDS_MU_EXPONENT
        - SPREAD_ROUNDS_SLOPE * math.log2(row["n"])
        for row in rows
    )
    return {
        "median_slope": round(float(slope), 3),
        "median_intercept": round(float(intercept), 3),
        "median_mu_exponent": round(float(np.median(exponents)), 3),
        "slope": SPREAD_ROUNDS_SLOPE,
        "mu_exponent": SPREAD_ROUNDS_MU_EXPONENT,
        "offset": SPREAD_ROUNDS_OFFSET,
        "offset_needed": round(float(needed), 3),
        "margin": MARGIN,
    }


def write_json(rows, path: Path, smoke: bool) -> None:
    payload = {
        "benchmark": "spread_budget",
        "unit": "rounds",
        "smoke": smoke,
        "modes": list(MODES),
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
