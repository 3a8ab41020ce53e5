"""E1 benchmark — Theorem 1.1: the fully simulated exact-quantile path.

Times :func:`repro.core.exact_quantile.exact_quantile` — every
sub-protocol (tournaments, extrema, counting, token duplication) executed
on the vectorized substrates, the Step-3 sandwich and Step-4 min/max
spreadings fused into multi-lane runs — and emits a machine-readable
``BENCH_exact.json`` (n, rounds, wall time, exactness) so the repo
carries a perf trajectory across PRs.  The inputs are distinct integers,
which the driver gossips in float32 below 2²⁴ nodes, so there is one row
per n.  The headline numbers:
the fused path is ≥ 2x the pre-fusion wall clock at n = 10⁵, and
n = 10⁶ completes single-threaded.  Usable standalone::

    PYTHONPATH=src python benchmarks/bench_exact_quantile.py --sizes 10000 100000

``--smoke`` runs a reduced grid asserting exactness end to end; CI runs it
on every push.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:  # pragma: no cover - environment dependent
    sys.path.insert(0, str(SRC))

from repro.experiments.exact_scale import run as run_exact_scale

DEFAULT_JSON = Path(__file__).resolve().parent / "BENCH_exact.json"


def run_benchmark(sizes, phi: float = 0.5, seed: int = 1):
    """One row per n: wall time, rounds, exactness.

    Delegates the measurement to the ``exact-scale`` experiment (one trial
    per n) so the benchmark and the experiment cannot drift apart; this
    script only owns the JSON/assertion layer.
    """
    return run_exact_scale(sizes=tuple(sizes), phis=(phi,), trials=1, seed=seed)


def write_json(rows, path: Path, smoke: bool) -> None:
    payload = {
        "benchmark": "exact_quantile",
        "unit": "seconds",
        "smoke": smoke,
        "rows": rows,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path}")


def smoke(json_path: Path, seed: int = 1) -> int:
    """Reduced CI grid: the exact path must stay exact and fast."""
    rows = run_benchmark(sizes=(2048, 8192), seed=seed)
    for row in rows:
        assert row["correct"] == 1, row
        assert row["wall_s"] < 30.0, row
    write_json(rows, json_path, smoke=True)
    for row in rows:
        print(
            f"smoke: n={row['n']:>6} exact in {row['wall_s']:.2f}s "
            f"({row['rounds']:.0f} rounds, correct)"
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[10_000, 100_000])
    parser.add_argument("--phi", type=float, default=0.5)
    parser.add_argument(
        "--json", type=Path, default=None,
        help=f"output path (default: {DEFAULT_JSON.name}, or a .smoke.json "
             "sibling under --smoke so the checked-in trajectory survives)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced CI grid with exactness assertions",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        json_path = args.json or DEFAULT_JSON.with_suffix(".smoke.json")
        return smoke(json_path, seed=args.seed)
    if args.json is None:
        args.json = DEFAULT_JSON

    rows = run_benchmark(args.sizes, phi=args.phi, seed=args.seed)
    for row in rows:
        assert row["correct"] == 1, f"exact quantile missed at n={row['n']}"
    write_json(rows, args.json, smoke=False)
    header = f"{'n':>9}  {'wall':>9}  {'rounds':>7}  {'correct':>7}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['n']:>9}  {row['wall_s']:>8.2f}s  "
            f"{row['rounds']:>7.0f}  {row['correct']:>7.0f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
