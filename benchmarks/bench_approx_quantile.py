"""E2 benchmark — Theorem 1.2 / Algorithm 3 Step 3: the ε/2 sandwich pair.

Times the exact-quantile driver's sandwich workload — the lower and upper
ε/2-approximate quantiles around a target rank — executed two ways:

* ``sequential``: two single-lane :func:`approximate_quantile` runs, the
  pre-fusion execution (the pair used to be *charged* max-of-pair rounds
  but executed back to back);
* ``fused``: one two-lane tournament run (:mod:`repro.core.tournament`)
  — one partner draw per round shared across lanes, per-lane schedules,
  rounds = max(pair) by construction.  A ``fused-f32`` variant additionally runs the lanes in
  float32 (exact for integer values below 2²⁴).

Emits ``BENCH_approx.json`` (mode, n, rounds, wall time, speedup of the
fused path over the sequential pair) so the repo carries the sandwich
trajectory across PRs; ``bench_trend.py`` gates the ``rounds`` and
``speedup*`` columns against HEAD~1.  Usable standalone::

    PYTHONPATH=src python benchmarks/bench_approx_quantile.py --sizes 10000 100000

``--smoke`` runs a reduced grid asserting the fused path's rank accuracy
and round advantage; CI runs it on every push.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:  # pragma: no cover - environment dependent
    sys.path.insert(0, str(SRC))

import numpy as np

from repro.core.approx_quantile import approximate_quantile
from repro.gossip.env import GossipEnv
from repro.utils.stats import rank_error

DEFAULT_JSON = Path(__file__).resolve().parent / "BENCH_approx.json"
DEFAULT_SIZES = (10_000, 100_000, 1_000_000)
#: The exact driver's per-iteration sandwich at its ε cap: eps/2 accuracy
#: around phi ± eps/2.  The driver uses this ε up to n = 512 and a smaller one
#: above (1/64 at n = 10⁴, 1/256 at n = 10⁶; see
#: repro.core.exact_quantile.default_iteration_eps); the rows keep the cap so
#: the trajectory stays comparable across commits.
EPS = 0.0625
PHI = 0.5
#: Runs per mode on the full grid; ``wall_s`` is their median.
REPEATS = 5


def _keys(n: int) -> np.ndarray:
    """Rank keys 1..n — the exact driver's item space."""
    return np.arange(1.0, n + 1.0)


def run_benchmark(sizes, seed: int = 1, repeats: int = REPEATS):
    """Three rows per n: sequential pair, fused pair, fused float32 pair.

    Each mode runs ``repeats`` times, the modes interleaved so machine
    drift hits them alike; ``wall_s`` is the median run.
    """
    phi_lo = PHI - EPS / 2.0
    phi_hi = PHI + EPS / 2.0
    accuracy = EPS / 2.0
    rows = []
    for n in sizes:
        keys = _keys(n)
        stacked = np.stack([keys, keys], axis=1)
        runs = {
            "sequential": lambda: (
                approximate_quantile(keys, phi=phi_lo, eps=accuracy, rng=seed),
                approximate_quantile(
                    keys, phi=phi_hi, eps=accuracy, rng=seed + 1
                ),
            ),
            "fused": lambda: approximate_quantile(
                stacked, phi=(phi_lo, phi_hi), eps=accuracy, rng=seed + 2
            ),
            "fused-f32": lambda: approximate_quantile(
                stacked, phi=(phi_lo, phi_hi), eps=accuracy, rng=seed + 2,
                env=GossipEnv(dtype="float32"),
            ),
        }
        walls = {mode: [] for mode in runs}
        results = {}
        for _ in range(repeats):
            for mode, call in runs.items():
                start = time.perf_counter()
                results[mode] = call()
                walls[mode].append(time.perf_counter() - start)
        lo, hi = results["sequential"]
        fused = results["fused"]
        fused32 = results["fused-f32"]
        wall_sequential = statistics.median(walls["sequential"])
        wall_fused = statistics.median(walls["fused"])
        wall_fused32 = statistics.median(walls["fused-f32"])
        sequential_rounds = lo.rounds + hi.rounds

        errors = {
            "sequential": max(
                rank_error(keys, lo.estimate, phi_lo),
                rank_error(keys, hi.estimate, phi_hi),
            ),
            "fused": max(
                rank_error(keys, float(fused.estimate[0]), phi_lo),
                rank_error(keys, float(fused.estimate[1]), phi_hi),
            ),
            "fused-f32": max(
                rank_error(keys, float(fused32.estimate[0]), phi_lo),
                rank_error(keys, float(fused32.estimate[1]), phi_hi),
            ),
        }
        rows.append(
            {
                "mode": "sequential", "n": n, "eps": EPS,
                "rounds": sequential_rounds, "wall_s": wall_sequential,
                "max_rank_error": errors["sequential"],
            }
        )
        rows.append(
            {
                "mode": "fused", "n": n, "eps": EPS,
                "rounds": fused.rounds, "wall_s": wall_fused,
                "max_rank_error": errors["fused"],
                "speedup_vs_sequential": wall_sequential / wall_fused,
            }
        )
        rows.append(
            {
                "mode": "fused-f32", "n": n, "eps": EPS,
                "rounds": fused32.rounds, "wall_s": wall_fused32,
                "max_rank_error": errors["fused-f32"],
                "speedup_vs_sequential": wall_sequential / wall_fused32,
            }
        )
    return rows


def write_json(rows, path: Path, smoke: bool) -> None:
    payload = {
        "benchmark": "approx_quantile_sandwich",
        "unit": "seconds",
        "smoke": smoke,
        "rows": rows,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path}")


def check_rows(rows) -> None:
    """Shared assertions: accuracy within eps, fused rounds = max-of-pair."""
    by_key = {(row["mode"], row["n"]): row for row in rows}
    for (mode, n), row in by_key.items():
        assert row["max_rank_error"] <= EPS, row
        if mode.startswith("fused"):
            sequential = by_key[("sequential", n)]
            # the fused pair *executes* max-of-pair rounds: strictly fewer
            # than the sequential pair's sum
            assert row["rounds"] < sequential["rounds"], (row, sequential)


def smoke(json_path: Path, seed: int = 1) -> int:
    rows = run_benchmark(sizes=(4096, 16384), seed=seed, repeats=1)
    check_rows(rows)
    write_json(rows, json_path, smoke=True)
    for row in rows:
        print(
            f"smoke: n={row['n']:>6} {row['mode']:<10} "
            f"{row['rounds']:>4} rounds in {row['wall_s']:.3f}s"
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=list(DEFAULT_SIZES))
    parser.add_argument(
        "--json", type=Path, default=None,
        help=f"output path (default: {DEFAULT_JSON.name}, or a .smoke.json "
             "sibling under --smoke so the checked-in trajectory survives)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced CI grid with accuracy and round assertions",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        json_path = args.json or DEFAULT_JSON.with_suffix(".smoke.json")
        return smoke(json_path, seed=args.seed)
    if args.json is None:
        args.json = DEFAULT_JSON

    rows = run_benchmark(args.sizes, seed=args.seed)
    check_rows(rows)
    write_json(rows, args.json, smoke=False)
    header = f"{'n':>9}  {'mode':<11}  {'wall':>9}  {'rounds':>7}  {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for row in rows:
        speedup = row.get("speedup_vs_sequential")
        speedup_text = f"{speedup:>7.2f}x" if speedup else f"{'—':>8}"
        print(
            f"{row['n']:>9}  {row['mode']:<11}  {row['wall_s']:>8.3f}s  "
            f"{row['rounds']:>7}  {speedup_text}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
