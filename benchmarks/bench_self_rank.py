"""E5 benchmark — Corollary 1.5: the one-pass all-quantiles grid.

Times the whole ``ceil(1/eps) - 1``-target self-rank grid executed three
ways:

* ``sequential``: the single-lane reference (``max_lanes=1``), one
  tournament per grid target, whose round count carries the corollary's
  ``1/eps`` factor;
* ``fused``: the grid column-stacked into lane-chunked multi-lane
  tournaments (one shared partner matrix per round, per-lane ``(phi, eps)``
  schedules, rounds = max-of-lanes per chunk);
* ``fused-f32``: the same fused pass with float32 value lanes.

Emits ``BENCH_selfrank.json`` (mode, n, eps, grid size, rounds, wall time,
fused-over-sequential speedups in both rounds and wall clock) so the repo
carries the one-pass trajectory across PRs; ``bench_trend.py`` gates the
``rounds`` and ``speedup*`` columns against HEAD~1.  Usable standalone::

    PYTHONPATH=src python benchmarks/bench_self_rank.py --sizes 10000 100000

``--smoke`` runs a reduced grid asserting self-rank accuracy and the fused
round advantage; CI runs it on every push.
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

from repro.core.all_quantiles import estimate_all_ranks, true_self_quantiles
from repro.gossip.env import GossipEnv
from repro.utils.rand import RandomSource

DEFAULT_JSON = Path(__file__).resolve().parent / "BENCH_selfrank.json"
DEFAULT_SIZES = (10_000, 100_000)
#: The acceptance grid: eps = 0.05 -> 19 targets, one 19-lane fused chunk.
EPS = 0.05

MODES = ("sequential", "fused", "fused-f32")


def _values(n: int, seed: int) -> np.ndarray:
    return RandomSource(seed).random(n) * 100.0


def _run_mode(values: np.ndarray, mode: str, seed: int):
    # "sequential" is the single-lane reference: one tournament per target
    kwargs = {"max_lanes": 1} if mode == "sequential" else {}
    if mode == "fused-f32":
        kwargs["env"] = GossipEnv(dtype="float32")
    start = time.perf_counter()
    result = estimate_all_ranks(values, eps=EPS, rng=seed, **kwargs)
    wall = time.perf_counter() - start
    return result, wall


def run_benchmark(sizes, seed: int = 1):
    """Three rows per n: sequential grid, fused grid, fused float32 grid."""
    rows = []
    for n in sizes:
        values = _values(n, seed)
        truth = true_self_quantiles(values)
        baseline = None
        for mode in MODES:
            result, wall = _run_mode(values, mode, seed + 1)
            errors = np.abs(result.quantile_estimates - truth)
            row = {
                "mode": mode,
                "n": n,
                "eps": EPS,
                "grid": int(result.grid.size),
                "chunks": result.chunks,
                "rounds": result.rounds,
                "wall_s": wall,
                "mean_error": float(errors.mean()),
                "max_rank_error": float(errors.max()),
                "fraction_within_2eps": float(np.mean(errors <= 2 * EPS)),
            }
            if mode == "sequential":
                baseline = row
            else:
                row["speedup_vs_sequential"] = baseline["wall_s"] / wall
                row["speedup_rounds"] = baseline["rounds"] / result.rounds
            rows.append(row)
    return rows


def write_json(rows, path: Path, smoke: bool) -> None:
    payload = {
        "benchmark": "self_rank_all_quantiles",
        "unit": "seconds",
        "smoke": smoke,
        "rows": rows,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path}")


def check_rows(rows) -> None:
    """Shared assertions: accuracy within the corollary's bound, fused
    rounds strictly below the sequential sum."""
    by_key = {(row["mode"], row["n"]): row for row in rows}
    for (mode, n), row in by_key.items():
        assert row["fraction_within_2eps"] > 0.9, row
        assert row["mean_error"] <= 2 * EPS, row
        if mode.startswith("fused"):
            sequential = by_key[("sequential", n)]
            # the fused grid *executes* max-of-lanes rounds per chunk:
            # strictly fewer than the sequential sum over grid targets
            assert row["rounds"] < sequential["rounds"], (row, sequential)


def smoke(json_path: Path, seed: int = 1) -> int:
    rows = run_benchmark(sizes=(2048, 8192), seed=seed)
    check_rows(rows)
    write_json(rows, json_path, smoke=True)
    for row in rows:
        print(
            f"smoke: n={row['n']:>6} {row['mode']:<11} "
            f"{row['rounds']:>5} rounds in {row['wall_s']:.3f}s"
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
    header = (
        f"{'n':>9}  {'mode':<11}  {'wall':>9}  {'rounds':>7}  "
        f"{'speedup':>8}  {'rounds x':>8}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        speedup = row.get("speedup_vs_sequential")
        rounds_x = row.get("speedup_rounds")
        speedup_text = f"{speedup:>7.2f}x" if speedup else f"{'—':>8}"
        rounds_text = f"{rounds_x:>7.2f}x" if rounds_x else f"{'—':>8}"
        print(
            f"{row['n']:>9}  {row['mode']:<11}  {row['wall_s']:>8.3f}s  "
            f"{row['rounds']:>7}  {speedup_text}  {rounds_text}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
