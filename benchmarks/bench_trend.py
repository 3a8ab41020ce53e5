"""Trend check: diff checked-in ``BENCH_*.json`` trajectories across PRs.

Every perf-bearing PR checks in machine-readable benchmark trajectories
(``benchmarks/BENCH_*.json``).  This script compares the current files
against a baseline — by default the previous git commit
(``git show HEAD~1:benchmarks/BENCH_x.json``), or any directory via
``--baseline`` — and exits non-zero when a matching row regressed by more
than ``--threshold`` (default 1.5×).

Rows are matched on their identity keys (everything that is not a metric:
``n``, ``engine``, ``scenario``, ...).  Metrics come in two flavours:

* lower-is-better — ``wall_s``, ``rounds``, ``phases``, ``slowdown*``
  and the RPC latency quantiles ``rpc_p50_us`` / ``rpc_p99_us``:
  regression when ``current > threshold * baseline``;
* higher-is-better — ``*_per_sec``, ``speedup*``: regression when
  ``current < baseline / threshold``.

Checked-in trajectories are regenerated on the maintainer's machine each
perf-bearing PR, so counts, ratios (``speedup*``) and throughput
rates (``*_per_sec``) are comparable across commits and gate the exit
code by default.  Raw ``wall_s`` seconds duplicate the rate information
and are the noisiest metric, so they gate only with ``--include-wall``,
and so do the RPC latency quantiles, which are wall-clock readings too.
Files or rows without a baseline counterpart are reported and skipped —
a new benchmark cannot fail the check — and so are baseline rows that no
current row matches (a retired row, such as the exact benchmark's float32
rows after the driver made float32 keys its only path).

Usage::

    PYTHONPATH=src python benchmarks/bench_trend.py               # vs HEAD~1
    python benchmarks/bench_trend.py --baseline /tmp/old-bench --include-wall
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent

#: Metric key patterns, by direction.
LOWER_IS_BETTER = ("wall_s", "rounds", "phases", "rpc_p50_us", "rpc_p99_us")
LOWER_IS_BETTER_PREFIXES = ("slowdown",)
HIGHER_IS_BETTER_SUFFIXES = ("_per_sec",)
HIGHER_IS_BETTER_PREFIXES = ("speedup",)
#: Wall-clock metrics are machine-dependent; gated only with --include-wall.
WALL_CLOCK = ("wall_s", "rpc_p50_us", "rpc_p99_us")
#: Numeric keys that are neither identity nor gated metrics.
#: ``rounds_per_logn`` duplicates the gated ``rounds`` metric and would
#: otherwise act as an identity key, breaking row matching whenever the
#: round count legitimately moves.
IGNORED = (
    "mass_rel_error",
    "rank_error",
    "max_rank_error",
    "f32_parity",
    "rounds_per_logn",
    # retired identity column: exact rows used to carry the driver's
    # fidelity mode; ignoring it lets rows written without it keep
    # matching the checked-in ones that still have it.
    "fidelity",
    # exact rows: seeded retry counts by cause (their sum, ``retries``, is
    # already in the rows); as identity keys they would stop rows written
    # before the split from matching.  ``iterations`` moves whenever the
    # driver's ε does, which would unmatch every row the gated ``rounds``
    # should be compared on.
    "sandwich_retries",
    "final_retries",
    "iterations",
    # self-rank accuracy columns: seeded error statistics, not perf metrics
    # — and not identity keys, or row matching would break on jitter.
    "mean_error",
    "p95_error",
    "fraction_within_2eps",
    # bench_obs diagnostics: machine-dependent instrumentation counts and
    # timings.  The gated overhead metrics are the slowdown* columns.
    "spans",
    "events",
    "hook_rounds",
    "null_span_ns",
    "projected_overhead_frac",
    # bench_robustness diagnostics: seeded fault/degradation statistics,
    # not perf metrics — and queries_per_sec times a handful of
    # microsecond-scale lookups, far too noisy to gate.
    "degraded_rate",
    "chunks_ratio",
    "rebuild_attempts",
    "injected_faults",
    "answered_fraction",
    "queries_per_sec",
)


def _metric_direction(key: str) -> Optional[str]:
    """"lower"/"higher" for gated metrics, None for identity/ignored keys."""
    if key in IGNORED:
        return None
    if key in LOWER_IS_BETTER or key.startswith(LOWER_IS_BETTER_PREFIXES):
        return "lower"
    if key.endswith(HIGHER_IS_BETTER_SUFFIXES) or key.startswith(
        HIGHER_IS_BETTER_PREFIXES
    ):
        return "higher"
    return None


def _identity(row: Dict) -> Tuple:
    """Hashable identity of a row: every non-metric, non-ignored field."""
    return tuple(
        sorted(
            (key, value)
            for key, value in row.items()
            if _metric_direction(key) is None and key not in IGNORED
        )
    )


def _load_current(directory: Path) -> Dict[str, Dict]:
    return {
        path.name: json.loads(path.read_text())
        for path in sorted(directory.glob("BENCH_*.json"))
    }


def _load_git_baseline(ref: str, names) -> Tuple[Dict[str, Dict], List[str]]:
    """Fetch each benchmark file as it existed at ``ref``; skip absentees."""
    baseline: Dict[str, Dict] = {}
    notes: List[str] = []
    for name in names:
        proc = subprocess.run(
            ["git", "show", f"{ref}:benchmarks/{name}"],
            cwd=REPO_ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            notes.append(f"{name}: not present at {ref} (new benchmark)")
            continue
        baseline[name] = json.loads(proc.stdout)
    return baseline, notes


def compare(
    baseline: Dict[str, Dict],
    current: Dict[str, Dict],
    threshold: float,
    include_wall: bool,
) -> Tuple[List[str], List[str]]:
    """Return (regressions, notes) comparing matching rows of each file."""
    regressions: List[str] = []
    notes: List[str] = []
    for name, cur in sorted(current.items()):
        base = baseline.get(name)
        if base is None:
            continue
        base_rows = {_identity(row): row for row in base.get("rows", [])}
        matched = 0
        seen = set()
        for row in cur.get("rows", []):
            ref = base_rows.get(_identity(row))
            if ref is None:
                continue
            matched += 1
            seen.add(_identity(row))
            for key, value in row.items():
                direction = _metric_direction(key)
                if direction is None or key not in ref:
                    continue
                if key in WALL_CLOCK and not include_wall:
                    continue
                old = float(ref[key])
                new = float(value)
                if old <= 0 or new <= 0:
                    continue
                ratio = new / old if direction == "lower" else old / new
                if ratio > threshold:
                    ident = {
                        k: v for k, v in row.items()
                        if _metric_direction(k) is None and k not in IGNORED
                        and not isinstance(v, (list, dict))
                    }
                    regressions.append(
                        f"{name} {ident}: {key} {old:.6g} -> {new:.6g} "
                        f"({ratio:.2f}x worse, threshold {threshold}x)"
                    )
        notes.append(f"{name}: compared {matched} matching row(s)")
        retired = len(base_rows) - len(seen)
        if retired:
            notes.append(
                f"{name}: skipped {retired} baseline row(s) with no current "
                "counterpart (retired)"
            )
    return regressions, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help="directory holding baseline BENCH_*.json files "
             "(default: read them from git at --baseline-git)",
    )
    parser.add_argument(
        "--baseline-git", default="HEAD~1",
        help="git ref to read baselines from when --baseline is not given",
    )
    parser.add_argument(
        "--current", type=Path, default=BENCH_DIR,
        help="directory holding the current BENCH_*.json files",
    )
    parser.add_argument("--threshold", type=float, default=1.5)
    parser.add_argument(
        "--include-wall", action="store_true",
        help="also gate on machine-dependent wall-clock metrics",
    )
    args = parser.parse_args(argv)

    current = _load_current(args.current)
    if not current:
        print(f"bench-trend: no BENCH_*.json files under {args.current}; nothing to check")
        return 0

    if args.baseline is not None:
        baseline = _load_current(args.baseline)
        notes: List[str] = []
    else:
        baseline, notes = _load_git_baseline(args.baseline_git, current.keys())
        if not baseline and not notes:
            print(
                f"bench-trend: could not read any baseline at "
                f"{args.baseline_git}; skipping (shallow clone?)"
            )
            return 0

    regressions, compare_notes = compare(
        baseline, current, args.threshold, args.include_wall
    )
    for note in notes + compare_notes:
        print(f"bench-trend: {note}")
    if regressions:
        print(f"bench-trend: {len(regressions)} regression(s) > {args.threshold}x:")
        for line in regressions:
            print(f"  REGRESSION {line}")
        return 1
    print("bench-trend: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
