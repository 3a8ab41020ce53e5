"""Observability overhead benchmark — the no-op tracer must be ~free.

The tracing layer (:mod:`repro.obs`) keeps its instrumentation *enabled*
at every call site and relies on the ambient :data:`NULL_TRACER` being
allocation-free on the hot path.  This benchmark guards that contract on
the hardest workload the repo ships — the fully simulated exact-quantile
driver — three ways:

* ``noop``: end-to-end wall of the simulated exact path with the default
  null tracer (min over repeats);
* ``traced``: the same seeded run under a real :class:`Tracer` — asserts
  the returned quantile and round count are identical (tracing reads
  state, never the RNG) and reports the real-tracer slowdown;
* ``overhead``: a microbenchmark of the null span enter/exit (the exact
  instrumented call-site pattern) times the traced run's span/event count
  to project ``slowdown_noop`` — the null-tracer overhead the instrumented
  sites add to an untraced run.  Asserted ``< 1.03`` (the PR's acceptance
  bound).

Emits ``BENCH_obs.json``; ``bench_trend.py`` gates ``rounds`` and the
``slowdown*`` columns against HEAD~1.  Usable standalone::

    PYTHONPATH=src python benchmarks/bench_obs.py --sizes 100000

``--smoke`` runs n = 10⁴ with the same assertions; CI runs it on every
push.
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

from repro.core.exact_quantile import exact_quantile
from repro.obs.tracer import NULL_TRACER, Tracer, get_tracer, use_tracer
from repro.utils.rand import RandomSource

DEFAULT_JSON = Path(__file__).resolve().parent / "BENCH_obs.json"
DEFAULT_SIZES = (100_000,)
PHI = 0.5
#: The acceptance bound: instrumentation with the null tracer must cost
#: less than 3% of the n = 10⁵ simulated exact path.
MAX_NOOP_SLOWDOWN = 1.03


def _values(n: int, seed: int):
    return RandomSource(seed).random(n) * 100.0


def _run_exact(values, seed: int):
    start = time.perf_counter()
    result = exact_quantile(values, phi=PHI, rng=seed)
    return result, time.perf_counter() - start


def _null_span_ns(iters: int = 200_000) -> float:
    """ns per instrumented call site when the null tracer is ambient.

    Times the exact pattern the hot paths use — ambient-tracer lookup,
    ``span()`` (returns the shared singleton) and context enter/exit.
    """
    assert get_tracer() is NULL_TRACER
    start = time.perf_counter()
    for _ in range(iters):
        with get_tracer().span("bench", None):
            pass
    return (time.perf_counter() - start) / iters * 1e9


def run_benchmark(sizes, seed: int = 7, repeats: int = 3):
    """Three rows per n: noop wall, traced wall + purity, projected overhead."""
    rows = []
    for n in sizes:
        values = _values(n, seed)

        noop_wall = float("inf")
        noop_result = None
        for _ in range(repeats):
            result, wall = _run_exact(values, seed + 1)
            noop_wall = min(noop_wall, wall)
            noop_result = result
        rows.append({
            "mode": "noop",
            "n": n,
            "rounds": noop_result.rounds,
            "wall_s": noop_wall,
        })

        traced_wall = float("inf")
        traced_result = None
        tracer = None
        for _ in range(repeats):
            tracer = Tracer()
            with use_tracer(tracer):
                result, wall = _run_exact(values, seed + 1)
            traced_wall = min(traced_wall, wall)
            traced_result = result
        # Tracing only *reads* state: the same seed must give the same
        # quantile through the same number of rounds.
        assert traced_result.value == noop_result.value, (
            traced_result.value, noop_result.value)
        assert traced_result.rounds == noop_result.rounds, (
            traced_result.rounds, noop_result.rounds)
        totals = tracer.totals()
        assert totals["rounds"] == traced_result.rounds, (
            totals, traced_result.rounds)
        spans_per_run = totals["spans"] + totals["events"]
        rows.append({
            "mode": "traced",
            "n": n,
            "rounds": traced_result.rounds,
            "wall_s": traced_wall,
            "slowdown_traced": traced_wall / noop_wall,
            "spans": totals["spans"],
            "events": totals["events"],
            "hook_rounds": totals["hook_rounds"],
        })

        null_span_ns = _null_span_ns()
        projected = spans_per_run * null_span_ns * 1e-9 / noop_wall
        rows.append({
            "mode": "overhead",
            "n": n,
            "null_span_ns": null_span_ns,
            "projected_overhead_frac": projected,
            "slowdown_noop": 1.0 + projected,
        })
    return rows


def check_rows(rows) -> None:
    """The acceptance bound and the hook sanity checks."""
    for row in rows:
        if row["mode"] == "overhead":
            assert row["slowdown_noop"] < MAX_NOOP_SLOWDOWN, row
        if row["mode"] == "traced":
            # the exact driver runs every step on an engine substrate:
            # the per-round hook must have observed their rounds
            assert row["hook_rounds"] > 0, row
            assert row["spans"] > 0 and row["events"] > 0, row


def write_json(rows, path: Path, smoke: bool) -> None:
    payload = {
        "benchmark": "obs_overhead",
        "unit": "seconds",
        "smoke": smoke,
        "rows": rows,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path}")


def _print_rows(rows) -> None:
    for row in rows:
        if row["mode"] == "overhead":
            print(
                f"n={row['n']:>7} overhead: {row['null_span_ns']:.0f}ns/site, "
                f"projected noop slowdown {row['slowdown_noop']:.6f}x"
            )
        else:
            extra = (
                f" ({row['slowdown_traced']:.3f}x, {row['spans']} spans, "
                f"{row['events']} events, {row['hook_rounds']} hooked rounds)"
                if row["mode"] == "traced" else ""
            )
            print(
                f"n={row['n']:>7} {row['mode']:<7} {row['rounds']:>6} rounds "
                f"in {row['wall_s']:.3f}s{extra}"
            )


def smoke(json_path: Path, seed: int = 7) -> int:
    rows = run_benchmark(sizes=(10_000,), seed=seed, repeats=2)
    check_rows(rows)
    write_json(rows, json_path, smoke=True)
    _print_rows(rows)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=list(DEFAULT_SIZES))
    parser.add_argument(
        "--json", type=Path, default=None,
        help=f"output path (default: {DEFAULT_JSON.name}, or a .smoke.json "
             "sibling under --smoke so the checked-in trajectory survives)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced CI run (n = 10^4) with the same assertions",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        json_path = args.json or DEFAULT_JSON.with_suffix(".smoke.json")
        return smoke(json_path, seed=args.seed)
    if args.json is None:
        args.json = DEFAULT_JSON

    rows = run_benchmark(args.sizes, seed=args.seed, repeats=args.repeats)
    check_rows(rows)
    write_json(rows, args.json, smoke=False)
    _print_rows(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
