"""Benchmark: fault injection and graceful degradation end to end.

Times the robustness stack on four scenarios per size: a fault-free
:class:`~repro.core.service.QuantileService` build (the baseline), the
same build through a seeded ``drop+crash`` :class:`~repro.faults
.FaultInjector`, degraded serving after churn plus a distribution shift,
and the epoch rebuild — incremental (stale lanes only) vs full — run
under injected faults.  A Theorem-1.4 robust tournament with an injector
layered on top of the Section-5 failure model rounds out the table.
Usable standalone::

    PYTHONPATH=src python benchmarks/bench_robustness.py --sizes 2048

Emits a machine-readable trajectory (``--json
benchmarks/BENCH_robustness.json`` by default) that ``bench_trend.py``
diffs across PRs.  ``--smoke`` runs a reduced grid with hard end-to-end
assertions (every query answered under chaos, incremental rebuild
strictly cheaper than full, seeded chaos replay bit-for-bit); CI runs it
on every push.
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

from repro.core.robust import robust_approximate_quantile
from repro.core.service import QuantileService
from repro.experiments.chaos import build_injector
from repro.gossip.env import GossipEnv
from repro.topology import ChurnProcess
from repro.utils.rand import RandomSource

PROBE_PHIS = (0.1, 0.25, 0.5, 0.75, 0.9)


def _fresh_service(n, seed, eps, max_lanes, faults=None, churn=False):
    values = RandomSource(seed).random(n) * 100.0
    churn_process = (
        ChurnProcess(n, churn_rate=0.03, rng=seed) if churn else None
    )
    start = time.perf_counter()
    service = QuantileService(
        values, eps=eps, rng=seed, max_lanes=max_lanes,
        env=GossipEnv(faults=faults), churn_process=churn_process,
    )
    return service, values, time.perf_counter() - start


def _shift_band(service, values, rng, lo=0.4, hi=0.55):
    """Move the values in one quantile band to the top of the range.

    Only lanes at or above the band see their ranks move, so some lanes
    stay fresh — which is exactly what makes the incremental rebuild
    strictly cheaper than the full one.
    """
    active = (
        service.churn_process.active
        if service.churn_process is not None
        else np.ones(values.size, dtype=bool)
    )
    low, high = np.quantile(values[active], [lo, hi])
    band = np.flatnonzero(active & (values >= low) & (values < high))
    top = float(values[active].max())
    for index in band:
        new_value = top + 1.0 + float(rng.random())
        values[index] = new_value
        service.update_value(int(index), new_value)
    return band.size


def _scenario_rows(n, seed, eps=0.1, max_lanes=4, intensity=0.1):
    rows = []

    service, values, clean_wall = _fresh_service(n, seed, eps, max_lanes)
    clean_rounds = service.rounds
    rows.append({
        "n": n, "scenario": "build-clean",
        "rounds": clean_rounds, "wall_s": clean_wall,
        "rounds_per_sec": clean_rounds / clean_wall,
    })

    faulted, _, faulted_wall = _fresh_service(
        n, seed, eps, max_lanes,
        faults=build_injector(("drop", "crash"), intensity, seed),
    )
    rows.append({
        "n": n, "scenario": "build-faulted",
        "rounds": faulted.rounds, "wall_s": faulted_wall,
        "rounds_per_sec": faulted.rounds / faulted_wall,
        "injected_faults": float(sum(faulted.faults.counters.values())),
    })

    # Degraded serving: churn + a band shift, then answer probe queries.
    service, values, _ = _fresh_service(
        n, seed, eps, max_lanes, churn=True
    )
    service.advance_churn(25)
    _shift_band(service, values, RandomSource(seed + 1))
    start = time.perf_counter()
    answers = [service.quantile(phi) for phi in PROBE_PHIS]
    serve_wall = time.perf_counter() - start
    rows.append({
        "n": n, "scenario": "degraded-serving",
        "wall_s": serve_wall,
        "queries_per_sec": len(answers) / max(serve_wall, 1e-12),
        "degraded_rate": float(np.mean([a.degraded for a in answers])),
    })

    # Epoch rebuild under faults: incremental (stale lanes only) vs full.
    service.attach_faults(
        build_injector(("drop", "crash"), intensity, seed + 2)
    )
    start = time.perf_counter()
    report = service.rebuild(incremental=True)
    incr_wall = time.perf_counter() - start
    rows.append({
        "n": n, "scenario": "rebuild-incremental",
        "rounds": report.rounds, "wall_s": incr_wall,
        "rounds_per_sec": report.rounds / max(incr_wall, 1e-12),
        "chunks_ratio": (
            report.chunks_run / report.full_chunks
            if report.full_chunks else 0.0
        ),
        "rebuild_attempts": float(report.attempts),
    })

    full_service, full_values, _ = _fresh_service(
        n, seed, eps, max_lanes, churn=True
    )
    full_service.advance_churn(25)
    _shift_band(full_service, full_values, RandomSource(seed + 1))
    full_service.attach_faults(
        build_injector(("drop", "crash"), intensity, seed + 2)
    )
    start = time.perf_counter()
    full_report = full_service.rebuild(incremental=False)
    full_wall = time.perf_counter() - start
    rows.append({
        "n": n, "scenario": "rebuild-full",
        "rounds": full_report.rounds, "wall_s": full_wall,
        "rounds_per_sec": full_report.rounds / max(full_wall, 1e-12),
        "chunks_ratio": 1.0,
        "rebuild_attempts": float(full_report.attempts),
    })

    # Theorem 1.4 with an injector on top of the Section-5 failure model.
    values = RandomSource(seed).random(n) * 100.0
    start = time.perf_counter()
    robust = robust_approximate_quantile(
        values, phi=0.5, eps=eps, rng=seed,
        env=GossipEnv(
            failure_model=0.2,
            faults=build_injector(("drop", "crash"), intensity, seed + 3),
        ),
    )
    robust_wall = time.perf_counter() - start
    rows.append({
        "n": n, "scenario": "robust-tournament",
        "rounds": robust.rounds, "wall_s": robust_wall,
        "rounds_per_sec": robust.rounds / max(robust_wall, 1e-12),
        "answered_fraction": robust.answered_fraction,
    })
    return rows, report, full_report


def run_benchmark(sizes, seed: int = 0):
    rows = []
    for n in sizes:
        scenario_rows, _, _ = _scenario_rows(n, seed)
        rows.extend(scenario_rows)
    return rows


def smoke(seed: int = 0):
    """Reduced CI grid with hard assertions on the robustness contracts."""
    n = 512
    rows, report, full_report = _scenario_rows(n, seed, intensity=0.15)

    # Incremental epoch rebuilds must re-run strictly fewer chunks per
    # attempt than the full grid (chunks_run accumulates across retries,
    # so normalize by attempts before comparing).
    assert report.chunks_run / report.attempts < full_report.full_chunks, (
        report.chunks_run, report.attempts, full_report.full_chunks,
    )
    assert (
        full_report.chunks_run
        == full_report.full_chunks * full_report.attempts
    )

    # The service must answer every query under churn + faults — degraded
    # or refined, never an exception, never a silent NaN from the grid.
    service, values, _ = _fresh_service(
        n, seed, eps=0.1, max_lanes=4,
        faults=build_injector(
            ("drop", "duplicate", "delay", "crash", "corrupt"), 0.2, seed
        ),
        churn=True,
    )
    service.advance_churn(30)
    _shift_band(service, values, RandomSource(seed + 1))
    for phi in np.linspace(0.02, 0.98, 25):
        answer = service.quantile(float(phi))
        assert answer.accuracy >= service._query_accuracy - 1e-12
        assert np.isfinite(answer.value), phi
    print(f"smoke: {service.summary()['answers_degraded']} of 25 answers "
          "degraded, all finite")

    # Seeded chaos must replay bit-for-bit: same seeds, fresh construction.
    first, _, _ = _fresh_service(
        n, seed, eps=0.1, max_lanes=4,
        faults=build_injector(("drop", "corrupt"), 0.2, seed + 7),
    )
    second, _, _ = _fresh_service(
        n, seed, eps=0.1, max_lanes=4,
        faults=build_injector(("drop", "corrupt"), 0.2, seed + 7),
    )
    assert np.array_equal(first.grid_answers, second.grid_answers)
    assert first.faults.counters == second.faults.counters
    print("smoke: seeded chaos replay bit-for-bit OK")

    for row in rows:
        print(f"smoke: {row['scenario']:20s} "
              f"{row.get('rounds_per_sec', 0.0):10.1f} rounds/s")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[2048])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--json", type=Path, default=None,
        help="write the row trajectory to this JSON file "
             "(default benchmarks/BENCH_robustness.json for full runs)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced CI grid with correctness assertions",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        rows = smoke(seed=args.seed)
    else:
        rows = run_benchmark(args.sizes, seed=args.seed)
        header = f"{'n':>7}  {'scenario':<20}  {'rounds/s':>12}  {'wall':>9}"
        print(header)
        print("-" * len(header))
        for row in rows:
            print(
                f"{row['n']:>7}  {row['scenario']:<20}  "
                f"{row.get('rounds_per_sec', 0.0):>12.1f}  "
                f"{row['wall_s']:>8.3f}s"
            )

    json_path = args.json
    if json_path is None and not args.smoke:
        json_path = Path(__file__).resolve().parent / "BENCH_robustness.json"
    if json_path is not None:
        payload = {
            "benchmark": "robustness",
            "unit": "seconds",
            "smoke": bool(args.smoke),
            "rows": rows,
        }
        json_path.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {json_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
