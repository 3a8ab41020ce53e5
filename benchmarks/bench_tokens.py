"""E9 benchmark — Algorithm 3 Step 7: token split-and-distribute.

Times :func:`repro.core.tokens.distribute_tokens` and emits a
machine-readable ``BENCH_tokens.json`` (n, wall time, phases, rounds,
phases/sec) so the repo carries a perf trajectory across PRs.  Usable
standalone::

    PYTHONPATH=src python benchmarks/bench_tokens.py --sizes 10000 100000

``--smoke`` runs a reduced grid with hard invariant assertions (exact
multiplicities, ≤ 1 token per node, failure-model merges under μ = 0.3,
and the same under churn and under crash/drop faults); CI runs it on
every push.
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

from repro.core.tokens import distribute_tokens
from repro.faults import CrashRestart, FaultInjector, MessageDrop
from repro.gossip.env import GossipEnv
from repro.topology import ChurnProcess
from repro.utils.rand import RandomSource

DEFAULT_JSON = Path(__file__).resolve().parent / "BENCH_tokens.json"
#: Identity tag of every row: the trajectory's rows were keyed by token
#: engine, and the one implementation continues the ``vectorized`` rows.
ENGINE_TAG = "vectorized"


def _workload(n: int, multiplicity: int, token_load: float, seed: int):
    """Item placement filling ``token_load * n`` unit tokens."""
    items = max(1, int(n * token_load) // multiplicity)
    rng = RandomSource(seed)
    item_nodes = rng.choice(np.arange(n), size=items, replace=False)
    return item_nodes, rng


def _check_invariants(result, items: int, multiplicity: int) -> None:
    owned = result.owners[result.owners >= 0]
    assert owned.size == items * multiplicity, (owned.size, items, multiplicity)
    counts = np.bincount(owned, minlength=items)
    assert np.all(counts == multiplicity), counts


def run_benchmark(
    sizes,
    multiplicity: int = 64,
    token_load: float = 0.5,
    repeats: int = 50,
    mu: float = 0.0,
    seed: int = 0,
):
    """One row per n: the best of ``repeats`` seeded runs."""
    rows = []
    env = GossipEnv(failure_model=mu if mu > 0 else None)
    for n in sizes:
        item_nodes, rng = _workload(n, multiplicity, token_load, seed)
        best = float("inf")
        phases = rounds = 0
        for _ in range(repeats):
            start = time.perf_counter()
            result = distribute_tokens(
                item_nodes,
                multiplicity=multiplicity,
                n=n,
                rng=rng.child(),
                env=env,
            )
            elapsed = time.perf_counter() - start
            _check_invariants(result, item_nodes.size, multiplicity)
            if elapsed < best:
                # keep phases/rounds from the same run that set the time,
                # so phases_per_sec pairs consistent quantities
                best = elapsed
                phases, rounds = result.phases, result.rounds
        rows.append(
            {
                "n": n,
                "engine": ENGINE_TAG,
                "items": int(item_nodes.size),
                "multiplicity": multiplicity,
                "tokens": int(item_nodes.size) * multiplicity,
                "mu": mu,
                "wall_s": best,
                "phases": phases,
                "rounds": rounds,
                "phases_per_sec": phases / best if best > 0 else float("inf"),
            }
        )
    return rows


def write_json(rows, path: Path, smoke: bool) -> None:
    payload = {
        "benchmark": "tokens",
        "unit": "seconds",
        "smoke": smoke,
        "rows": rows,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path}")


def smoke(json_path: Path, seed: int = 0) -> int:
    """Reduced CI grid: invariants on, failures exercised."""
    rows = run_benchmark(
        sizes=(4096,), multiplicity=16, token_load=0.25, repeats=1, seed=seed
    )
    rows += run_benchmark(
        sizes=(2048,), multiplicity=8, token_load=0.2, repeats=1, mu=0.3, seed=seed
    )
    faulty = [r for r in rows if r["mu"] > 0]
    assert faulty, "smoke grid must exercise the failure model"
    for row in rows:
        assert row["phases"] <= 4 * np.log2(row["n"]), row
    write_json(rows, json_path, smoke=True)
    for row in rows:
        print(
            f"smoke: n={row['n']:>6} mu={row['mu']:.1f} "
            f"{row['wall_s'] * 1e3:8.1f} ms  {row['phases']:>3} phases"
        )
    # The same invariants when the env's topology process or fault
    # injector puts pushers out of a round.
    n, multiplicity = 2048, 8
    for name, env in (
        ("churn", GossipEnv(topology_process=ChurnProcess(
            n, churn_rate=0.05, rejoin_rate=0.5, rng=seed))),
        ("crash/drop", GossipEnv(faults=FaultInjector(
            [MessageDrop(0.1), CrashRestart(0.05)], rng=seed))),
    ):
        item_nodes, rng = _workload(n, multiplicity, 0.2, seed)
        result = distribute_tokens(
            item_nodes, multiplicity=multiplicity, n=n, rng=rng.child(), env=env
        )
        _check_invariants(result, item_nodes.size, multiplicity)
        assert result.failed_pushes > 0, name
        assert result.phases <= 4 * np.log2(n), (name, result.phases)
        print(f"smoke: n={n:>6} {name}: {result.phases:>3} phases, "
              f"{result.failed_pushes} failed pushes")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[10_000, 100_000])
    parser.add_argument("--multiplicity", type=int, default=64)
    parser.add_argument(
        "--token-load", type=float, default=0.5,
        help="fraction of nodes covered by unit tokens (paper regime: < 1)",
    )
    # a run costs milliseconds, so best-of-50 is cheap and damps the
    # scheduler noise of a shared machine
    parser.add_argument("--repeats", type=int, default=50)
    parser.add_argument("--mu", type=float, default=0.0)
    parser.add_argument(
        "--json", type=Path, default=None,
        help=f"output path (default: {DEFAULT_JSON.name}, or a .smoke.json "
             "sibling under --smoke so the checked-in trajectory survives)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced CI grid with invariant assertions",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        json_path = args.json or DEFAULT_JSON.with_suffix(".smoke.json")
        return smoke(json_path, seed=args.seed)
    if args.json is None:
        args.json = DEFAULT_JSON

    rows = run_benchmark(
        args.sizes,
        multiplicity=args.multiplicity,
        token_load=args.token_load,
        repeats=args.repeats,
        mu=args.mu,
        seed=args.seed,
    )
    write_json(rows, args.json, smoke=False)
    header = f"{'n':>9}  {'wall':>10}  {'phases':>6}  {'rounds':>6}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['n']:>9}  {row['wall_s']:>9.4f}s  "
            f"{row['phases']:>6}  {row['rounds']:>6}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
