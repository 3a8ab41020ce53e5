"""Benchmark: live asyncio backend throughput and RPC latency.

Measures rounds/second and RPC round-trip latency quantiles of the same
push-sum workload on both transports of :mod:`repro.net` — the in-process
channel transport and real loopback TCP streams — and reports the
deployment tax relative to the simulated (vectorized) engine.  Each
timed run follows an untimed warm-up: the same seeded run on the same
transport, which dials every node pair the timed rounds use, so a TCP row
times RPCs over warm pooled connections rather than first dials.  Usable
standalone::

    PYTHONPATH=src python benchmarks/bench_net.py --sizes 32 128

Emits a machine-readable trajectory (``--json benchmarks/BENCH_net.json``
by default) that ``bench_trend.py`` diffs across PRs.  ``--smoke`` runs a
reduced grid with hard end-to-end assertions (simulated ≡ deployed
round/message parity on both transports); CI runs it on every push.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:  # pragma: no cover - environment dependent
    sys.path.insert(0, str(SRC))

import numpy as np

from repro.aggregates.push_sum import PushSumProtocol
from repro.gossip.engine import run_protocol_vectorized
from repro.gossip.metrics import NetworkMetrics
from repro.net import arun_protocol
from repro.net.transport import ChannelTransport, TcpTransport
from repro.utils.rand import RandomSource

#: Hard ceiling on one transport's warm-up and timed runs together.
RUN_TIMEOUT_S = 120.0


async def _warm_then_timed(transport, values, rounds: int, seed: int):
    """Run the seeded workload twice on ``transport``; time the second.

    Returns ``(protocol, result, metrics, elapsed, latencies)`` of the
    timed run.  The same seed draws the same partners, so the untimed
    first run has dialled every pair the timed run calls.
    """
    await transport.start()
    try:
        await arun_protocol(
            PushSumProtocol(values, rounds=rounds), rng=seed,
            transport=transport, max_rounds=rounds + 1,
        )
        warm = len(transport.latencies_s)
        protocol = PushSumProtocol(values, rounds=rounds)
        metrics = NetworkMetrics()
        start = time.perf_counter()
        result = await arun_protocol(
            protocol, rng=seed, metrics=metrics, transport=transport,
            max_rounds=rounds + 1,
        )
        elapsed = time.perf_counter() - start
        return protocol, result, metrics, elapsed, transport.latencies_s[warm:]
    finally:
        await transport.stop()


def _run_deployed(transport_name: str, n: int, rounds: int, seed: int):
    values = RandomSource(seed).random(n) * 100.0
    transport = (
        TcpTransport(n) if transport_name == "tcp" else ChannelTransport(n)
    )
    protocol, result, metrics, elapsed, latencies = asyncio.run(
        asyncio.wait_for(
            _warm_then_timed(transport, values, rounds, seed), RUN_TIMEOUT_S
        )
    )
    latencies = np.asarray(latencies, dtype=float)
    return {
        "result": result,
        "metrics": metrics,
        "elapsed": elapsed,
        "latencies": latencies,
        "true_mass": float(values.sum()),
        "protocol": protocol,
    }


def _row(transport_name: str, n: int, rounds: int, seed: int, sim_rps: float):
    run = _run_deployed(transport_name, n, rounds, seed)
    rps = run["result"].rounds / run["elapsed"]
    latencies = run["latencies"]
    return {
        "n": n,
        "transport": transport_name,
        "rounds": run["result"].rounds,
        "wall_s": run["elapsed"],
        "rounds_per_sec": rps,
        "slowdown_vs_vectorized": sim_rps / rps,
        "rpc_calls": int(run["result"].extra["rpc_calls"]),
        "rpc_p50_us": float(np.quantile(latencies, 0.5) * 1e6),
        "rpc_p99_us": float(np.quantile(latencies, 0.99) * 1e6),
    }, run


def _simulated_rps(n: int, rounds: int, seed: int) -> float:
    values = RandomSource(seed).random(n) * 100.0
    start = time.perf_counter()
    result = run_protocol_vectorized(
        PushSumProtocol(values, rounds=rounds), rng=seed, max_rounds=rounds + 1
    )
    return result.rounds / (time.perf_counter() - start)


def run_benchmark(sizes, rounds: int = 30, seed: int = 0):
    rows = []
    for n in sizes:
        sim_rps = _simulated_rps(n, rounds, seed)
        for transport_name in ("channel", "tcp"):
            row, _ = _row(transport_name, n, rounds, seed, sim_rps)
            rows.append(row)
    return rows


def smoke(seed: int = 0):
    """Reduced CI grid with hard simulated ≡ deployed parity assertions."""
    n, rounds = 32, 10
    values = RandomSource(seed).random(n) * 100.0
    sim_metrics = NetworkMetrics()
    sim = run_protocol_vectorized(
        PushSumProtocol(values, rounds=rounds), rng=seed,
        metrics=sim_metrics, max_rounds=rounds + 1,
    )
    sim_rps = _simulated_rps(n, rounds, seed)
    rows = []
    for transport_name in ("channel", "tcp"):
        row, run = _row(transport_name, n, rounds, seed, sim_rps)
        result, metrics = run["result"], run["metrics"]
        # The equivalence contract, asserted on the bench path too.  Round
        # and message/bit accounting is exact on both transports; outputs
        # are bit-identical on the channel transport, while TCP completion
        # order can reassociate push-sum's float merges by an ulp.
        assert result.rounds == sim.rounds, transport_name
        assert metrics.summary() == sim_metrics.summary(), transport_name
        if transport_name == "channel":
            assert result.outputs == sim.outputs, transport_name
        else:
            np.testing.assert_allclose(
                result.outputs_array, sim.outputs_array, rtol=1e-9
            )
        protocol = run["protocol"]
        true_mass = run["true_mass"]
        assert abs(protocol.total_mass - true_mass) < 1e-9 * true_mass
        rows.append(row)
        print(
            f"smoke: {transport_name:8s} {row['rounds_per_sec']:8.1f} rounds/s"
            f"  p99 rpc {row['rpc_p99_us']:8.0f}us"
        )
    print("smoke: simulated == deployed on both transports OK")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[32, 128])
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--json", type=Path, default=None,
        help="write the row trajectory to this JSON file "
             "(default benchmarks/BENCH_net.json for full runs)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced CI grid with correctness assertions",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        rows = smoke(seed=args.seed)
    else:
        rows = run_benchmark(args.sizes, rounds=args.rounds, seed=args.seed)
        header = (
            f"{'n':>6}  {'transport':<9}  {'rounds/s':>10}  "
            f"{'p99 rpc us':>11}  {'vs sim':>8}"
        )
        print(header)
        print("-" * len(header))
        for row in rows:
            print(
                f"{row['n']:>6}  {row['transport']:<9}  "
                f"{row['rounds_per_sec']:>10.1f}  "
                f"{row['rpc_p99_us']:>11.0f}  "
                f"{row['slowdown_vs_vectorized']:>7.1f}x"
            )

    json_path = args.json
    if json_path is None and not args.smoke:
        json_path = Path(__file__).resolve().parent / "BENCH_net.json"
    if json_path is not None:
        payload = {
            "benchmark": "net",
            "unit": "seconds",
            "smoke": bool(args.smoke),
            "rows": rows,
        }
        json_path.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {json_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
