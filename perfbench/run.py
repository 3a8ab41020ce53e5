"""End-to-end and per-layer benchmark for the gossip quantile stack.

Run from the repository root::

    python3 perfbench/run.py --workload exact-1m --seed 1 --seconds 15 --trace 0

Workloads (``perfbench/README.md`` says why each was chosen):

* ``exact-1m``    Algorithm 3's exact median in simulated fidelity, n = 10^6.
* ``serve-shift`` a ``QuantileService`` over n = 10^5 values: a value shift,
                  degraded queries, the stale-lane rebuild, fresh queries.
* ``net-tcp``     the live asyncio backend over loopback TCP, n = 32: one
                  approximate-median query per operation.

Every workload sets up ``SETUPS`` times (``setup_s`` is the median), then
repeats its operation until ``--seconds`` have passed (at least once) and
checks every answer against ground truth computed here from the inputs.
Times are scaled by the machine speed measured in the program's idle gaps
(see ``Calibrator``); ``op_wall_s`` keeps the unscaled figure.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  A traced run
also prints the per-layer ledger as a table on stderr.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import math
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-ups per run; ``setup_s`` reports their median.
SETUPS = 5
#: Seconds of ``calibration_kernel`` on the reference machine (two vCPUs).
REFERENCE_CAL_S = 0.017
#: Units of the per-layer times that are scaled like the end-to-end ones.
TIME_UNITS = ("s", "ms", "us", "ns")
#: The exact driver's per-iteration phases, in the order they run.
PHASES = ("sandwich", "extrema", "counting", "tokens", "final_query")


@dataclass
class Op:
    """One timed operation: program seconds, gossip rounds, correctness,
    layers."""

    wall_s: float
    rounds: int
    ok: bool
    layers: Dict[str, float] = field(default_factory=dict)
    #: Mean calibration-kernel time over this operation (see Calibrator).
    calibration_s: float = REFERENCE_CAL_S

    @property
    def scale(self) -> float:
        return REFERENCE_CAL_S / self.calibration_s


def midrank_fraction(sorted_values, values):
    """Fraction of ``sorted_values`` below each value, ties counted half."""
    left = np.searchsorted(sorted_values, values, side="left")
    right = np.searchsorted(sorted_values, values, side="right")
    return (left + right) / (2.0 * sorted_values.size)


def calibration_kernel(data, keys) -> float:
    """Wall seconds of a fixed kernel: interpreter arithmetic, dict churn and
    a numpy sort, the kinds of work the workloads do.

    The cyclic garbage collector is held off while it runs: a collection
    would walk the program's heap, and the kernel's time must not depend on
    how many objects the program keeps alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        total = 0
        for step in range(40_000):
            total += step
        table = {key: key + 1 for key in keys}
        for value in table.values():
            total += value
        np.sort(data)
        return perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class Calibrator:
    """Measures the machine's speed in the gaps of the program's own work.

    Shared machines drift by +-20 % within seconds, which moves every wall
    time of a run together.  This process times a fixed kernel only where
    the program is idle: at both edges of every set-up and operation, and,
    at most every ``PERIOD_S``, when the program opens a tracer span, emits
    a trace event or finishes an engine round (see ``run``).  No program
    work runs beside the kernel, so the figure does not depend on how many
    cores or how much memory bandwidth the program uses.  A time is scaled
    by ``REFERENCE_CAL_S / c``, with ``c`` the kernel's mean time over the
    samples from its window's first edge to its last: seconds on a machine
    that runs the kernel in exactly ``REFERENCE_CAL_S``.  ``clock`` leaves
    out the kernel's own time, so the pauses never count as program time.
    """

    PERIOD_S = 0.2
    #: An edge reuses a sample this recent (the previous window's last).
    EDGE_AGE_S = 0.05

    def __init__(self) -> None:
        self._data = np.random.default_rng(0).random(200_000)
        self._keys = list(range(30_000))
        self.samples: List[float] = []
        self.paused_s = 0.0
        self._last = -math.inf

    def clock(self) -> float:
        """``perf_counter`` without the time spent in the kernel."""
        return perf_counter() - self.paused_s

    def gap(self, period: float = PERIOD_S) -> None:
        """Time the kernel unless the last sample is under ``period`` old."""
        started = perf_counter()
        if started - self._last < period:
            return
        self.samples.append(calibration_kernel(self._data, self._keys))
        self._last = perf_counter()
        self.paused_s += self._last - started

    def edge(self) -> int:
        """Sample at a window's edge; the index of the edge's sample."""
        self.gap(self.EDGE_AGE_S)
        return len(self.samples) - 1

    def kernel_s(self, first: int, last: int) -> float:
        """Mean kernel time over samples ``first..last``."""
        return statistics.fmean(self.samples[first:last + 1])


def per_call_s(call: Callable[[], object], between: Callable[[], None],
               min_calls: int = 5, min_seconds: float = 0.2) -> float:
    """Median wall seconds of ``call`` over enough repetitions, running
    ``between`` outside the timed calls."""
    times: List[float] = []
    started = perf_counter()
    while len(times) < min_calls or perf_counter() - started < min_seconds:
        between()
        t0 = perf_counter()
        call()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def kernel_layers(values, seed: int,
                  between: Callable[[], None]) -> Dict[str, float]:
    """Per-node cost of the round kernels every gossip phase is built from.

    ``draw_ns``: one uniform partner draw; ``pull_ns``: one tournament pull
    round (block partner draw plus value gather); ``pushsum_ns``: one
    push-sum round (partner draw plus the mass scatter).
    """
    from repro.aggregates.push_sum import push_sum_average
    from repro.gossip.network import GossipNetwork
    from repro.topology.sampler import draw_uniform_round_partners
    from repro.utils.rand import RandomSource

    n = values.size
    source = RandomSource(seed)
    network = GossipNetwork(values, rng=seed, keep_history=False)
    pull_k, pushsum_rounds = 3, 8
    draw = per_call_s(lambda: draw_uniform_round_partners(source, n), between)
    pull = per_call_s(lambda: network.pull(k=pull_k), between)
    pushsum = per_call_s(
        lambda: push_sum_average(values, rng=seed, rounds=pushsum_rounds),
        between,
    )
    return {
        "draw_ns": draw / n * 1e9,
        "pull_ns": pull / (pull_k * n) * 1e9,
        "pushsum_ns": pushsum / (pushsum_rounds * n) * 1e9,
    }


def traced_layers(tracer) -> Dict[str, float]:
    """Per-layer figures of one operation from the program's own spans."""
    spans = tracer.aggregate()

    def span(name: str, key: str) -> float:
        return float(spans.get(name, {}).get(key, 0))

    layers: Dict[str, float] = {}
    for phase in PHASES:
        layers[f"{phase}_s"] = span(phase, "wall_s")
        layers[f"{phase}_rounds"] = span(phase, "rounds")
    layers["two_tournament_s"] = span("two_tournament", "wall_s")
    layers["three_tournament_s"] = span("three_tournament", "wall_s")
    layers["rebuild_s"] = span("service_rebuild", "wall_s")
    layers["rebuild_rounds"] = span("service_rebuild", "rounds")
    labels = tracer.round_labels().values()
    engine_rounds = sum(label["rounds"] for label in labels)
    engine_wall = sum(label["wall_s"] for label in labels)
    layers["engine_rounds"] = float(engine_rounds)
    layers["engine_round_ms"] = (
        engine_wall / engine_rounds * 1e3 if engine_rounds else 0.0
    )
    return layers


class ExactWorkload:
    """Algorithm 3's exact median over 10^6 distinct values, fully simulated.

    Every sub-protocol runs on the vectorized gossip substrates: the fused
    sandwich tournaments, extrema spreading, push-sum counting and token
    duplication.  One operation is one exact query.
    """

    n = 1_000_000
    phi = 0.5
    warmup_n = 1 << 14

    def __init__(self, seed: int, clock: Callable[[], float]) -> None:
        self.seed = seed
        self.clock = clock
        self.rng = np.random.default_rng(seed)

    def setup(self) -> None:
        from repro.core.exact_quantile import exact_quantile

        # The values 0..n-1 in random node order, so the k-th smallest is
        # k - 1: ground truth never comes from the program.
        self.values = self.rng.permutation(self.n).astype(float)
        self.truth = float(math.ceil(self.phi * self.n) - 1)
        # A small query first, so imports and caches are warm before timing.
        sample = self.values[: self.warmup_n]
        warmup = exact_quantile(
            sample, self.phi, rng=self.seed, fidelity="simulated"
        )
        if warmup.value != sorted(sample)[math.ceil(self.phi * sample.size) - 1]:
            raise RuntimeError("exact-1m: the warm-up query missed the median")

    def op(self, index: int) -> Op:
        from repro.core.exact_quantile import exact_quantile

        seed = int(self.rng.integers(2**32))
        started = self.clock()
        result = exact_quantile(
            self.values, self.phi, rng=seed, fidelity="simulated"
        )
        wall = self.clock() - started
        return Op(
            wall_s=wall,
            rounds=result.rounds,
            ok=result.value == self.truth,
            layers={"retries": float(result.retries)},
        )


class ServeShiftWorkload:
    """A quantile service whose data shifts under it between query bursts.

    One operation: 60 % of the nodes report a new reading above every
    current value (``update_value``), a burst of queries is served degraded,
    the drift check triggers the incremental rebuild, and a second burst is
    served fresh.  Moving 60 % of the values drifts every grid lane past the
    staleness threshold (drift = 0.6 * rank >= 0.03 > eps / 2 at the lowest
    lane), so each rebuild re-runs the whole grid and every operation does
    the same amount of gossip.
    """

    n = 100_000
    eps = 0.05
    shift_fraction = 0.6
    queries = 500
    rank_queries = 50

    def __init__(self, seed: int, clock: Callable[[], float]) -> None:
        self.seed = seed
        self.clock = clock
        self.rng = np.random.default_rng(seed)

    def setup(self) -> None:
        from repro.core.service import QuantileService

        self.values = self.rng.random(self.n)
        # The service gets its own copy: values reach it only through
        # update_value, and self.values stays the ground truth.
        self.service = QuantileService(
            self.values.copy(), eps=self.eps, rng=self.seed
        )

    def _check(self, answers, phis, ranks, probes, ordered) -> bool:
        # A fresh (non-degraded) lane may carry drift up to the service's
        # staleness threshold (eps / 2) beyond its stated accuracy.
        slack = self.eps / 2.0 + 1.0 / self.n
        values = np.array([answer.value for answer in answers])
        bounds = np.array([answer.accuracy for answer in answers])
        quantile_ok = np.abs(midrank_fraction(ordered, values) - phis) <= bounds + slack
        estimates = np.array([answer.phi for answer in ranks])
        rank_bounds = np.array([answer.accuracy for answer in ranks])
        rank_ok = (
            np.abs(midrank_fraction(ordered, probes) - estimates)
            <= rank_bounds + slack
        )
        return bool(quantile_ok.all() and rank_ok.all())

    def op(self, index: int) -> Op:
        service = self.service
        clock = self.clock
        moved = self.rng.choice(self.n, size=int(self.shift_fraction * self.n),
                                replace=False)
        readings = self.rng.random(moved.size) + float(index + 1)
        phis_before = self.rng.random(self.queries)
        phis_after = self.rng.random(self.queries)
        self.values[moved] = readings
        ordered = np.sort(self.values)
        probes = ordered[self.rng.integers(0, self.n, size=self.rank_queries)]

        started = clock()
        for node, reading in zip(moved.tolist(), readings.tolist()):
            service.update_value(node, reading)
        updated = clock()
        service.lane_drift()
        drifted = clock()
        degraded = service.batch_quantiles(phis_before)
        served = clock()
        report = service.maybe_rebuild()
        rebuilt = clock()
        fresh = service.batch_quantiles(phis_after)
        ranks = [service.rank_of(float(value)) for value in probes]
        finished = clock()

        query_s = (served - drifted) + (finished - rebuilt)
        ok = self._check(
            degraded + fresh, np.concatenate([phis_before, phis_after]),
            ranks, probes, ordered,
        )
        return Op(
            wall_s=finished - started,
            rounds=report.rounds if report is not None else 0,
            ok=ok,
            layers={
                "update_ms": (updated - started) * 1e3,
                "drift_ms": (drifted - updated) * 1e3,
                "rebuild_lanes": float(report.lanes_rebuilt if report else 0),
                "query_us": query_s / (2 * self.queries + self.rank_queries) * 1e6,
            },
        )


class NetTcpWorkload:
    """Approximate medians over the live asyncio backend on loopback TCP.

    The values are a seeded permutation of 1..n, so the bisection follows
    the same rank path on every seed and each operation is the same amount
    of gossip; the seed moves values between nodes and drives the partner
    draws.  The transport stays up across operations (a deployment keeps
    its sockets), so set-up is server start plus one warm-up query that
    opens the pooled connections.
    """

    n = 32
    phi = 0.5
    eps = 0.1

    def __init__(self, seed: int, clock: Callable[[], float]) -> None:
        self.seed = seed
        self.clock = clock
        self.rng = np.random.default_rng(seed)
        self.loop = asyncio.new_event_loop()
        self.transport = None

    def setup(self) -> None:
        from repro.net.quantile import anet_approximate_quantile
        from repro.net.transport import TcpTransport

        self.close_transport()
        self.values = self.rng.permutation(self.n).astype(float) + 1.0
        self.ordered = sorted(self.values.tolist())
        transport = TcpTransport(self.n)
        self.transport = transport
        self.loop.run_until_complete(transport.start())
        self.loop.run_until_complete(anet_approximate_quantile(
            self.values, phi=self.phi, eps=self.eps, rng=self.seed,
            transport=transport,
        ))

    def op(self, index: int) -> Op:
        from repro.net.quantile import anet_approximate_quantile

        transport = self.transport
        seed = int(self.rng.integers(2**32))
        calls, seen = transport.calls, len(transport.latencies_s)
        started = self.clock()
        answer = self.loop.run_until_complete(anet_approximate_quantile(
            self.values, phi=self.phi, eps=self.eps, rng=seed,
            transport=transport,
        ))
        wall = self.clock() - started
        below = np.searchsorted(self.ordered, answer.value, side="right")
        ok = abs(below / self.n - self.phi) <= answer.accuracy + 1.0 / self.n
        # The kernel runs only at round barriers, when no call is in
        # flight, so these program-measured latencies never include it.
        latencies_us = np.asarray(transport.latencies_s[seen:]) * 1e6
        return Op(
            wall_s=wall,
            rounds=answer.rounds,
            ok=bool(ok),
            layers={
                "rpc_calls": float(transport.calls - calls),
                "rpc_p50_us": float(np.quantile(latencies_us, 0.5)),
                "rpc_p99_us": float(np.quantile(latencies_us, 0.99)),
            },
        )

    def close_transport(self) -> None:
        if self.transport is not None:
            self.loop.run_until_complete(self.transport.stop())
            self.transport = None

    def close(self) -> None:
        try:
            self.close_transport()
        finally:
            self.loop.close()


WORKLOADS = {
    "exact-1m": ExactWorkload,
    "serve-shift": ServeShiftWorkload,
    "net-tcp": NetTcpWorkload,
}


def run(workload, calibrator: Calibrator, seconds: float, trace: bool):
    """Set up ``SETUPS`` times, then time operations for ``seconds``.

    Set-ups and operations run under the program's own tracer in both
    modes, extended to run the calibration kernel in its gaps, so traced
    and untraced runs time the same code path.  Returns the scaled set-up
    times, the operations (each carrying its mean kernel time) and, when
    traced, the scaled kernel layers.
    """
    from repro.obs.tracer import Tracer, use_tracer

    class GapTracer(Tracer):
        """Runs the calibration kernel where the program yields to the
        tracer: before a span opens, before a trace event and after an
        engine round, when no program work is in flight."""

        def __init__(self) -> None:
            super().__init__(clock=calibrator.clock)

        def span(self, name, metrics=None):
            calibrator.gap()
            return super().span(name, metrics)

        def event(self, name, **fields):
            calibrator.gap()
            super().event(name, **fields)

        def on_round(self, record, elapsed):
            super().on_round(record, elapsed)
            calibrator.gap()

    setups: List[float] = []
    for _ in range(SETUPS):
        first = calibrator.edge()
        started = calibrator.clock()
        with use_tracer(GapTracer()):
            workload.setup()
        elapsed = calibrator.clock() - started
        last = calibrator.edge()
        setups.append(
            elapsed * REFERENCE_CAL_S / calibrator.kernel_s(first, last)
        )
    ops: List[Op] = []
    deadline = perf_counter() + seconds
    while not ops or perf_counter() < deadline:
        first = calibrator.edge()
        tracer = GapTracer()
        with use_tracer(tracer):
            op = workload.op(len(ops))
        last = calibrator.edge()
        if trace:
            op.layers.update(traced_layers(tracer))
        op.calibration_s = calibrator.kernel_s(first, last)
        ops.append(op)
    kernels: Dict[str, float] = {}
    if trace:
        first = calibrator.edge()
        kernels = kernel_layers(workload.values, workload.seed, calibrator.gap)
        scale = REFERENCE_CAL_S / calibrator.kernel_s(first, calibrator.edge())
        kernels = {name: value * scale for name, value in kernels.items()}
    return setups, ops, kernels


def ledger(ops: List[Op], kernels: Dict[str, float], units) -> Dict[str, float]:
    """Median over operations of every per-layer figure (0 where unused).

    Times are scaled like the end-to-end ones; ``op_wall_s`` and
    ``calibration_ms`` are the unscaled program time and kernel time
    behind them.
    """
    metrics = {
        "op_wall_s": statistics.median(op.wall_s for op in ops),
        "calibration_ms": statistics.median(op.calibration_s for op in ops) * 1e3,
    }
    for name, unit in units.items():
        if name in metrics:
            continue
        if name in kernels:
            metrics[name] = kernels[name]
            continue
        timed = unit in TIME_UNITS
        metrics[name] = statistics.median(
            op.layers.get(name, 0.0) * (op.scale if timed else 1.0) for op in ops
        )
    return metrics


def print_ledger(workload: str, ops: List[Op], metrics: Dict[str, float],
                 units: Dict[str, str]) -> None:
    op_s = statistics.median(op.wall_s * op.scale for op in ops)
    print(f"per-layer ledger: {workload}, {len(ops)} op(s), "
          f"median op {op_s:.4f} s (scaled)", file=sys.stderr)
    for name, value in metrics.items():
        share = ""
        if units[name] == "s" and name != "op_wall_s" and op_s > 0:
            share = f"{100.0 * value / op_s:6.1f} %"
        print(f"  {name:<20} {value:>14.6g} {units[name]:<6} {share}",
              file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro").is_dir() or not spec_path.is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}

    calibrator = Calibrator()
    workload = WORKLOADS[args.workload](args.seed, calibrator.clock)
    try:
        setups, ops, kernels = run(
            workload, calibrator, args.seconds, bool(args.trace)
        )
    finally:
        getattr(workload, "close", lambda: None)()

    failed = sum(1 for op in ops if not op.ok)
    if args.trace:
        values = ledger(ops, kernels, units)
        print_ledger(args.workload, ops, values, units)
    else:
        values = {
            "op_s": statistics.median(op.wall_s * op.scale for op in ops),
            "op_rounds": statistics.median(op.rounds for op in ops),
            "setup_s": statistics.median(setups),
        }
    missing = set(units) - set(values)
    if missing:
        print(f"perfbench: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 3
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]}
            for name in units
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
