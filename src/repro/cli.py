"""Command-line interface: ``python -m repro`` / ``repro-gossip``.

Examples
--------
List the available experiments::

    python -m repro list

Reproduce the Theorem 1.2 round-complexity table with small parameters::

    python -m repro approx-rounds --trials 2 --sizes 512 1024

Compute a quantile of a file of numbers (one per line)::

    python -m repro query --phi 0.9 --eps 0.05 --input values.txt

Let every node estimate its own rank in one fused pass, or stand up a
quantile service that answers many φ queries from the ε-grid of a single
pass (each answer is the nearest grid target's, with its rank accuracy)::

    python -m repro ranks --eps 0.05 --input values.txt
    python -m repro serve --eps 0.05 --phi 0.1 0.5 0.9 --input values.txt
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from contextlib import nullcontext
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.all_quantiles import (
    DEFAULT_MAX_LANES,
    estimate_all_ranks,
    true_self_quantiles,
)
from repro.core.approx_quantile import approximate_quantile
from repro.core.exact_quantile import exact_quantile
from repro.core.service import QuantileService
from repro.exceptions import ConfigurationError
from repro.experiments.churn_sweep import FAILURE_CHOICES
from repro.experiments.runner import REGISTRY, run_experiment
from repro.experiments.chaos import build_injector
from repro.faults import FAULT_KINDS
from repro.gossip.engine import run_protocol
from repro.gossip.env import GossipEnv
from repro.gossip.metrics import NetworkMetrics
from repro.obs import (
    Tracer,
    render_profile,
    render_prometheus,
    use_tracer,
    write_trace_jsonl,
)
from repro.topology import (
    TOPOLOGY_CHOICES,
    ChurnProcess,
    build_topology,
    validate_topology_flags,
)

def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """Observability flags shared by the run-something subcommands."""
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write a JSON-lines span/event/round trace of the run to FILE",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print a hierarchical span profile (wall time, rounds, "
             "messages, payload bits) after the run",
    )
    parser.add_argument(
        "--prom", default=None, metavar="FILE",
        help="write Prometheus-text-format metrics of the run to FILE",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-gossip",
        description=(
            "Reproduction of 'Optimal Gossip Algorithms for Exact and "
            "Approximate Quantile Computations' (PODC 2018)"
        ),
    )
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="list available experiments")

    for name, spec in REGISTRY.items():
        exp = sub.add_parser(name, help=f"{spec.claim}: {spec.description}")
        exp.add_argument("--output", choices=("table", "csv", "rows"), default="table")
        exp.add_argument("--trials", type=int, default=None)
        exp.add_argument("--sizes", type=int, nargs="+", default=None)
        exp.add_argument("--seed", type=int, default=None)
        exp.add_argument(
            "--workers", type=int, default=None,
            help="process-pool size for experiments with parallel trial support",
        )
        exp.add_argument(
            "--topology", choices=TOPOLOGY_CHOICES, nargs="+", default=None,
            help="run gossip on these topologies instead of the complete graph "
                 "(experiments with topology support only)",
        )
        exp.add_argument(
            "--degree", type=int, default=None,
            help="target degree for degree-parameterised topologies",
        )
        exp.add_argument(
            "--rewire-p", type=float, default=None, dest="rewire_p",
            help="rewiring probability of the small-world topology",
        )
        exp.add_argument(
            "--churn-rate", type=float, nargs="+", default=None,
            dest="churn_rate",
            help="per-round node departure probabilities to sweep "
                 "(dynamic-topology experiments only)",
        )
        exp.add_argument(
            "--resample-every", type=int, nargs="+", default=None,
            dest="resample_every",
            help="newscast view-refresh periods in rounds to sweep "
                 "(dynamic-topology experiments only)",
        )
        exp.add_argument(
            "--failures", choices=FAILURE_CHOICES, default=None,
            help="failure layer: none, or topology (position-correlated, "
                 "hubs fail more)",
        )
        exp.add_argument(
            "--fault-kinds", choices=FAULT_KINDS, nargs="+", default=None,
            dest="fault_kinds",
            help="fault kinds to inject (chaos experiment only)",
        )
        exp.add_argument(
            "--fault-intensity", type=float, nargs="+", default=None,
            dest="fault_intensity",
            help="per-round fault probabilities to sweep (chaos "
                 "experiment only)",
        )
        _add_obs_flags(exp)

    query = sub.add_parser("query", help="compute a quantile of a value file via gossip")
    query.add_argument("--input", required=True, help="text file with one value per line")
    query.add_argument("--phi", type=float, required=True)
    query.add_argument("--eps", type=float, default=None,
                       help="approximation parameter; omit for the exact algorithm")
    query.add_argument("--seed", type=int, default=0)
    query.add_argument(
        "--topology", choices=TOPOLOGY_CHOICES, default=None,
        help="gossip topology for the approximate algorithm "
             "(default: complete graph)",
    )
    query.add_argument("--degree", type=int, default=None,
                       help="target degree for degree-parameterised topologies")
    query.add_argument("--rewire-p", type=float, default=None, dest="rewire_p",
                       help="rewiring probability of the small-world topology")
    query.add_argument(
        "--dtype", choices=("float64", "float32"), default=None,
        help="gossip value dtype of an approximate query (--eps; default "
             "float64, float32 halves the simulator's memory traffic); an "
             "exact query ignores it and gossips its values in float32 when "
             "every input is exact in float32, in float64 otherwise",
    )
    _add_obs_flags(query)

    ranks = sub.add_parser(
        "ranks",
        help="every node estimates its own quantile in one fused pass "
             "(Corollary 1.5)",
    )
    serve = sub.add_parser(
        "serve",
        help="build a quantile service from one gossip pass and answer "
             "arbitrary phi queries",
    )
    for command in (ranks, serve):
        command.add_argument(
            "--input", required=True,
            help="text file with one value per line",
        )
        command.add_argument(
            "--eps", type=float, default=0.1,
            help="grid spacing: ceil(1/eps) - 1 quantile targets fused "
                 "into multi-lane tournaments",
        )
        command.add_argument(
            "--query-accuracy", type=float, default=None, dest="query_accuracy",
            help="per-grid-target accuracy (default eps / 2)",
        )
        command.add_argument("--seed", type=int, default=0)
        command.add_argument(
            "--dtype", choices=("float64", "float32"), default=None,
            help="gossip value dtype (default float64)",
        )
        command.add_argument(
            "--topology", choices=TOPOLOGY_CHOICES, default=None,
            help="gossip topology (default: complete graph)",
        )
        command.add_argument(
            "--degree", type=int, default=None,
            help="target degree for degree-parameterised topologies",
        )
        command.add_argument(
            "--rewire-p", type=float, default=None, dest="rewire_p",
            help="rewiring probability of the small-world topology",
        )
        command.add_argument(
            "--max-lanes", type=int, default=DEFAULT_MAX_LANES,
            dest="max_lanes",
            help="lane-chunk width of the fused pass (memory bound on the "
                 "per-round gather blocks); 1 runs the single-lane reference",
        )
        _add_obs_flags(command)
    serve.add_argument(
        "--phi", type=float, nargs="+", required=True,
        help="quantile targets to answer from the one pass",
    )
    serve.add_argument(
        "--churn-rate", type=float, default=None, dest="churn_rate",
        help="per-round departure probability of a churn process stepped "
             "after the build; stale answers come back widened + degraded",
    )
    serve.add_argument(
        "--churn-rounds", type=int, default=20, dest="churn_rounds",
        help="how many churn rounds to advance before serving (with "
             "--churn-rate; default 20)",
    )
    serve.add_argument(
        "--faults", choices=FAULT_KINDS, nargs="+", default=None,
        help="inject these fault kinds into the build and any rebuilds "
             "(seeded by --seed; replayable)",
    )
    serve.add_argument(
        "--fault-rate", type=float, default=0.05, dest="fault_rate",
        help="per-round probability of each injected fault kind "
             "(default 0.05)",
    )
    serve.add_argument(
        "--rebuild", choices=("off", "auto"), default="off",
        help="'auto' rebuilds stale grid lanes (a new epoch) when churn "
             "drift crosses the rebuild threshold",
    )
    serve.add_argument(
        "--listen", action="store_true",
        help="after the build, expose the service's metrics as a live "
             "Prometheus /metrics endpoint and keep serving scrapes",
    )
    serve.add_argument(
        "--prom-port", type=int, default=0, dest="prom_port",
        help="port for --listen (default 0 = an ephemeral port, printed)",
    )
    serve.add_argument(
        "--listen-probe", action="store_true", dest="listen_probe",
        help="with --listen: scrape the endpoint once, report, and exit "
             "(the CI-friendly smoke mode instead of serving forever)",
    )

    net = sub.add_parser(
        "net",
        help="run a gossip protocol on the live asyncio backend (each node "
             "a task speaking RPC over a real transport)",
    )
    net.add_argument(
        "--protocol", choices=("push-sum", "extrema"), default="push-sum",
        help="which protocol to run over the network",
    )
    net.add_argument(
        "--input", default=None,
        help="text file with one value per line (omit for seeded gaussians)",
    )
    net.add_argument(
        "--n", type=int, default=32,
        help="node count when no --input is given (default 32)",
    )
    net.add_argument(
        "--rounds", type=int, default=None,
        help="push-sum round budget (default: the O(log n) schedule)",
    )
    net.add_argument("--seed", type=int, default=0)
    net.add_argument(
        "--transport", choices=("channel", "tcp"), default="channel",
        help="in-process channel (default) or loopback TCP streams",
    )
    net.add_argument(
        "--compare", action="store_true",
        help="also run the vectorized engine with the same seed and "
             "verify round counts and message/bit totals match",
    )
    net.add_argument(
        "--swim", action="store_true",
        help="run a SWIM failure detector alongside the gossip rounds",
    )
    net.add_argument(
        "--faults", choices=FAULT_KINDS, nargs="+", default=None,
        help="inject these fault kinds at the transport level (crash kills "
             "endpoints, drop loses frames, delay holds writes)",
    )
    net.add_argument(
        "--fault-rate", type=float, default=0.05, dest="fault_rate",
        help="per-round probability of each injected fault kind",
    )
    net.add_argument(
        "--prom-port", type=int, default=None, dest="prom_port",
        help="serve live /metrics on this port for the duration of the run "
             "(0 = ephemeral)",
    )
    net.add_argument(
        "--timeout", type=float, default=120.0,
        help="hard wall-clock ceiling on the whole run in seconds",
    )
    net.add_argument(
        "--json", action="store_true",
        help="emit the run summary as JSON instead of text",
    )
    _add_obs_flags(net)
    return parser


def _experiment_kwargs(args: argparse.Namespace) -> dict:
    kwargs = {}
    if args.trials is not None:
        kwargs["trials"] = args.trials
    if args.sizes is not None:
        kwargs["sizes"] = args.sizes
    if args.seed is not None:
        kwargs["seed"] = args.seed
    # Topology axis: forwarded only when given, so topology-unaware
    # experiments keep rejecting the flags with a clear error.  Reject
    # hyper-parameters none of the named topologies consume instead of
    # silently dropping them (without --topology the experiment's own
    # defaults decide, and do use degree/rewire_p).  The churn experiment
    # always consumes --degree (it doubles as the newscast view size), so
    # only --rewire-p is family-checked there.
    validate_topology_flags(
        args.topology,
        degree=None if args.command == "churn" else args.degree,
        rewire_p=args.rewire_p,
    )
    if args.topology is not None:
        kwargs["topologies"] = tuple(args.topology)
    if args.degree is not None:
        kwargs["degree"] = args.degree
    if args.rewire_p is not None:
        kwargs["rewire_p"] = args.rewire_p
    if args.churn_rate is not None:
        kwargs["churn_rates"] = tuple(args.churn_rate)
    if args.resample_every is not None:
        kwargs["resample_every"] = tuple(args.resample_every)
    if args.failures is not None:
        kwargs["failures"] = args.failures
    if args.fault_kinds is not None:
        kwargs["fault_kinds"] = tuple(args.fault_kinds)
    if args.fault_intensity is not None:
        kwargs["fault_intensities"] = tuple(args.fault_intensity)
    return kwargs


def _run_query(args: argparse.Namespace) -> str:
    values, topology = _load_values_and_topology(args)
    env = GossipEnv(topology=topology, dtype=args.dtype)
    where = f" on {args.topology}" if topology is not None else ""
    if args.eps is None:
        # The exact driver runs its approximate stages (the round-dominating
        # sandwich tournaments + final query) on the topology; the
        # auxiliary aggregates stay complete-graph.
        result = exact_quantile(
            values, phi=args.phi, rng=args.seed, env=env,
        )
        return (
            f"exact {args.phi}-quantile = {result.value} "
            f"(rank {result.target_rank} of {result.n}, {result.rounds} gossip "
            f"rounds{where})"
        )
    result = approximate_quantile(
        values, phi=args.phi, eps=args.eps, rng=args.seed, env=env
    )
    return (
        f"approximate {args.phi}-quantile (eps={args.eps}) = {result.estimate} "
        f"({result.rounds} gossip rounds, n={result.n}{where})"
    )


def _load_values_and_topology(args: argparse.Namespace):
    """Shared query/ranks/serve front end: value file + validated topology
    flags."""
    values = np.loadtxt(args.input, dtype=float).ravel()
    validate_topology_flags(
        [args.topology] if args.topology is not None else None,
        degree=args.degree,
        rewire_p=args.rewire_p,
        require_topology=True,
    )
    topology = None
    if args.topology is not None:
        topology = build_topology(
            args.topology,
            values.size,
            degree=args.degree,
            rewire_p=args.rewire_p,
            rng=args.seed,
        )
    return values, topology


def _run_ranks(args: argparse.Namespace) -> str:
    values, topology = _load_values_and_topology(args)
    result = estimate_all_ranks(
        values,
        eps=args.eps,
        rng=args.seed,
        query_accuracy=args.query_accuracy,
        max_lanes=args.max_lanes,
        env=GossipEnv(topology=topology, dtype=args.dtype),
    )
    errors = np.abs(result.quantile_estimates - true_self_quantiles(values))
    mode = "fused" if args.max_lanes > 1 else "single-lane"
    where = f" on {args.topology}" if topology is not None else ""
    return (
        f"self-rank estimates for n={result.n} (eps={args.eps}{where}): "
        f"{result.grid.size} grid targets in {result.chunks} {mode} "
        f"tournament run(s), {result.rounds} gossip rounds; "
        f"error mean={float(errors.mean()):.4f} "
        f"p95={float(np.quantile(errors, 0.95)):.4f} "
        f"max={float(errors.max()):.4f}"
    )


def _run_serve(args: argparse.Namespace):
    """Returns ``(output_text, service)`` — the service rides along so the
    observability exporters can include its query-latency histogram and
    serving metrics."""
    if args.topology is not None and args.churn_rate is not None:
        # Rebuilds under churn run on the active subset, which an n-node
        # static topology cannot describe.
        raise ConfigurationError(
            "--churn-rate cannot be combined with --topology"
        )
    values, topology = _load_values_and_topology(args)
    faults = None
    if args.faults:
        faults = build_injector(args.faults, args.fault_rate, args.seed)
    churn = None
    if args.churn_rate is not None:
        churn = ChurnProcess(values.size, churn_rate=args.churn_rate,
                             rng=args.seed)
    service = QuantileService(
        values,
        eps=args.eps,
        rng=args.seed,
        query_accuracy=args.query_accuracy,
        max_lanes=args.max_lanes,
        env=GossipEnv(topology=topology, dtype=args.dtype, faults=faults),
        churn_process=churn,
        auto_rebuild=(args.rebuild == "auto"),
    )
    lines = []
    if churn is not None and args.churn_rounds > 0:
        service.advance_churn(args.churn_rounds)
        stale = service.stale_lanes()
        lines.append(
            f"churn: advanced {args.churn_rounds} rounds "
            f"({int(np.sum(churn.active))}/{values.size} nodes active, "
            f"{len(stale)} stale lane(s), "
            f"{'degraded' if service.degraded else 'fresh'})"
        )
    for answer in service.batch_quantiles(args.phi):
        flag = ", degraded" if answer.degraded else ""
        lines.append(
            f"phi={answer.phi:g} -> {answer.value} "
            f"(rank accuracy ±{answer.accuracy:.4f}, "
            f"epoch {answer.epoch}{flag})"
        )
    summary = service.summary()
    lines.append(
        f"one pass: {summary['rounds']} gossip rounds over "
        f"{summary['grid_targets']} grid targets "
        f"({summary['chunks']} {'fused' if args.max_lanes > 1 else 'single-lane'} "
        f"run(s), {summary['gossip_bits']} bits); served "
        f"{summary['queries_answered']} queries for {summary['query_bits']} "
        f"bits — zero additional rounds"
    )
    if summary["rebuilds"] or summary["answers_degraded"]:
        lines.append(
            f"lifecycle: epoch {summary['epoch']}, "
            f"{summary['rebuilds']} rebuild(s), "
            f"{summary['answers_degraded']} degraded answer(s), "
            f"{summary['stale_lanes']} lane(s) still stale"
        )
    if faults is not None:
        injected = ", ".join(
            f"{kind}={count}" for kind, count in sorted(faults.counters.items())
            if count
        )
        lines.append(f"faults injected: {injected or 'none'}")
    return "\n".join(lines), service


async def _serve_listen(render, port: int, probe: bool) -> None:
    """Expose ``render()`` as a live /metrics endpoint (serve --listen)."""
    from repro.net import MetricsServer, fetch_metrics

    server = MetricsServer(render, port=port)
    await server.start()
    print(f"metrics: http://{server.host}:{server.port}/metrics")
    try:
        if probe:
            body = await fetch_metrics(server.host, server.port)
            samples = sum(
                1 for line in body.splitlines()
                if line and not line.startswith("#")
            )
            print(f"probe: scraped {len(body)} bytes, {samples} sample(s)")
        else:  # pragma: no cover - interactive serving loop
            print("serving scrapes; Ctrl-C to stop")
            await asyncio.Event().wait()
    except KeyboardInterrupt:  # pragma: no cover
        pass
    finally:
        await server.stop()


def _run_net(args: argparse.Namespace) -> Tuple[str, Optional[str]]:
    """The ``net`` subcommand: one protocol run on the asyncio backend.

    Returns the report text and, when ``--compare`` found the deployed
    run's accounting different from the vectorized engine's, the
    mismatch (the ``summary()`` fields that differ), else ``None``.
    """
    from repro.aggregates.extrema import spread_protocol
    from repro.aggregates.push_sum import PushSumProtocol
    from repro.net import MetricsServer, SwimFailureDetector, arun_protocol
    from repro.net.transport import ChannelTransport, TcpTransport

    if args.input is not None:
        values = np.loadtxt(args.input, dtype=float).ravel()
    else:
        values = np.random.default_rng(args.seed).normal(size=args.n)
    n = values.size

    faults = None
    if args.faults:
        faults = build_injector(args.faults, args.fault_rate, args.seed)

    def make_protocol():
        if args.protocol == "push-sum":
            return PushSumProtocol(values, rounds=args.rounds)
        return spread_protocol(values, env=GossipEnv(faults=faults))
    detector = (
        SwimFailureDetector(n, rng=args.seed, ping_timeout_s=0.05)
        if args.swim
        else None
    )
    metrics = NetworkMetrics()
    transport = (
        TcpTransport(n) if args.transport == "tcp" else ChannelTransport(n)
    )

    async def go():
        server = None
        if args.prom_port is not None:
            server = MetricsServer(
                lambda: render_prometheus(
                    metrics={"net": metrics},
                    faults={"net": faults} if faults is not None else None,
                ),
                port=args.prom_port,
            )
            await server.start()
            print(f"metrics: http://{server.host}:{server.port}/metrics")
        try:
            return await asyncio.wait_for(
                arun_protocol(
                    make_protocol(),
                    rng=args.seed,
                    metrics=metrics,
                    env=GossipEnv(faults=faults),
                    transport=transport,
                    detector=detector,
                    raise_on_budget=False,
                ),
                args.timeout,
            )
        finally:
            if server is not None:
                await server.stop()
            await transport.stop()

    result = asyncio.run(go())
    summary = metrics.summary()
    report = {
        "protocol": result.protocol_name,
        "engine": "asyncio",
        "transport": args.transport,
        "n": n,
        "rounds": result.rounds,
        "messages": summary["messages"],
        "bits": summary["total_bits"],
        "rpc_calls": result.extra["rpc_calls"],
        "rpc_retries": result.extra["rpc_retries"],
        "lost_messages": result.extra["lost_messages"],
    }
    if transport.latencies_s:
        latencies = np.asarray(transport.latencies_s)
        report["rpc_p50_us"] = float(np.quantile(latencies, 0.5) * 1e6)
        report["rpc_p99_us"] = float(np.quantile(latencies, 0.99) * 1e6)
    if detector is not None:
        report["suspected"] = result.extra["suspected"]
        report["confirmed_dead"] = result.extra["confirmed_dead"]
    if faults is not None:
        report["crashed_nodes"] = result.extra["crashed_nodes"]
        report["faults_injected"] = {
            kind: count
            for kind, count in sorted(faults.counters.items())
            if count
        }
    mismatch = None
    if args.compare:
        sim_metrics = NetworkMetrics()
        sim = run_protocol(
            make_protocol(), rng=args.seed, metrics=sim_metrics,
            raise_on_budget=False,
        )
        simulated = dict(sim_metrics.summary(), run_rounds=sim.rounds)
        deployed = dict(summary, run_rounds=result.rounds)
        differing = [key for key in deployed if simulated[key] != deployed[key]]
        if faults is not None or args.swim:
            report["parity"] = "n/a (faults/detector change the live run)"
        elif not differing:
            report["parity"] = (
                f"ok: rounds={sim.rounds}, messages={summary['messages']}, "
                f"bits={summary['total_bits']} identical on the vectorized engine"
            )
        else:
            mismatch = "MISMATCH: " + ", ".join(
                f"{key} simulated={simulated[key]} deployed={deployed[key]}"
                for key in differing
            )
            report["parity"] = mismatch
    if args.json:
        return json.dumps(report, indent=2, sort_keys=True), mismatch
    lines = [
        f"{report['protocol']} over {args.transport} transport: "
        f"n={n}, {report['rounds']} rounds, {report['messages']} messages, "
        f"{report['bits']} bits",
        f"rpc: {report['rpc_calls']} calls, {report['rpc_retries']} "
        f"retries, {report['lost_messages']} lost",
    ]
    if "rpc_p99_us" in report:
        lines.append(
            f"latency: p50={report['rpc_p50_us']:.0f}us "
            f"p99={report['rpc_p99_us']:.0f}us"
        )
    if detector is not None:
        lines.append(
            f"swim: suspected={report['suspected']} "
            f"confirmed={report['confirmed_dead']}"
        )
    if faults is not None:
        lines.append(
            f"chaos: crashed={report['crashed_nodes']} "
            f"injected={report['faults_injected']}"
        )
    if "parity" in report:
        lines.append(f"parity: {report['parity']}")
    return "\n".join(lines), mismatch


def _make_tracer(args: argparse.Namespace) -> Optional[Tracer]:
    """A tracer when any observability flag asked for one, else None.

    ``--trace`` keeps the per-round timeline (the JSONL dump carries a
    convergence trace); ``--profile`` / ``--prom`` only need span and
    label aggregates, which are O(1) memory per name.
    """
    if not (args.trace or args.profile or args.prom):
        return None
    return Tracer(round_timeline=bool(args.trace))


def _export_observability(
    args: argparse.Namespace, tracer: Optional[Tracer], service=None
) -> None:
    if tracer is None:
        return
    if args.trace:
        write_trace_jsonl(tracer, args.trace)
    if args.profile:
        print(render_profile(tracer))
    if args.prom:
        metrics = {}
        histograms = {}
        if service is not None:
            metrics["service_gossip"] = service.gossip_metrics
            metrics["service_queries"] = service.query_metrics
            histograms["query_latency"] = service.query_latency
        faults = {}
        if service is not None and service.faults is not None:
            faults["service"] = service.faults
        text = render_prometheus(
            tracer=tracer,
            metrics=metrics or None,
            histograms=histograms or None,
            faults=faults or None,
        )
        with open(args.prom, "w", encoding="utf-8") as stream:
            stream.write(text)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``repro-gossip`` console script."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    if args.command == "list":
        lines: List[str] = []
        for name, spec in REGISTRY.items():
            lines.append(f"{name:<16} {spec.claim:<22} {spec.description}")
        print("\n".join(lines))
        return 0
    tracer = _make_tracer(args)
    service = None
    status = 0
    with use_tracer(tracer) if tracer is not None else nullcontext():
        if args.command in ("query", "ranks", "serve"):
            if args.command == "query":
                print(_run_query(args))
            elif args.command == "ranks":
                print(_run_ranks(args))
            else:
                text, service = _run_serve(args)
                print(text)
            if args.command == "serve" and args.listen:
                served = service

                def _render_service() -> str:
                    histograms = {"query_latency": served.query_latency}
                    faults = (
                        {"service": served.faults}
                        if served.faults is not None
                        else None
                    )
                    return render_prometheus(
                        metrics={
                            "service_gossip": served.gossip_metrics,
                            "service_queries": served.query_metrics,
                        },
                        histograms=histograms,
                        faults=faults,
                    )

                asyncio.run(
                    _serve_listen(
                        _render_service, args.prom_port, args.listen_probe
                    )
                )
        elif args.command == "net":
            text, mismatch = _run_net(args)
            print(text)
            if mismatch is not None:
                print(f"parity: {mismatch}", file=sys.stderr)
                status = 1
        else:
            print(
                run_experiment(
                    args.command,
                    output=args.output,
                    workers=args.workers,
                    **_experiment_kwargs(args),
                )
            )
    _export_observability(args, tracer, service=service)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
