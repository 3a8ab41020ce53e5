"""Live /metrics endpoint and the CLI surfaces of the net backend.

The headline test scrapes the Prometheus endpoint *while* a gossip run is
in flight on the same event loop — the deployment story of ``serve
--listen`` and ``net --prom-port``, exercised in-process.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.aggregates.push_sum import PushSumProtocol
from repro.gossip.metrics import NetworkMetrics
from repro.net import MetricsServer, arun_protocol, fetch_metrics
from repro.obs import render_prometheus

REPO_ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 30.0


def run(coro, timeout_s: float = TIMEOUT_S):
    return asyncio.run(asyncio.wait_for(coro, timeout_s))


def _cli_env() -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    return env


def _cli(*argv: str, timeout_s: float = 120.0):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True,
        text=True,
        env=_cli_env(),
        cwd=str(REPO_ROOT),
        timeout=timeout_s,
    )


# -- the live endpoint -----------------------------------------------------


def test_metrics_endpoint_scrapes_a_run_in_flight():
    """Counters move between scrapes taken mid-run: the endpoint serves the
    live run, not a post-hoc snapshot."""
    metrics = NetworkMetrics()
    values = np.random.default_rng(0).normal(size=16)
    mid_run_bodies = []

    async def go():
        server = MetricsServer(
            lambda: render_prometheus(metrics={"net": metrics})
        )
        await server.start()
        runner = asyncio.create_task(
            arun_protocol(PushSumProtocol(values, rounds=40), rng=1,
                          metrics=metrics)
        )
        try:
            while not runner.done() and len(mid_run_bodies) < 3:
                mid_run_bodies.append(
                    await fetch_metrics(server.host, server.port)
                )
                await asyncio.sleep(0.005)
            await runner
        finally:
            await server.stop()
        return server.scrapes

    scrapes = run(go())
    assert scrapes == len(mid_run_bodies) >= 1
    for body in mid_run_bodies:
        assert "repro_metrics_messages" in body
    counts = [
        float(line.split()[-1])
        for body in mid_run_bodies
        for line in body.splitlines()
        if line.startswith("repro_metrics_messages{")
    ]
    # Monotone non-decreasing across scrapes; the run finished past them.
    assert counts == sorted(counts)
    assert metrics.messages == 16 * 40


def test_metrics_endpoint_rejects_unknown_paths():
    async def go():
        server = MetricsServer(lambda: "x 1\n")
        await server.start()
        try:
            with pytest.raises(ConnectionError, match="404"):
                await fetch_metrics(server.host, server.port, path="/nope")
            body = await fetch_metrics(server.host, server.port)
            assert body == "x 1\n"
        finally:
            await server.stop()

    run(go())


def test_metrics_server_renders_at_scrape_time():
    state = {"v": 1}

    async def go():
        server = MetricsServer(lambda: f"v {state['v']}\n")
        await server.start()
        try:
            first = await fetch_metrics(server.host, server.port)
            state["v"] = 2
            second = await fetch_metrics(server.host, server.port)
        finally:
            await server.stop()
        return first, second

    first, second = run(go())
    assert first == "v 1\n"
    assert second == "v 2\n"


# -- CLI surfaces ----------------------------------------------------------


def test_cli_net_compare_pins_parity():
    proc = _cli("net", "--n", "8", "--seed", "3", "--compare")
    assert proc.returncode == 0, proc.stderr
    assert "parity: ok" in proc.stdout


def test_cli_net_compare_fails_and_names_a_mismatch(monkeypatch, capsys):
    from repro import cli

    simulated = cli.run_protocol

    def one_message_more(protocol, **kwargs):
        result = simulated(protocol, **kwargs)
        kwargs["metrics"].messages += 1
        return result

    monkeypatch.setattr(cli, "run_protocol", one_message_more)
    assert cli.main(["net", "--n", "8", "--seed", "3", "--compare"]) == 1
    out, err = capsys.readouterr()
    assert "parity: MISMATCH: messages simulated=" in out
    assert "parity: MISMATCH: messages simulated=" in err
    # only the skewed field is named
    assert "total_bits" not in err and "rounds" not in err


def test_cli_net_json_reports_the_run(tmp_path):
    proc = _cli(
        "net", "--n", "8", "--seed", "3", "--protocol", "extrema", "--json"
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["engine"] == "asyncio"
    assert report["protocol"].startswith("extrema")
    assert report["rounds"] >= 1
    assert report["rpc_retries"] == 0
    assert "rpc_p99_us" in report


def test_cli_net_serves_metrics_during_the_run():
    proc = _cli(
        "net", "--n", "8", "--seed", "3", "--prom-port", "0",
    )
    assert proc.returncode == 0, proc.stderr
    assert "metrics: http://127.0.0.1:" in proc.stdout


def test_cli_serve_listen_probe_scrapes_itself(tmp_path):
    values_file = tmp_path / "values.txt"
    np.savetxt(values_file, np.random.default_rng(0).normal(size=64))
    proc = _cli(
        "serve", "--input", str(values_file), "--eps", "0.1",
        "--phi", "0.5", "--listen", "--listen-probe",
    )
    assert proc.returncode == 0, proc.stderr
    assert "metrics: http://127.0.0.1:" in proc.stdout
    assert "probe: scraped" in proc.stdout
