"""``benchmarks/bench_trend.py``: which row fields are identity and which
are gated, on a live-backend row of ``BENCH_net.json``."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_trend.py"
_SPEC = importlib.util.spec_from_file_location("bench_trend", _PATH)
bench_trend = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_trend)

NET_ROW = {
    "n": 32,
    "transport": "tcp",
    "rounds": 30,
    "wall_s": 0.26,
    "rounds_per_sec": 115.8,
    "slowdown_vs_vectorized": 143.0,
    "rpc_calls": 960,
    "rpc_p50_us": 4096.0,
    "rpc_p99_us": 27051.4,
}


def _compare(current_row, include_wall=False):
    return bench_trend.compare(
        {"BENCH_net.json": {"rows": [NET_ROW]}},
        {"BENCH_net.json": {"rows": [current_row]}},
        threshold=1.5,
        include_wall=include_wall,
    )


def test_a_net_row_with_new_latencies_matches_its_baseline():
    row = dict(NET_ROW, rpc_p50_us=310.0, rpc_p99_us=2900.0, wall_s=0.2)
    regressions, notes = _compare(row)
    assert regressions == []
    assert notes == ["BENCH_net.json: compared 1 matching row(s)"]


def test_net_latencies_gate_only_with_include_wall():
    slower = dict(NET_ROW, rpc_p99_us=3 * NET_ROW["rpc_p99_us"])
    assert _compare(slower)[0] == []
    (regression,) = _compare(slower, include_wall=True)[0]
    assert "rpc_p99_us" in regression


def test_net_round_and_throughput_columns_are_gated():
    slower = dict(NET_ROW, rounds_per_sec=50.0, slowdown_vs_vectorized=330.0)
    regressions, _ = _compare(slower)
    assert len(regressions) == 2
    assert any("rounds_per_sec" in line for line in regressions)
    assert any("slowdown_vs_vectorized" in line for line in regressions)
    more_rounds, _ = _compare(dict(NET_ROW, rounds=60))
    assert len(more_rounds) == 1 and "rounds 30 -> 60" in more_rounds[0]
