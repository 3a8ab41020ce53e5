"""Tests for repro.obs — tracer, spans, engine hooks, exporters.

The two contracts everything else rests on:

* the null tracer is free (shared singletons, no per-call allocation, no
  per-round engine clock reads), so instrumentation can stay enabled at
  every call site;
* an active tracer only *reads* state — identical seeds give bit-identical
  results with and without tracing, including the pinned single-lane
  streams.
"""

import json

import numpy as np
import pytest

from repro.aggregates.extrema import spread_protocol
from repro.aggregates.push_sum import PushSumProtocol
from repro.core.all_quantiles import estimate_all_ranks
from repro.core.approx_quantile import approximate_quantile
from repro.core.exact_quantile import exact_quantile
from repro.core.service import QuantileService
from repro.gossip.engine import run_protocol_vectorized
from repro.net import run_protocol_asyncio
from repro.gossip.metrics import NetworkMetrics
from repro.obs import (
    NULL_TRACER,
    LatencyHistogram,
    Tracer,
    get_tracer,
    render_profile,
    render_prometheus,
    set_tracer,
    use_tracer,
    write_trace_jsonl,
)
from repro.utils.rand import RandomSource


def _values(n, seed=3):
    return RandomSource(seed).random(n) * 100.0


# -- the null tracer ----------------------------------------------------------


def test_null_tracer_is_the_ambient_default():
    assert get_tracer() is NULL_TRACER
    assert NULL_TRACER.active is False
    assert NULL_TRACER.on_round is None


def test_null_tracer_hands_out_one_shared_span():
    span_a = NULL_TRACER.span("a", metrics=NetworkMetrics())
    span_b = NULL_TRACER.span("b")
    assert span_a is span_b  # singleton: no allocation per call site
    with span_a as entered:
        assert entered is span_a
        assert entered.annotate(anything=1) is span_a


def test_use_tracer_restores_previous_tracer():
    tracer = Tracer()
    with use_tracer(tracer):
        assert get_tracer() is tracer
        inner = Tracer()
        with use_tracer(inner):
            assert get_tracer() is inner
        assert get_tracer() is tracer
    assert get_tracer() is NULL_TRACER


def test_use_tracer_restores_on_exception():
    with pytest.raises(RuntimeError):
        with use_tracer(Tracer()):
            raise RuntimeError("boom")
    assert get_tracer() is NULL_TRACER


def test_set_tracer_none_installs_null():
    previous = set_tracer(None)
    assert previous is NULL_TRACER
    assert get_tracer() is NULL_TRACER


# -- spans --------------------------------------------------------------------


def test_span_nesting_parent_and_depth():
    tracer = Tracer()
    with tracer.span("root"):
        with tracer.span("child"):
            with tracer.span("grandchild"):
                pass
        with tracer.span("sibling"):
            pass
    root, child, grandchild, sibling = tracer.spans
    assert (root.parent, root.depth) == (None, 0)
    assert (child.parent, child.depth) == (root.index, 1)
    assert (grandchild.parent, grandchild.depth) == (child.index, 2)
    assert (sibling.parent, sibling.depth) == (root.index, 1)
    assert all(span.done for span in tracer.spans)
    assert [s.name for s in tracer.root_spans()] == ["root"]
    assert [s.name for s in tracer.children(root.index)] == [
        "child", "sibling",
    ]


def test_span_captures_metric_deltas():
    tracer = Tracer()
    metrics = NetworkMetrics()
    metrics.charge_rounds(3)  # pre-span counts must not leak into the span
    with tracer.span("window", metrics) as span:
        span.annotate(tag="x")
        metrics.begin_round()
        metrics.record_messages(4, 10)
        metrics.record_failures(2)
        metrics.record_query(64, count=2)
    record = tracer.spans[0]
    assert record.rounds == 1
    assert record.messages == 6        # 4 gossip + 2 query messages
    assert record.bits == 4 * 10 + 2 * 64
    assert record.queries == 2
    assert record.query_bits == 2 * 64
    assert record.failed_node_rounds == 2
    assert record.meta == {"tag": "x"}
    assert record.wall_s >= 0.0


def test_totals_sum_root_spans_only():
    tracer = Tracer()
    metrics = NetworkMetrics()
    with tracer.span("root", metrics):
        with tracer.span("child", metrics):
            metrics.charge_rounds(5)
    totals = tracer.totals()
    assert totals["rounds"] == 5       # not 10: the child is a sub-window
    assert totals["spans"] == 2
    agg = tracer.aggregate()
    assert agg["root"]["rounds"] == 5
    assert agg["child"]["rounds"] == 5


# -- engine hooks -------------------------------------------------------------


ENGINES = [run_protocol_asyncio, run_protocol_vectorized]


@pytest.mark.parametrize("engine", ENGINES, ids=["asyncio", "vectorized"])
def test_on_round_hook_fires_once_per_round(engine):
    calls = []
    result = engine(
        PushSumProtocol(_values(64), rounds=20),
        rng=1,
        on_round=lambda record, elapsed: calls.append((record, elapsed)),
    )
    assert len(calls) == result.rounds
    assert [record.round_index for record, _ in calls] == list(
        range(result.rounds)
    )
    assert all(elapsed >= 0.0 for _, elapsed in calls)


def test_hook_counts_agree_across_engines():
    net_calls, vec_calls = [], []
    net = run_protocol_asyncio(
        spread_protocol(_values(64), mode="max"), rng=2,
        on_round=lambda r, e: net_calls.append(r.round_index),
    )
    vec = run_protocol_vectorized(
        spread_protocol(_values(64), mode="max"), rng=2,
        on_round=lambda r, e: vec_calls.append(r.round_index),
    )
    assert net.rounds == vec.rounds
    assert net_calls == vec_calls


@pytest.mark.parametrize("engine", ENGINES, ids=["asyncio", "vectorized"])
def test_ambient_tracer_hook_observes_engine_rounds(engine):
    tracer = Tracer(round_timeline=True)
    with use_tracer(tracer):
        result = engine(PushSumProtocol(_values(64), rounds=15), rng=4)
    assert tracer.rounds_observed == result.rounds
    assert len(tracer.timeline) == result.rounds
    assert tracer.rounds_per_sec > 0.0
    labels = tracer.round_labels()
    assert sum(agg["rounds"] for agg in labels.values()) == result.rounds


@pytest.mark.parametrize("engine", ENGINES, ids=["asyncio", "vectorized"])
def test_explicit_hook_wins_over_ambient_tracer(engine):
    tracer = Tracer()
    calls = []
    with use_tracer(tracer):
        result = engine(
            PushSumProtocol(_values(32), rounds=10), rng=4,
            on_round=lambda r, e: calls.append(r),
        )
    assert len(calls) == result.rounds
    assert tracer.rounds_observed == 0


@pytest.mark.parametrize("engine", ENGINES, ids=["asyncio", "vectorized"])
def test_hook_does_not_perturb_engine_streams(engine):
    baseline = engine(PushSumProtocol(_values(64), rounds=20), rng=9)
    with use_tracer(Tracer()):
        traced = engine(PushSumProtocol(_values(64), rounds=20), rng=9)
    assert traced.outputs == baseline.outputs
    assert traced.rounds == baseline.rounds
    assert traced.metrics.summary() == baseline.metrics.summary()


# -- tracing never perturbs the algorithms ------------------------------------


def test_pinned_streams_survive_an_active_tracer():
    """The PR-4 sha256 stream pins must hold with tracing enabled."""
    from test_engine_equivalence import (
        SINGLE_LANE_PINS,
        _digest,
        _pin_values,
    )
    from repro.core.three_tournament import run_three_tournament
    from repro.core.two_tournament import run_two_tournament
    from repro.gossip.network import GossipNetwork

    with use_tracer(Tracer(round_timeline=True)):
        net = GossipNetwork(_pin_values(), rng=12)
        batch = net.pull(3)
        assert _digest(batch.partners, batch.values, batch.ok) == (
            SINGLE_LANE_PINS["pull_nofail"]
        )
        two = run_two_tournament(_pin_values(), phi=0.3, eps=0.1, rng=5)
        assert _digest(two.final_values) == SINGLE_LANE_PINS["two_tournament"]
        three = run_three_tournament(_pin_values(), eps=0.05, rng=6)
        assert _digest(three.final_values) == (
            SINGLE_LANE_PINS["three_tournament"]
        )
        result = approximate_quantile(_pin_values(), phi=0.35, eps=0.1, rng=7)
        assert _digest(result.estimates) == SINGLE_LANE_PINS["approx"]


def test_traced_exact_quantile_matches_untraced():
    values = _values(4000, seed=8)
    baseline = exact_quantile(values, phi=0.25, rng=13)
    tracer = Tracer(round_timeline=True)
    with use_tracer(tracer):
        traced = exact_quantile(values, phi=0.25, rng=13)
    assert traced.value == baseline.value
    assert traced.rounds == baseline.rounds
    assert traced.metrics.summary() == baseline.metrics.summary()
    # the root span's counter deltas are the whole run
    root = tracer.find_spans("exact_quantile")[0]
    assert root.rounds == traced.rounds
    assert root.meta["iterations"] == traced.iterations
    # the step spans partition the root's rounds exactly
    step_rounds = sum(
        span.rounds for span in tracer.children(root.index)
    )
    assert step_rounds == traced.rounds
    names = {span.name for span in tracer.spans}
    assert {"exact_quantile", "sandwich", "extrema", "counting", "tokens",
            "final_query", "approx_quantile", "two_tournament",
            "three_tournament"} <= names
    assert tracer.rounds_observed > 0  # engine substrates were hooked


def test_traced_all_ranks_matches_untraced_and_spans_cover_rounds():
    values = _values(600, seed=5)
    baseline = estimate_all_ranks(values, eps=0.2, rng=21)
    tracer = Tracer()
    with use_tracer(tracer):
        traced = estimate_all_ranks(values, eps=0.2, rng=21)
    assert np.array_equal(
        traced.quantile_estimates, baseline.quantile_estimates
    )
    assert traced.rounds == baseline.rounds
    root = tracer.find_spans("all_ranks")[0]
    assert root.rounds == traced.rounds
    chunks = tracer.find_spans("grid_chunk")
    assert len(chunks) == traced.chunks
    assert sum(span.rounds for span in chunks) == traced.rounds


# -- service instrumentation --------------------------------------------------


def test_service_latency_histogram_and_answer_sources():
    values = _values(256, seed=6)
    service = QuantileService(values, eps=0.1, rng=3)
    service.quantile(0.5)                      # grid bracket
    service.rank_of(float(values[0]))          # the whole ladder
    assert service.query_latency.count == service.queries_answered == 2
    assert service.summary()["queries_answered"] == 2
    latency = service.query_latency.summary()
    assert latency["count"] == 2
    assert latency["max_s"] > 0.0
    # quantiles report bucket upper bounds, so only compare them to each other
    assert 0.0 < latency["p50_s"] <= latency["p99_s"]


def test_service_build_span_records_build_rounds():
    tracer = Tracer()
    with use_tracer(tracer):
        service = QuantileService(_values(256, seed=6), eps=0.2, rng=3)
    build = tracer.find_spans("service_build")[0]
    assert build.rounds == service.rounds
    # query-time instrumentation is span-free (histogram only)
    spans_before = len(tracer.spans)
    with use_tracer(tracer):
        service.quantile(0.4)
    assert len(tracer.spans) == spans_before


# -- the latency histogram ----------------------------------------------------


def test_latency_histogram_buckets_and_quantiles():
    hist = LatencyHistogram()
    assert hist.summary() == {
        "count": 0, "mean_s": 0.0, "p50_s": 0.0, "p99_s": 0.0, "max_s": 0.0,
    }
    for seconds in (2e-6, 2e-6, 5e-6, 1e-3):
        hist.observe(seconds)
    assert hist.count == 4
    assert hist.min_s == 2e-6
    assert hist.max_s == 1e-3
    assert hist.quantile(0.5) <= hist.quantile(0.99)
    with pytest.raises(ValueError):
        hist.observe(-1.0)
    with pytest.raises(ValueError):
        hist.quantile(1.5)


def test_latency_histogram_overflow_bucket():
    hist = LatencyHistogram()
    hist.observe(100.0)  # beyond the ~4 s top bound
    assert hist.overflow == 1
    assert hist.count == 1


# -- exporters ----------------------------------------------------------------


@pytest.fixture
def small_trace():
    tracer = Tracer(round_timeline=True)
    with use_tracer(tracer):
        approximate_quantile(_values(128, seed=2), phi=0.5, eps=0.2, rng=1)
        # the tournaments run on the engine too; one more protocol run
        # adds push-sum rounds to the timeline
        run_protocol_vectorized(PushSumProtocol(_values(32), rounds=5), rng=1)
    return tracer


def test_jsonl_roundtrip(tmp_path, small_trace):
    path = tmp_path / "trace.jsonl"
    lines = write_trace_jsonl(small_trace, path)
    parsed = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(parsed) == lines
    types = {line["type"] for line in parsed}
    assert types == {"span", "event", "round", "summary"}
    spans = [line for line in parsed if line["type"] == "span"]
    assert len(spans) == len(small_trace.spans)
    assert all(span["done"] for span in spans)
    summary = parsed[-1]
    assert summary["type"] == "summary"
    assert summary["totals"]["rounds"] == small_trace.totals()["rounds"]
    rounds = [line for line in parsed if line["type"] == "round"]
    assert len(rounds) == small_trace.rounds_observed


def test_render_profile_contains_span_tree(small_trace):
    text = render_profile(small_trace)
    assert "approx_quantile" in text
    assert "two_tournament" in text
    assert "three_tournament" in text
    assert "total" in text
    shallow = render_profile(small_trace, max_depth=0)
    assert "two_tournament" not in shallow


def test_render_prometheus_families(small_trace):
    hist = LatencyHistogram()
    hist.observe(3e-6)
    metrics = NetworkMetrics()
    metrics.record_query(96)
    text = render_prometheus(
        tracer=small_trace,
        metrics={"serve": metrics},
        histograms={"query_latency": hist},
    )
    assert "# TYPE repro_rounds_total counter" in text
    assert 'repro_span_rounds{span="approx_quantile"}' in text
    assert "repro_engine_rounds_per_sec" in text
    assert 'repro_metrics_queries{instance="serve"} 1' in text
    assert "# TYPE repro_query_latency_seconds histogram" in text
    assert 'repro_query_latency_seconds_bucket{le="+Inf"} 1' in text
    assert "repro_query_latency_seconds_count 1" in text
