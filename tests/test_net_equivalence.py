"""The simulated ≡ deployed equivalence suite.

The *same* protocol subclasses, unmodified, run on the vectorized engine
and on the live asyncio backend with identical round counts, identical
per-node outputs, and identical :class:`NetworkMetrics` message/bit totals
(faults disabled).  The equivalence is by construction — the asyncio
runner consumes the vectorized engine's round prologue — and these tests
are the pin that keeps it that way.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import importlib
import json

import numpy as np
import pytest

from repro.aggregates.extrema import spread_protocol
from repro.aggregates.push_sum import PushSumProtocol
from repro.core.exact_quantile import exact_quantile
from repro.exceptions import ConfigurationError, ProtocolError
from repro.gossip.engine import run_protocol
from repro.gossip.env import ENGINE_CHOICES, GossipEnv
from repro.gossip.metrics import NetworkMetrics
from repro.gossip.protocol import Action, GossipProtocol
from repro.net import arun_protocol, run_protocol_asyncio
from repro.topology import ChurnProcess


def _values(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=n)


def _run_engine(engine, make_protocol, seed, failure_model=None):
    metrics = NetworkMetrics()
    result = run_protocol(
        make_protocol(), rng=seed, metrics=metrics,
        env=GossipEnv(failure_model=failure_model, engine=engine),
    )
    return result, metrics


def _assert_engines_equal(make_protocol, seed):
    """vectorized ≡ asyncio: rounds, outputs, message/bit totals."""
    results = {
        engine: _run_engine(engine, make_protocol, seed)
        for engine in ("vectorized", "asyncio")
    }
    vec_result, vec_metrics = results["vectorized"]
    result, metrics = results["asyncio"]
    assert result.rounds == vec_result.rounds
    assert metrics.summary() == vec_metrics.summary()
    np.testing.assert_array_equal(result.outputs_array, vec_result.outputs_array)
    return results


@pytest.mark.parametrize("n", [8, 32])
def test_push_sum_pins_across_both_engines(n):
    values = _values(n, seed=1)
    results = _assert_engines_equal(
        lambda: PushSumProtocol(values, rounds=20), seed=5
    )
    result, metrics = results["asyncio"]
    assert result.rounds == 20
    # The per-message accounting, applied literally: one push per live
    # node per round.
    assert metrics.summary()["messages"] == n * 20
    assert result.extra["transport"] == "ChannelTransport"
    assert result.extra["lost_messages"] == 0


@pytest.mark.parametrize("n", [8, 32])
def test_extrema_pins_across_both_engines(n):
    values = _values(n, seed=2)
    results = _assert_engines_equal(lambda: spread_protocol(values), seed=9)
    result, _ = results["asyncio"]
    # the protocol stores the max lane negated
    assert np.all(result.outputs_array == -values.max())


def test_push_sum_converges_to_the_mean_over_the_network():
    values = _values(16, seed=3)
    result = run_protocol_asyncio(PushSumProtocol(values), rng=4)
    np.testing.assert_allclose(
        result.outputs_array, values.mean(), rtol=1e-4
    )


def test_failure_model_parity_vectorized_vs_asyncio():
    """The failure mask comes from the shared prologue, so a lossy run
    (mu=0.2) is *also* bit-identical between simulated and deployed."""
    values = _values(16, seed=4)
    vec_result, vec_metrics = _run_engine(
        "vectorized", lambda: PushSumProtocol(values, rounds=15), 7,
        failure_model=0.2,
    )
    net_result, net_metrics = _run_engine(
        "asyncio", lambda: PushSumProtocol(values, rounds=15), 7,
        failure_model=0.2,
    )
    assert net_result.rounds == vec_result.rounds
    assert net_metrics.summary() == vec_metrics.summary()
    assert net_metrics.summary()["failed_node_rounds"] > 0
    np.testing.assert_array_equal(
        net_result.outputs_array, vec_result.outputs_array
    )


def test_tcp_transport_matches_the_vectorized_engine():
    """One pin over real loopback sockets: the transport is swappable
    without touching the accounting."""
    values = _values(8, seed=5)
    vec_result, vec_metrics = _run_engine(
        "vectorized", lambda: spread_protocol(values), 11
    )
    metrics = NetworkMetrics()
    result = run_protocol_asyncio(
        spread_protocol(values), rng=11, metrics=metrics, transport="tcp"
    )
    assert result.extra["transport"] == "TcpTransport"
    assert result.rounds == vec_result.rounds
    assert metrics.summary() == vec_metrics.summary()
    np.testing.assert_array_equal(
        result.outputs_array, vec_result.outputs_array
    )


@pytest.mark.parametrize("seed", range(3))
def test_exact_quantile_on_asyncio_matches_the_vectorized_run(seed):
    """Algorithm 3 end to end with extrema and counting on the asyncio
    engine over in-process channels: the same value, rounds, per-iteration
    history and metrics as the vectorized run."""
    values = np.random.default_rng(seed).permutation(np.arange(1.0, 65.0))

    def run(engine):
        result = exact_quantile(values, 0.5, rng=seed,
                                env=GossipEnv(engine=engine))
        history = [dataclasses.asdict(stats) for stats in result.history]
        digest = hashlib.sha256(json.dumps(
            [history, result.metrics.summary()], sort_keys=True
        ).encode()).hexdigest()
        return result.value, result.rounds, digest

    vectorized = run("vectorized")
    assert vectorized[0] == float(np.sort(values)[31])
    assert run("asyncio") == vectorized


@pytest.mark.parametrize("seed", range(2))
def test_exact_quantile_under_corruption_agrees_across_engines(seed, monkeypatch):
    """Under ``ValueCorruption(0.05)`` at n = 256 both engines spread the
    same corrupted Step-4 lanes and end the same way.  A corrupted copy of
    a sandwich bound spreads like any extreme, so the bounds drift and a
    full query runs thousands of rounds; one pass with no retries keeps
    the asyncio run to about a second and still ends in a typed error."""
    from repro.exceptions import ReproError
    from repro.faults import FaultInjector, ValueCorruption

    exact_module = importlib.import_module("repro.core.exact_quantile")
    spread = exact_module.spread_extrema
    values = np.random.default_rng(seed).permutation(256).astype(float)

    def run(engine):
        spreads = []

        def spy(lanes, **kwargs):
            result = spread(lanes, **kwargs)
            spreads.append((result.values.tobytes(), result.rounds))
            return result

        monkeypatch.setattr(exact_module, "spread_extrema", spy)
        env = GossipEnv(engine=engine,
                        faults=FaultInjector(ValueCorruption(0.05), rng=seed))
        try:
            result = exact_quantile(values, 0.5, rng=seed, env=env,
                                    max_iterations=1, max_retries=0)
        except ReproError as exc:
            outcome = (type(exc).__name__, str(exc))
        else:
            outcome = (result.value, result.rounds, result.metrics.summary())
        return outcome, spreads

    vectorized = run("vectorized")
    assert vectorized[1]
    assert run("asyncio") == vectorized


# -- engine dispatch -------------------------------------------------------


def test_asyncio_is_a_first_class_engine_choice():
    assert "asyncio" in ENGINE_CHOICES


def test_default_engine_never_selects_the_asyncio_engine():
    values = _values(8)
    metrics = NetworkMetrics()
    result = run_protocol(
        PushSumProtocol(values, rounds=3), rng=0, metrics=metrics,
        env=GossipEnv(),
    )
    # An asyncio run stamps its transport into result.extra; the default
    # (vectorized) engine must not.
    assert "transport" not in result.extra


def test_non_batch_protocols_are_rejected_with_a_clear_error():
    class OrderSensitive(GossipProtocol):
        name = "order-sensitive"

        def __init__(self):
            super().__init__(4)

        def act(self, node, round_index):
            return Action("idle")

        def on_receive(self, node, payload, sender, kind, round_index):
            pass

        def is_done(self, round_index):
            return round_index >= 1

        def outputs(self):
            return [0.0] * self.n

    with pytest.raises(ProtocolError, match="delivery-order"):
        run_protocol_asyncio(OrderSensitive(), rng=0)


def test_sync_entry_point_refuses_a_running_loop():
    async def go():
        with pytest.raises(ConfigurationError, match="running event loop"):
            run_protocol_asyncio(PushSumProtocol(_values(4), rounds=2), rng=0)

    asyncio.run(go())


def test_asyncio_runner_rejects_a_process_of_the_wrong_size():
    # The engines' shared prologue, run before any endpoint opens.
    env = GossipEnv(topology_process=ChurnProcess(8, churn_rate=0.1, rng=0))
    with pytest.raises(ConfigurationError):
        run_protocol_asyncio(PushSumProtocol(_values(4), rounds=2), rng=0, env=env)


def test_run_timeout_must_be_positive():
    with pytest.raises(ConfigurationError):
        run_protocol_asyncio(
            PushSumProtocol(_values(4), rounds=2), rng=0, run_timeout_s=0
        )


def test_arun_protocol_composes_inside_an_existing_loop():
    """The async body is the composition surface: callers that already own
    a loop (the CLI's --prom-port path, the live-scrape test) await it."""
    values = _values(8, seed=6)

    async def go():
        return await asyncio.wait_for(
            arun_protocol(PushSumProtocol(values, rounds=5), rng=1), 30.0
        )

    result = asyncio.run(go())
    assert result.rounds == 5


# ---- tournaments on the asyncio engine --------------------------------------


def _tournament_runs(engine, seed, monkeypatch):
    """The three tournament entry points at n = 64 on one engine."""
    from importlib import import_module

    from repro.core.approx_quantile import approximate_quantile
    from repro.core.robust import robust_approximate_quantile

    values = _values(64, seed=seed)
    approx = approximate_quantile(
        np.column_stack([values, values]), phi=(0.2, 0.65), eps=0.1,
        rng=seed, env=GossipEnv(engine=engine),
    )
    robust = robust_approximate_quantile(
        values, 0.5, 0.1, rng=seed,
        env=GossipEnv(failure_model=0.2, engine=engine),
    )
    # median_rule takes a failure model rather than an env; run it in an
    # env on the requested engine.
    median_rule_module = import_module("repro.baselines.median_rule")
    monkeypatch.setattr(
        median_rule_module, "GossipEnv",
        lambda failure_model: GossipEnv(failure_model=failure_model,
                                        engine=engine),
    )
    median = median_rule_module.median_rule(values, rng=seed)
    return [
        (result_values, result.rounds, result.metrics.summary())
        for result, result_values in (
            (approx, approx.estimates),
            (robust, robust.estimates),
            (median, median.values),
        )
    ]


@pytest.mark.parametrize("seed", range(3))
def test_tournaments_on_asyncio_match_the_vectorized_run(seed, monkeypatch):
    """A 2-lane approximate quantile, the robust variant under failures and
    the median rule run as pull windows on the asyncio engine over
    in-process channels: the same estimates, rounds and metrics as on the
    vectorized engine."""
    vectorized = _tournament_runs("vectorized", seed, monkeypatch)
    deployed = _tournament_runs("asyncio", seed, monkeypatch)
    for (vec_values, vec_rounds, vec_summary), (values, rounds, summary) in zip(
        vectorized, deployed
    ):
        np.testing.assert_array_equal(values, vec_values)
        assert rounds == vec_rounds
        assert summary == vec_summary
    robust_summary = vectorized[1][2]
    assert robust_summary["failed_node_rounds"] > 0


def _faulted_tournament_runs(engine, seed):
    """A 2-lane approximate quantile and the robust variant at n = 64 under
    drops, corruption, duplicates and delays, with each run's injector."""
    from repro.core.approx_quantile import approximate_quantile
    from repro.core.robust import robust_approximate_quantile
    from repro.faults import (
        FaultInjector, MessageDelay, MessageDrop, MessageDuplication, ValueCorruption,
    )

    def env():
        faults = FaultInjector(
            [MessageDrop(0.2), ValueCorruption(0.2), MessageDuplication(0.2),
             MessageDelay(0.2, max_delay=2)],
            rng=seed,
        )
        return GossipEnv(faults=faults, engine=engine)

    values = _values(64, seed=seed)
    approx_env, robust_env = env(), env()
    approx = approximate_quantile(
        np.column_stack([values, values]), phi=(0.2, 0.65), eps=0.1,
        rng=seed, env=approx_env,
    )
    robust = robust_approximate_quantile(values, 0.5, 0.1, rng=seed, env=robust_env)
    return [
        (result.estimates, result.rounds, result.metrics.summary(),
         run_env.faults.counters["drop"])
        for result, run_env in ((approx, approx_env), (robust, robust_env))
    ]


@pytest.mark.parametrize("seed", range(3))
def test_tournaments_under_message_faults_on_asyncio_match_the_vectorized_run(seed):
    """Both engines hand each round's faults to the pull windows, which
    apply corruption, delays and duplicate charges to the pulls alike; a
    dropped pull reads the puller's own value on both.  Estimates, rounds
    and message/bit totals agree.  The one difference is by design: the
    vectorized engine counts a dropped puller as a failed node, the
    asyncio engine as a request lost in flight."""
    vectorized = _faulted_tournament_runs("vectorized", seed)
    deployed = _faulted_tournament_runs("asyncio", seed)
    for (vec_values, vec_rounds, vec_summary, drops), (values, rounds, summary, _) in zip(
        vectorized, deployed
    ):
        np.testing.assert_array_equal(values, vec_values)
        assert rounds == vec_rounds
        assert drops > 0
        assert vec_summary["failed_node_rounds"] == drops
        assert summary["failed_node_rounds"] == 0
        vec_summary.pop("failed_node_rounds")
        summary.pop("failed_node_rounds")
        assert summary == vec_summary
