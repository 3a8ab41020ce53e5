"""sha256 stream pins for push-sum and everything that counts with it.

The engine-equivalence suite checks that the vectorized and asyncio
engines agree with *each other*; a change to push-sum's state storage that
moved both engines the same way would pass it.  These digests were
captured before the ``(s, w)`` pair was packed into one complex element
(on the per-node loop engine and the vectorized engine alike) and pin the
absolute streams: per-node estimates, rounds and the metrics of
``push_sum_average``, ``push_sum_sum`` and ``count_leq`` in four run
environments on the vectorized engine and on the asyncio engine over
in-process channels, a simulated ``exact_quantile``
with its per-iteration history, a simulated Kempe selection, and push-sum
on signed zeros, infinities and zero weights on both engines.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.aggregates.counting import count_leq
from repro.aggregates.push_sum import PushSumProtocol, push_sum_average, push_sum_sum
from repro.baselines.kempe_quantile import kempe_exact_quantile
from repro.core.exact_quantile import exact_quantile
from repro.gossip.engine import run_protocol
from repro.gossip.env import GossipEnv
from repro.gossip.failures import UniformFailures
from repro.topology import ChurnProcess, watts_strogatz
from repro.utils.rand import RandomSource

N = 257


def _digest(*parts):
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(np.ascontiguousarray(part).tobytes())
        else:
            digest.update(json.dumps(part, sort_keys=True).encode())
    return digest.hexdigest()[:16]


def _values():
    return RandomSource(44).random(N) * 100.0


def _env(config, engine):
    if config == "failure-free":
        return GossipEnv(engine=engine)
    if config == "failures":
        return GossipEnv(failure_model=UniformFailures(0.3), engine=engine)
    if config == "sparse":
        return GossipEnv(topology=watts_strogatz(N, 6, 0.2, rng=3), engine=engine)
    assert config == "process"
    return GossipEnv(
        topology_process=ChurnProcess(n=N, churn_rate=0.1, rng=9), engine=engine
    )


def _push_sum_average(env):
    result = push_sum_average(_values(), rng=12, rounds=30, env=env)
    return result.estimates, result.rounds, result.metrics.summary()


def _push_sum_sum(env):
    result = push_sum_sum(_values(), rng=13, rounds=30, env=env)
    return result.estimates, result.rounds, result.metrics.summary()


def _count_leq(env):
    result = count_leq(_values(), threshold=37.5, rng=14, env=env)
    return (
        result.estimates, result.rounds, result.metrics.summary(),
        result.count, result.exact,
    )


RUNS = {
    "push_sum_average": _push_sum_average,
    "push_sum_sum": _push_sum_sum,
    "count_leq": _count_leq,
}

#: The count_leq pins were re-pinned when its default budget became
#: count_rounds (47 → 33 rounds at n = 257, 47 → 51 under μ = 0.3):
#: failure-free dcc7eb4c316d28e2 → 881fc9635d26aa06, failures
#: 187a364c69e39d67 → ad7be5c3fd3a954b, sparse 74977b2ebf2813ed →
#: c40ab7f427711916, process c37a863970553bf5 → d6424f2bbb232f64.
#: Re-pinned when count_leq began pushing centered float32 indicators
#: (±1/2, complex64 pairs up to COUNT_FLOAT32_MAX_N nodes), same rounds
#: and counts, each digest shared by both engines: failure-free
#: 881fc9635d26aa06 → be3147c930bc4d37, failures ad7be5c3fd3a954b →
#: de594dabc0d4fe41, sparse c40ab7f427711916 → d1280879fb935b8e, process
#: d6424f2bbb232f64 → 551fb631749ef0bc.
PUSH_SUM_PINS = {
    ("push_sum_average", "failure-free"): "46dd936cdb52dabf",
    ("push_sum_average", "failures"): "396d974ab530e5d2",
    ("push_sum_average", "sparse"): "2adb3a010d823291",
    ("push_sum_average", "process"): "88525fec1fb83a0e",
    ("push_sum_sum", "failure-free"): "2f21075c5cc868b4",
    ("push_sum_sum", "failures"): "dfd3ac4529e64347",
    ("push_sum_sum", "sparse"): "dcbc36e9160474f5",
    ("push_sum_sum", "process"): "18b3a63a5c6b09f9",
    ("count_leq", "failure-free"): "be3147c930bc4d37",
    ("count_leq", "failures"): "de594dabc0d4fe41",
    ("count_leq", "sparse"): "d1280879fb935b8e",
    ("count_leq", "process"): "551fb631749ef0bc",
}


@pytest.mark.parametrize("engine", ["vectorized", "asyncio"])
@pytest.mark.parametrize("run,config", sorted(PUSH_SUM_PINS))
def test_push_sum_streams_pinned(run, config, engine):
    assert _digest(*RUNS[run](_env(config, engine))) == PUSH_SUM_PINS[run, config]


def _iteration_rows(history):
    return [dataclasses.asdict(stats) for stats in history]


#: Re-pinned when the driver began sizing its per-iteration ε from n
#: (1/32 at n = 2000, was 1/16) and its final query from the answer's
#: copies: 477 rounds over 3 iterations became 345 over 2, same value.
#: Re-pinned again when the tournaments moved onto the gossip engines
#: (per-round partner draws): 8e24754f228d50d9 / 345 rounds →
#: 34bbfb904e05b4f8 / 367 rounds, same value, no retries on either.
#: Re-pinned when Step 5 began counting on count_rounds' budget (59 → 41
#: rounds per count at n = 2000): 34bbfb904e05b4f8 / 367 rounds →
#: 956578287a020d28 / 331, same value, no retries on either.  The Kempe
#: selection's ten counts went 47 → 33 rounds each: 44e797708f7869d0 /
#: 745 rounds → b8f9afac1cd7c051 / 605, same value and phases.
#: Re-pinned when Step 4 became one-round pull windows on spread_rounds'
#: budget (28 rounds per spread at n = 2000, push-pull with an oracle
#: stop before): 956578287a020d28 / 331 rounds → 43fad03639e1239b / 373,
#: same value, iterations and retries; the Kempe pin runs no spread.
EXACT_PIN = ("43fad03639e1239b", 286.11269466977893, 373)
KEMPE_PIN = ("b8f9afac1cd7c051", 35.36200414834243, 605)


def test_simulated_exact_quantile_pinned():
    values = RandomSource(45).random(2000) * 1000.0
    result = exact_quantile(values, phi=0.3, rng=15)
    assert (
        _digest(_iteration_rows(result.history), result.retries),
        result.value,
        result.rounds,
    ) == EXACT_PIN


def test_simulated_kempe_exact_quantile_pinned():
    values = RandomSource(46).random(N) * 100.0
    result = kempe_exact_quantile(values, phi=0.4, rng=16)
    assert (
        _digest(_iteration_rows(result.history), result.phases),
        result.value,
        result.rounds,
    ) == KEMPE_PIN


# ---- signed zeros, infinities and zero weights ------------------------------
#
# Halving must be two float64 multiplies, one per component.  A complex
# multiply by 0.5 computes ``s * 0 + w / 2`` for the weight and
# ``s / 2 - w * 0`` for the mass: an infinite ``s`` turns the weight NaN,
# and ``-0.0`` mass over ``-0.0`` weight turns ``+0.0``.

def _edge_case(case):
    weights = np.full(16, -0.0)
    weights[0] = 1.0
    values = np.full(16, -0.0)
    if case == "inf":
        values[5] = np.inf
    elif case == "both-inf":
        values[5], values[9] = np.inf, -np.inf
    return values, weights


EDGE_PINS = {
    "signed-zero": "7948f80b6721bf3a",
    "inf": "c7d2441d7af8d5f9",
    "both-inf": "de537b12e671dfa5",
}


@pytest.mark.parametrize("engine", ["vectorized", "asyncio"])
@pytest.mark.parametrize("mu", [None, 0.3], ids=["failure-free", "failures"])
@pytest.mark.parametrize("case", sorted(EDGE_PINS))
def test_push_sum_edge_values_pinned(case, mu, engine):
    values, weights = _edge_case(case)
    protocol = PushSumProtocol(values, weights=weights, rounds=12)
    env = GossipEnv(failure_model=mu, engine=engine)
    with np.errstate(invalid="ignore"):  # inf + -inf is NaN by design here
        run_protocol(protocol, rng=17, max_rounds=13, env=env)
    out = protocol.outputs_array()
    assert _digest(out) == EDGE_PINS[case]
    # after 12 rounds every node holds weight, so every estimate is s / w
    if case == "signed-zero":
        assert np.signbit(out).all()
        assert not np.isnan(out).any()
    elif case == "inf":
        assert np.isposinf(out).all()
    else:
        assert np.isnan(out).all()


@pytest.mark.parametrize("engine", ["vectorized", "asyncio"])
@pytest.mark.parametrize("mu", [None, 0.3], ids=["failure-free", "failures"])
@pytest.mark.parametrize("case", sorted(EDGE_PINS))
def test_float32_push_sum_edge_values_match_the_float64_pins(case, mu, engine):
    """The complex64 pairs halve through their float32 view: the same
    signed zeros, infinities and NaNs, read out as float64."""
    values, weights = _edge_case(case)
    protocol = PushSumProtocol(values.astype(np.float32), weights=weights, rounds=12)
    assert protocol._sw.dtype == np.complex64
    env = GossipEnv(failure_model=mu, engine=engine)
    with np.errstate(invalid="ignore"):
        run_protocol(protocol, rng=17, max_rounds=13, env=env)
    assert _digest(protocol.outputs_array()) == EDGE_PINS[case]
