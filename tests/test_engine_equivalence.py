"""Engine-equivalence suite: the vectorized engine must be bit-identical
to the per-node reference — the asyncio engine over in-process channels —
for every batch-capable protocol.

For each protocol, both engines run from identical seeds across a grid of
network sizes and failure rates; outputs, round counts, message counts,
bit totals and the full per-round metric history must match exactly — not
approximately.  This is the contract that lets the rest of the library
dispatch to the vectorized path blindly.  Where the asyncio engine
deliberately differs (drop and crash faults act at its transport), the
vectorized engine is pinned absolutely instead.
"""

import numpy as np
import pytest

from repro.aggregates.broadcast import BroadcastProtocol
from repro.aggregates.counting import count_leq
from repro.aggregates.extrema import spread_extrema, spread_protocol
from repro.aggregates.push_sum import PushSumProtocol, push_sum_average, push_sum_sum
from repro.exceptions import ProtocolError
from repro.gossip.engine import run_protocol, run_protocol_vectorized
from repro.gossip.env import GossipEnv
from repro.gossip.protocol import Action, BatchAction, GossipProtocol
from repro.topology import random_regular, ring, watts_strogatz
from repro.utils.rand import RandomSource


def _values(n, seed):
    return RandomSource(seed).random(n) * 100.0


def make_push_sum(n, seed):
    return PushSumProtocol(_values(n, seed), rounds=25)


def make_push_sum_weighted(n, seed):
    weights = np.zeros(n)
    weights[0] = 1.0
    return PushSumProtocol(_values(n, seed), weights=weights, rounds=25)


def make_extrema_max(n, seed):
    return spread_protocol(_values(n, seed), mode="max")


def make_extrema_min(n, seed):
    return spread_protocol(_values(n, seed), mode="min")


def make_broadcast(n, seed):
    return BroadcastProtocol(n, source=seed % n)


FACTORIES = [
    make_push_sum,
    make_push_sum_weighted,
    make_extrema_max,
    make_extrema_min,
    make_broadcast,
]

GRID = [
    (n, mu, seed)
    for n in (16, 64, 257)
    for mu in (0.0, 0.3)
    for seed in (0, 11)
]


def _run_both(factory, n, mu, seed, topology_factory=None, peer_sampling="uniform"):
    def env(engine=None):
        return GossipEnv(
            failure_model=mu if mu > 0 else None,
            topology=topology_factory(n) if topology_factory else None,
            peer_sampling=peer_sampling,
            engine=engine,
        )

    reference = run_protocol(
        factory(n, seed), rng=seed, raise_on_budget=False, env=env("asyncio")
    )
    vec = run_protocol_vectorized(
        factory(n, seed), rng=seed, raise_on_budget=False, env=env()
    )
    return reference, vec


def _assert_identical(reference, vec):
    assert reference.outputs == vec.outputs  # exact, not approximate
    assert reference.rounds == vec.rounds
    assert reference.completed == vec.completed
    assert reference.metrics.summary() == vec.metrics.summary()
    assert len(reference.metrics.history) == len(vec.metrics.history)
    for a, b in zip(reference.metrics.history, vec.metrics.history):
        assert (a.round_index, a.label) == (b.round_index, b.label)
        assert a.messages == b.messages
        assert a.bits == b.bits
        assert a.max_message_bits == b.max_message_bits
        assert a.failed_nodes == b.failed_nodes


@pytest.mark.parametrize("factory", FACTORIES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("n,mu,seed", GRID)
def test_vectorized_engine_matches_asyncio_reference(factory, n, mu, seed):
    reference, vec = _run_both(factory, n, mu, seed)
    _assert_identical(reference, vec)


TOPOLOGY_FACTORIES = [
    lambda n: ring(n, k=2),
    lambda n: random_regular(n, 6, rng=n),
    lambda n: watts_strogatz(n, 6, 0.2, rng=n),
]


@pytest.mark.parametrize("factory", FACTORIES, ids=lambda f: f.__name__)
@pytest.mark.parametrize(
    "topology_factory", TOPOLOGY_FACTORIES, ids=["ring", "regular", "small-world"]
)
@pytest.mark.parametrize("peer_sampling", ["uniform", "round-robin"])
def test_engines_bit_identical_on_sparse_topologies(
    factory, topology_factory, peer_sampling
):
    """The equivalence contract holds on every topology, not just complete."""
    reference, vec = _run_both(
        factory, 96, 0.25, 7,
        topology_factory=topology_factory, peer_sampling=peer_sampling,
    )
    _assert_identical(reference, vec)


@pytest.mark.parametrize("mu", [0.0, 0.4])
def test_count_leq_identical_across_engines(mu):
    values = _values(80, seed=5)
    failure = mu if mu > 0 else None
    a = count_leq(values, threshold=50.0, rng=3,
                  env=GossipEnv(failure_model=failure, engine="asyncio"))
    b = count_leq(
        values, threshold=50.0, rng=3,
        env=GossipEnv(failure_model=failure, engine="vectorized")
    )
    assert np.array_equal(a.estimates, b.estimates)
    assert a.count == b.count
    assert a.exact == b.exact
    assert a.rounds == b.rounds
    assert a.metrics.summary() == b.metrics.summary()


def test_wrapper_functions_identical_across_engines():
    values = _values(60, seed=8)
    for fn, kwargs in [
        (push_sum_average, {}),
        (push_sum_sum, {}),
        (spread_extrema, {"mode": "min"}),
    ]:
        a = fn(values, rng=4, env=GossipEnv(engine="asyncio"), **kwargs)
        b = fn(values, rng=4, env=GossipEnv(engine="vectorized"), **kwargs)
        first = a.estimates if hasattr(a, "estimates") else a.values
        second = b.estimates if hasattr(b, "estimates") else b.values
        assert np.array_equal(first, second)
        assert a.rounds == b.rounds
        assert a.metrics.summary() == b.metrics.summary()


def test_default_dispatch_runs_the_vectorized_engine():
    vec = run_protocol_vectorized(make_push_sum(32, seed=1), rng=2)
    for env in (None, GossipEnv(), GossipEnv(engine="vectorized")):
        result = run_protocol(make_push_sum(32, seed=1), rng=2, env=env)
        assert result.outputs == vec.outputs
        assert result.metrics.summary() == vec.metrics.summary()


class _PerNodeOnly(GossipProtocol):
    """A protocol that never implemented the batch contract."""

    name = "per-node-only"

    def act(self, node, round_index):
        return Action.push(1.0)

    def on_receive(self, node, payload, sender, kind, round_index):
        pass

    def is_done(self, round_index):
        return round_index >= 2

    def outputs(self):
        return [0.0] * self.n


@pytest.mark.parametrize("engine", [None, "vectorized", "asyncio"])
def test_plain_gossip_protocol_is_rejected_on_every_engine(engine):
    with pytest.raises(ProtocolError, match="BatchGossipProtocol"):
        run_protocol(_PerNodeOnly(8), rng=0, env=GossipEnv(engine=engine))


def test_batch_action_validation():
    with pytest.raises(ValueError):
        BatchAction("teleport", push_bits=1)
    with pytest.raises(ValueError):
        BatchAction("push")  # push_bits missing
    with pytest.raises(ValueError):
        BatchAction("pushpull", push_bits=10)  # pull_bits missing
    action = BatchAction("pushpull", push_bits=10, pull_bits=12)
    assert (action.push_bits, action.pull_bits) == (10, 12)


def test_malformed_act_batch_raises_protocol_error():
    class Broken(PushSumProtocol):
        def act_batch(self, round_index, alive):
            return "not a batch action"

    with pytest.raises(ProtocolError):
        run_protocol_vectorized(Broken(_values(8, seed=3), rounds=3), rng=1)


# ---- single-lane (L = 1) stream pins ----------------------------------------
#
# sha256 prefixes of seeded single-lane pull / tournament /
# approximate-quantile runs, first captured on the pre-multi-lane tree;
# the multi-lane layout, the no-failure fast paths and the sort-free median
# selection all left them bit-for-bit unchanged.
#
# Re-pinned deliberately when the tournaments moved onto the gossip
# engines: every window now draws its partners one round at a time through
# the engines' begin_round (failure mask, then partners) instead of one
# (n, k) block, a failed pull reads the puller's own value instead of NaN,
# and the δ coin comes from a child stream taken at construction.  Old →
# new:
#   pull_nofail       6103f313a9ed90fb → dee9bf3d074e7ae0
#   pull_fail         8391e438e169129c → 01debec6fcf6a96a
#                     (messages / failed node-rounds 717 / 311 → 688 / 340)
#   two_tournament    2d6c2f3cef779455 → baf88d4c38491513
#   three_tournament  ee662e3d13add2d8 → f0312b6e0b6791dd
#   approx            b5967131d573f010 → 368495df96e9d38e
#                     (estimate 32.56950035748125 → 39.43717620275427)
#   approx_fail       45a282331a888ed4 → c1e9742d46cbaff0
# The failure-free rounds and accounting did not move
# (TOURNAMENT_ACCOUNTING_PINS).

def _digest(*arrays):
    import hashlib

    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()[:16]


def _pin_values():
    return RandomSource(33).random(257) * 100.0


SINGLE_LANE_PINS = {
    "pull_nofail": "dee9bf3d074e7ae0",
    "pull_fail": "01debec6fcf6a96a",
    "two_tournament": "baf88d4c38491513",
    "three_tournament": "f0312b6e0b6791dd",
    "approx": "368495df96e9d38e",
    "approx_fail": "c1e9742d46cbaff0",
}


def test_single_lane_pull_stream_pinned():
    from repro.gossip.network import GossipNetwork

    net = GossipNetwork(_pin_values(), rng=12)
    batch = net.pull(3)
    assert _digest(batch.partners, batch.values, batch.ok) == (
        SINGLE_LANE_PINS["pull_nofail"]
    )

    net = GossipNetwork(_pin_values(), rng=12, env=GossipEnv(failure_model=0.3))
    batch = net.pull(4)
    assert _digest(batch.partners, batch.values, batch.ok) == (
        SINGLE_LANE_PINS["pull_fail"]
    )
    # one message per successful pull, one failed node-round per lost one
    assert net.metrics.summary() == {
        "rounds": 4,
        "messages": int(batch.ok.sum()),
        "total_bits": int(batch.ok.sum()) * 89,
        "max_message_bits": 89,
        "failed_node_rounds": int((~batch.ok).sum()),
        "queries": 0,
        "query_bits": 0,
    }
    assert (net.metrics.messages, net.metrics.failed_node_rounds) == (688, 340)


def test_single_lane_tournament_streams_pinned():
    from repro.core.three_tournament import run_three_tournament
    from repro.core.two_tournament import run_two_tournament

    two = run_two_tournament(_pin_values(), phi=0.3, eps=0.1, rng=5)
    assert (_digest(two.final_values), two.rounds) == (
        SINGLE_LANE_PINS["two_tournament"], 2
    )

    three = run_three_tournament(_pin_values(), eps=0.05, rng=6)
    assert (_digest(three.final_values), three.rounds) == (
        SINGLE_LANE_PINS["three_tournament"], 33
    )


def test_single_lane_approximate_quantile_pinned():
    from repro.core.approx_quantile import approximate_quantile

    result = approximate_quantile(_pin_values(), phi=0.35, eps=0.1, rng=7)
    assert _digest(result.estimates) == SINGLE_LANE_PINS["approx"]
    assert result.rounds == 38
    assert result.estimate == 39.43717620275427

    failed = approximate_quantile(
        _pin_values(), phi=0.35, eps=0.1, rng=7, env=GossipEnv(failure_model=0.25)
    )
    assert _digest(failed.estimates) == SINGLE_LANE_PINS["approx_fail"]
    assert failed.rounds == 38


# ---- failure-free tournament accounting pins --------------------------------
#
# (rounds, metrics.summary()) of every failure-free tournament case behind
# the digest pins above, plus the robust variant and the median rule,
# captured on the pull-surface tree before the tournaments moved onto the
# gossip engines.  Round counts come from the schedules and failure-free
# message / bit accounting does not depend on the partner stream, so these
# must hold across any re-pin of the digests.


def _failure_free(rounds, messages, total_bits, max_message_bits):
    return {
        "rounds": rounds,
        "messages": messages,
        "total_bits": total_bits,
        "max_message_bits": max_message_bits,
        "failed_node_rounds": 0,
        "queries": 0,
        "query_bits": 0,
    }


TOURNAMENT_ACCOUNTING_PINS = {
    "two_tournament": (2, _failure_free(2, 514, 45746, 89)),
    "three_tournament": (33, _failure_free(33, 8481, 754809, 89)),
    "approx": (38, _failure_free(38, 9766, 869174, 89)),
    "all_ranks_9": (48, _failure_free(48, 12336, 7413936, 601)),
    "all_ranks_19_f32": (56, _failure_free(56, 14392, 17860472, 1241)),
    "pair_f64": (40, _failure_free(40, 10280, 1572840, 153)),
    "pair_f32": (40, _failure_free(40, 10280, 1572840, 153)),
    "service_build": (48, _failure_free(48, 12336, 7413936, 601)),
    "service_rebuild": (48, _failure_free(96, 24672, 14827872, 601)),
    "all_ranks_seq_eps_0.2_rng_9": (156, _failure_free(156, 40092, 3568188, 89)),
    "all_ranks_seq_eps_0.1_rng_10_qa_0.08": (
        381, _failure_free(381, 97917, 8714613, 89)
    ),
    # Re-pinned when the "+t" answer spread lost its global stop (every
    # node answered): it now runs all 12 of its windows, 49 → 61 rounds
    # (12 593 → 15 677 messages, 1 120 777 → 1 395 253 bits).
    "robust": (61, _failure_free(61, 15677, 1395253, 89)),
    "median_rule": (75, _failure_free(75, 19275, 1715475, 89)),
}


def _tournament_accounting(case):
    """Run one accounting case: its rounds and its metrics summary."""
    from repro.baselines.median_rule import median_rule
    from repro.core.all_quantiles import estimate_all_ranks
    from repro.core.approx_quantile import approximate_quantile
    from repro.core.robust import robust_approximate_quantile
    from repro.core.service import QuantileService
    from repro.core.three_tournament import run_three_tournament
    from repro.core.two_tournament import run_two_tournament
    from repro.gossip.metrics import NetworkMetrics

    values = _pin_values()
    if case in ("two_tournament", "three_tournament"):
        metrics = NetworkMetrics(keep_history=False)
        if case == "two_tournament":
            run_two_tournament(values, phi=0.3, eps=0.1, rng=5, metrics=metrics)
        else:
            run_three_tournament(values, eps=0.05, rng=6, metrics=metrics)
        return metrics.rounds, metrics.summary()
    if case.startswith("service"):
        service = QuantileService(values, eps=0.1, rng=11)
        if case == "service_build":
            return service.rounds, service.gossip_metrics.summary()
        for index in range(0, 257, 2):
            service.update_value(index, 150.0 + index)
        report = service.rebuild()
        return report.rounds, service.gossip_metrics.summary()
    runs = {
        "approx": lambda: approximate_quantile(values, phi=0.35, eps=0.1, rng=7),
        "all_ranks_9": lambda: estimate_all_ranks(values, eps=0.1, rng=9),
        "all_ranks_19_f32": lambda: estimate_all_ranks(
            values, eps=0.05, rng=10, env=GossipEnv(dtype=np.float32)
        ),
        "pair_f64": lambda: approximate_quantile(
            np.column_stack([values, values]), phi=(0.2, 0.65), eps=0.1,
            rng=7, env=GossipEnv(dtype=np.float64),
        ),
        "pair_f32": lambda: approximate_quantile(
            np.column_stack([values, values]), phi=(0.2, 0.65), eps=0.1,
            rng=7, env=GossipEnv(dtype=np.float32),
        ),
        "all_ranks_seq_eps_0.2_rng_9": lambda: estimate_all_ranks(
            values, eps=0.2, rng=9, max_lanes=1
        ),
        "all_ranks_seq_eps_0.1_rng_10_qa_0.08": lambda: estimate_all_ranks(
            values, eps=0.1, rng=10, query_accuracy=0.08, max_lanes=1
        ),
        "robust": lambda: robust_approximate_quantile(values, 0.35, 0.1, rng=7),
        "median_rule": lambda: median_rule(values, rng=7),
    }
    result = runs[case]()
    return result.rounds, result.metrics.summary()


@pytest.mark.parametrize("case", sorted(TOURNAMENT_ACCOUNTING_PINS))
def test_failure_free_tournament_accounting_pinned(case):
    assert _tournament_accounting(case) == TOURNAMENT_ACCOUNTING_PINS[case]


# ---- composed pull-window pins ---------------------------------------------
#
# sha256 prefixes of three pull windows (3, 2 and 4 rounds) under each
# composition of the three robustness inputs (failure model, churn process,
# fault injector).  Each window's kernel records the window's partners,
# pulled values and ok mask and returns every node's value plus one, so
# delayed pulls see older windows; the digest covers those, the rows after
# the run (state-loss resets) and the metrics summary.
#
# Ported from GossipNetwork.pull, whose three batches ran as three pulls
# with set_values(values + 1.0) between them; the windows now run in one
# engine run, so round indices continue across them.  Re-pinned
# deliberately with the rest of the tournament streams: per-round partner
# draws, own-value failed pulls, corruption applied to delivered copies
# only, and a state-loss restart handing the window's kernel the node's
# initial lanes as its own values.  Old → new:
#   failures         b621f490026767d8 → cdd9c7a6a5dd4a5e
#   churn            737ed535c8ade215 → 4d9bdbd91980a3ba
#   churn_faults     3e248ac45ce417f8 → 7e655cb1873a7e1f
#   churn_failures   044569018067259b → f34c2888f2c79dfd
#   faults_failures  45a9d94d482eeb83 → 50862553484dd48d
#   all_three        c763276c8a9377a3 → 86d9816c3b32753a
#   all_three_2lane  9df9b2d96bb27350 → 2663baf429582037

PULL_SURFACE_PINS = {
    "failures": "cdd9c7a6a5dd4a5e",
    "churn": "4d9bdbd91980a3ba",
    "churn_faults": "7e655cb1873a7e1f",
    "churn_failures": "f34c2888f2c79dfd",
    "faults_failures": "50862553484dd48d",
    "all_three": "86d9816c3b32753a",
    "all_three_2lane": "2663baf429582037",
}


def _pull_surface_digest(case):
    import json

    from repro.core.tournament import PullWindow, lane_rows, run_windows
    from repro.faults import (
        CrashRestart,
        FaultInjector,
        MessageDelay,
        MessageDrop,
        MessageDuplication,
        ValueCorruption,
    )
    from repro.gossip.metrics import NetworkMetrics
    from repro.topology import ChurnProcess

    n = 97
    values = _pin_values()[:n]
    # The churn cases run a process with no failure model, which draws
    # nothing from the run's stream.
    settings = {} if case in ("churn", "churn_faults") else {"failure_model": 0.2}
    if case in ("churn", "churn_faults", "churn_failures", "all_three",
                "all_three_2lane"):
        settings["topology_process"] = ChurnProcess(n, churn_rate=0.1, rng=21)
    if case in ("churn_faults", "faults_failures", "all_three",
                "all_three_2lane"):
        settings["faults"] = FaultInjector(
            [
                MessageDrop(0.1),
                MessageDuplication(0.1),
                MessageDelay(0.2, max_delay=2),
                ValueCorruption(0.1),
                CrashRestart(0.05, downtime=2),
            ],
            rng=22,
        )
    if case == "all_three_2lane":
        values = np.column_stack([values, values[::-1]])
    arrays = []

    def record_and_advance(pulls):
        arrays.extend([pulls.partner_block(), pulls.block(), pulls.ok_block()])
        return pulls.snapshot + 1.0

    metrics = NetworkMetrics()
    rows = run_windows(
        lane_rows(values, np.dtype(float)),
        [PullWindow(k, record_and_advance) for k in (3, 2, 4)],
        17, metrics, GossipEnv(**settings),
    )
    summary = json.dumps(metrics.summary(), sort_keys=True)
    return _digest(*arrays, rows, np.frombuffer(summary.encode(), dtype=np.uint8))


@pytest.mark.parametrize("case", sorted(PULL_SURFACE_PINS))
def test_composed_pull_windows_pinned(case):
    assert _pull_surface_digest(case) == PULL_SURFACE_PINS[case]


# ---- one-pass all-quantiles (PR 6) ------------------------------------------

#: Sequential self-rank grid digests captured on the PR 5 tree, before the
#: fused rewrite: digest(quantile_estimates, grid_values) plus total rounds.
#: ``max_lanes=1`` — one single-lane tournament per grid target, each on its
#: own child stream — is the reference that must keep landing on them.
#: Digests re-pinned with the single-lane pins when the tournaments moved
#: onto the gossip engines (59043aafe49dd809 → aafa2e112a738b41,
#: 79d60d7bcca8279b → 44b0ba55bbab0b67); the rounds did not move.
ALL_RANKS_SEQUENTIAL_PINS = {
    # estimate_all_ranks(_pin_values(), eps=0.2, rng=9, max_lanes=1)
    "eps_0.2_rng_9": ("aafa2e112a738b41", 156),
    # estimate_all_ranks(_pin_values(), eps=0.1, rng=10, query_accuracy=0.08,
    #                    max_lanes=1)
    "eps_0.1_rng_10_qa_0.08": ("44b0ba55bbab0b67", 381),
}


def test_sequential_all_ranks_pinned_to_pre_fusion_tree():
    """The max_lanes=1 reference must keep consuming the per-target child
    streams exactly as the PR 5 single-lane loop did."""
    from repro.core.all_quantiles import estimate_all_ranks

    result = estimate_all_ranks(_pin_values(), eps=0.2, rng=9, max_lanes=1)
    assert result.grid_values.dtype == np.float64
    assert (
        _digest(result.quantile_estimates, result.grid_values),
        result.rounds,
    ) == ALL_RANKS_SEQUENTIAL_PINS["eps_0.2_rng_9"]

    result = estimate_all_ranks(
        _pin_values(), eps=0.1, rng=10, query_accuracy=0.08, max_lanes=1
    )
    assert (
        _digest(result.quantile_estimates, result.grid_values),
        result.rounds,
    ) == ALL_RANKS_SEQUENTIAL_PINS["eps_0.1_rng_10_qa_0.08"]


# ---- failure-free fused multi-lane pins -------------------------------------
#
# sha256 prefixes of the failure-free multi-lane path (one partner stream
# shared by L lanes, per-lane schedules, short lanes idling, one shared
# final vote), captured before the value matrix was stored lane by lane.
# The storage order of the (n, L) matrix must not move a single value.
# Digests re-pinned with the single-lane pins when the tournaments moved
# onto the gossip engines; the rounds did not move.  Old → new:
#   all_ranks_9       984830a6b853e75e → 582e4b0fbf6a80d6
#   all_ranks_19_f32  5e30420022be0179 → 349c6759ea8218bb
#   pair_f64          d2e48b4dccf5249e → f69cc9c1152fc93d
#   pair_f32          3ccd83ff9bf9e574 → 220b37cd5323bc3e
#   service_build     eb2540fbc4894e83 → d3664864cdf48967
#   service_rebuild   5974563748ad3c8a → 077cd22c333ae12a

FUSED_MULTILANE_PINS = {
    # estimate_all_ranks(_pin_values(), eps=0.1, rng=9): 9 lanes, 1 chunk
    "all_ranks_9": ("582e4b0fbf6a80d6", 48),
    # estimate_all_ranks(_pin_values(), eps=0.05, rng=10, float32): 19 lanes
    "all_ranks_19_f32": ("349c6759ea8218bb", 56),
    # approximate_quantile on a 2-lane copy, phi=(0.2, 0.65), eps=0.1, rng=7
    "pair_f64": ("f69cc9c1152fc93d", 40),
    "pair_f32": ("220b37cd5323bc3e", 40),
    # QuantileService(_pin_values(), eps=0.1, rng=11): build, then a rebuild
    # after every other value moved above the range
    "service_build": ("d3664864cdf48967", 48),
    "service_rebuild": ("077cd22c333ae12a", 48),
}


def test_fused_all_ranks_grid_pinned():
    from repro.core.all_quantiles import DEFAULT_MAX_LANES, estimate_all_ranks

    result = estimate_all_ranks(_pin_values(), eps=0.1, rng=9)
    assert result.grid.size == 9 <= DEFAULT_MAX_LANES and result.chunks == 1
    assert (
        _digest(result.quantile_estimates, result.grid_values),
        result.rounds,
    ) == FUSED_MULTILANE_PINS["all_ranks_9"]

    result = estimate_all_ranks(
        _pin_values(), eps=0.05, rng=10, env=GossipEnv(dtype=np.float32)
    )
    assert result.grid.size == 19 and result.grid_values.dtype == np.float32
    assert (
        _digest(result.quantile_estimates, result.grid_values),
        result.rounds,
    ) == FUSED_MULTILANE_PINS["all_ranks_19_f32"]


@pytest.mark.parametrize("dtype", [np.float64, np.float32],
                         ids=["f64", "f32"])
def test_fused_two_lane_approximate_quantile_pinned(dtype):
    """The exact driver's Step-3 sandwich shape: two lanes, one stream."""
    from repro.core.approx_quantile import approximate_quantile

    values = _pin_values()
    result = approximate_quantile(
        np.column_stack([values, values]), phi=(0.2, 0.65), eps=0.1, rng=7,
        env=GossipEnv(dtype=dtype),
    )
    assert result.estimates.shape == (257, 2)
    assert result.estimates.dtype == dtype
    key = "pair_f64" if dtype is np.float64 else "pair_f32"
    assert (_digest(result.estimates), result.rounds) == (
        FUSED_MULTILANE_PINS[key]
    )


def test_fused_service_build_and_rebuild_pinned():
    from repro.core.service import QuantileService

    service = QuantileService(_pin_values(), eps=0.1, rng=11)
    assert (
        _digest(service.result.grid_values, service.grid_answers),
        service.rounds,
    ) == FUSED_MULTILANE_PINS["service_build"]

    for index in range(0, 257, 2):
        service.update_value(index, 150.0 + index)
    report = service.rebuild()
    assert report.validated and report.lanes_rebuilt == 9
    assert (_digest(service.grid_answers), report.rounds) == (
        FUSED_MULTILANE_PINS["service_rebuild"]
    )


@pytest.mark.parametrize("n", [256, 4096])
def test_fused_and_sequential_grids_agree_within_tolerance(n):
    """Fused lanes share one partner stream, so estimates differ from the
    single-lane reference only by in-tolerance tournament noise — and the
    fused round count is max-of-lanes, never more than the sequential sum."""
    from repro.core.all_quantiles import (
        estimate_all_ranks,
        true_self_quantiles,
    )

    values = RandomSource(100 + n).random(n) * 1000.0
    eps = 0.1
    truth = true_self_quantiles(values)
    fused = estimate_all_ranks(values, eps=eps, rng=41)
    sequential = estimate_all_ranks(values, eps=eps, rng=41, max_lanes=1)

    for result in (fused, sequential):
        errors = np.abs(result.quantile_estimates - truth)
        assert float(np.mean(errors <= 2 * eps)) > 0.95
        assert float(errors.mean()) < eps
    # both execution modes agree with each other within the combined bound
    gap = np.abs(fused.quantile_estimates - sequential.quantile_estimates)
    assert float(np.mean(gap <= 2 * eps)) > 0.95
    # rounds: max-of-lanes <= sum-over-grid, strictly so for a 9-wide grid
    assert fused.rounds <= sequential.rounds
    assert fused.rounds < sequential.rounds


#: Absolute digests of the composed-robustness runs below (failures + churn
#: + drop/crash faults, n = 96, seed 13): ``_run_digest`` of the result,
#: its rounds and completion.  The asyncio runner handles drop and crash
#: faults at the transport, not as engine masks, so under these inputs the
#: vectorized engine is pinned absolutely rather than against another engine.
COMPOSED_ROBUSTNESS_PINS = {
    "make_push_sum": ("a7289b63a7703794", 25, True),
    # Re-pinned when extrema spreading became one-round pull windows on
    # the node-known spread_rounds budget (push-pull with an oracle stop
    # before): b42007a02621f387 / 39 rounds → 179cc30db6c3c328 / 24.
    "make_extrema_max": ("179cc30db6c3c328", 24, True),
}


def _run_digest(result):
    """Digest of a run's outputs, per-round history and metrics summary."""
    import json

    history = np.array(
        [
            (r.round_index, r.messages, r.bits, r.max_message_bits, r.failed_nodes)
            for r in result.metrics.history
        ],
        dtype=np.int64,
    )
    summary = json.dumps(result.metrics.summary(), sort_keys=True)
    return (
        _digest(
            np.asarray(result.outputs, dtype=float),
            history,
            np.frombuffer(summary.encode(), dtype=np.uint8),
        ),
        result.rounds,
        result.completed,
    )


@pytest.mark.parametrize("factory", [make_push_sum, make_extrema_max],
                         ids=lambda f: f.__name__)
def test_engines_bit_identical_under_composed_robustness_inputs(factory):
    """failures | topology_process | faults compose by OR, pinned absolutely.

    Each of the three robustness inputs draws from its own stream (engine
    stream, process stream, injector stream).  The asyncio engine applies
    drop and crash faults at its transport, so it is no reference here:
    the vectorized run is held to digests that the per-node loop engine
    also produced when it still existed.
    """
    from repro.faults import CrashRestart, FaultInjector, MessageDrop
    from repro.topology import ChurnProcess

    n, seed = 96, 13

    def robustness_env():
        return GossipEnv(
            failure_model=0.05,
            topology_process=ChurnProcess(n, churn_rate=0.05, rng=seed + 1),
            faults=FaultInjector(
                [MessageDrop(0.1), CrashRestart(0.05, downtime=2)],
                rng=seed + 2,
            ),
        )

    vec = run_protocol_vectorized(
        factory(n, seed), rng=seed, raise_on_budget=False, env=robustness_env()
    )
    assert _run_digest(vec) == COMPOSED_ROBUSTNESS_PINS[factory.__name__]


def test_faults_do_not_shift_engine_stream():
    """Attaching an injector must not perturb the engine's own draws: a
    run whose injector never fires is bit-identical to a fault-free run."""
    from repro.faults import FaultInjector, MessageDrop

    n, seed = 64, 3
    clean = run_protocol_vectorized(
        make_push_sum(n, seed), rng=seed, raise_on_budget=False,
    )
    quiet = run_protocol_vectorized(
        make_push_sum(n, seed), rng=seed, raise_on_budget=False,
        env=GossipEnv(faults=FaultInjector(MessageDrop(0.0), rng=99)),
    )
    assert clean.outputs == quiet.outputs
    assert clean.metrics.summary() == quiet.metrics.summary()
