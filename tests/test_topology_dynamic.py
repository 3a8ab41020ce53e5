"""Dynamic-topology invariants: churn, edge resampling, engine equivalence.

Locks down the :mod:`repro.topology.dynamic` contract:

* a :class:`StaticProcess` is bit-identical to passing the topology
  directly (the dynamic plumbing cannot perturb static streams);
* the vectorized engine stays bit-identical to the per-node asyncio
  engine under every process;
* mass is conserved under churn — push-sum ``s``/``w`` totals exactly,
  token multiplicities via the failure-model adapter;
* seeded join/leave schedules and view resamples are deterministic;
* process samplers only ever target active nodes.
"""

import numpy as np
import pytest

from repro.aggregates.broadcast import BroadcastProtocol
from repro.aggregates.push_sum import PushSumProtocol, push_sum_average
from repro.core.tokens import distribute_tokens
from repro.exceptions import ConfigurationError
from repro.gossip.engine import run_protocol, run_protocol_vectorized
from repro.gossip.env import GossipEnv
from repro.gossip.network import GossipNetwork
from repro.net import run_protocol_asyncio
from repro.topology import (
    ChurnProcess,
    EdgeResamplingProcess,
    StaticProcess,
    build_topology,
    preferential_attachment,
    ring,
    watts_strogatz,
)
from repro.utils.rand import RandomSource


def _values(n, seed=3):
    return RandomSource(seed).random(n) * 100.0


# ---- static-process sanity grid: the plumbing is invisible -------------------


@pytest.mark.parametrize("topo_factory", [
    lambda n: None,
    lambda n: ring(n, k=2),
    lambda n: watts_strogatz(n, 6, 0.2, rng=n),
], ids=["complete", "ring", "small-world"])
@pytest.mark.parametrize("n,seed", [(64, 0), (129, 11)])
def test_static_process_is_bit_identical_to_direct_topology(topo_factory, n, seed):
    topo = topo_factory(n)
    direct = run_protocol_vectorized(
        PushSumProtocol(_values(n), rounds=20), rng=seed, env=GossipEnv(topology=topo),
    )
    process = StaticProcess(topology=topo, n=n)
    via_process = run_protocol_vectorized(
        PushSumProtocol(_values(n), rounds=20), rng=seed,
        env=GossipEnv(topology_process=process),
    )
    assert direct.outputs == via_process.outputs
    assert direct.metrics.summary() == via_process.metrics.summary()


@pytest.mark.parametrize("topo_factory", [
    lambda n: None,
    lambda n: ring(n, k=2),
], ids=["complete", "ring"])
def test_static_process_asyncio_vectorized_equivalence(topo_factory):
    n, seed = 96, 5
    reference = run_protocol_asyncio(
        PushSumProtocol(_values(n), rounds=15), rng=seed,
        env=GossipEnv(topology_process=StaticProcess(topology=topo_factory(n), n=n)),
    )
    vec = run_protocol_vectorized(
        PushSumProtocol(_values(n), rounds=15), rng=seed,
        env=GossipEnv(topology_process=StaticProcess(topology=topo_factory(n), n=n)),
    )
    assert reference.outputs == vec.outputs
    assert reference.metrics.summary() == vec.metrics.summary()


# ---- static streams stay pinned to the PR 2/3 behaviour ----------------------


#: sha256 prefixes of seeded push-sum outputs (n=257, rounds=20, rng=12) on
#: static topologies, recorded before the dynamic-topology subsystem landed.
#: Both engines must keep producing these exact streams: the dynamic
#: plumbing must never perturb a static run.
_STATIC_STREAM_PINS = {
    "complete": "603fbcc07f75315b",
    "small-world": "cd5f6733f409bf95",
}


@pytest.mark.parametrize("topo_name", sorted(_STATIC_STREAM_PINS))
@pytest.mark.parametrize("runner", [run_protocol_asyncio, run_protocol_vectorized],
                         ids=["asyncio", "vectorized"])
def test_static_topology_streams_are_regression_pinned(topo_name, runner):
    import hashlib

    topo = (
        None if topo_name == "complete"
        else build_topology("small-world", 257, degree=6, rng=1)
    )
    result = runner(
        PushSumProtocol(_values(257), rounds=20), rng=12, env=GossipEnv(topology=topo)
    )
    digest = hashlib.sha256(
        np.asarray(result.outputs, dtype=float).tobytes()
    ).hexdigest()[:16]
    assert digest == _STATIC_STREAM_PINS[topo_name]


# ---- asyncio == vectorized under dynamic processes ---------------------------


def _process_factories(n):
    return {
        "churn-complete": lambda: ChurnProcess(n=n, churn_rate=0.2, rng=9),
        "churn-sparse": lambda: ChurnProcess(
            topology=watts_strogatz(n, 6, 0.2, rng=n), churn_rate=0.2, rng=9
        ),
        "resample": lambda: EdgeResamplingProcess(
            n, view_size=4, resample_every=3, rng=9
        ),
        "resample-symmetrized": lambda: EdgeResamplingProcess(
            n, view_size=4, resample_every=2, symmetrize=True, rng=9
        ),
    }


@pytest.mark.parametrize("kind", list(_process_factories(8)))
@pytest.mark.parametrize("protocol_factory", [
    lambda n: PushSumProtocol(_values(n), rounds=18),
    lambda n: BroadcastProtocol(n, source=1),
], ids=["push-sum", "broadcast"])
@pytest.mark.parametrize("n,seed", [(64, 0), (129, 7)])
def test_asyncio_and_vectorized_agree_under_dynamic_topologies(
    kind, protocol_factory, n, seed
):
    factory = _process_factories(n)[kind]
    reference = run_protocol_asyncio(
        protocol_factory(n), rng=seed, env=GossipEnv(topology_process=factory()),
        raise_on_budget=False,
    )
    vec = run_protocol_vectorized(
        protocol_factory(n), rng=seed, env=GossipEnv(topology_process=factory()),
        raise_on_budget=False,
    )
    assert reference.outputs == vec.outputs
    assert reference.rounds == vec.rounds
    assert reference.metrics.summary() == vec.metrics.summary()


def test_same_process_instance_can_be_reused_across_runs():
    n = 80
    process = ChurnProcess(n=n, churn_rate=0.3, rng=2)
    first = run_protocol_vectorized(
        PushSumProtocol(_values(n), rounds=10), rng=1,
        env=GossipEnv(topology_process=process)
    )
    second = run_protocol_vectorized(
        PushSumProtocol(_values(n), rounds=10), rng=1,
        env=GossipEnv(topology_process=process)
    )
    assert first.outputs == second.outputs  # begin() replays the schedule


# ---- mass conservation under churn -------------------------------------------


@pytest.mark.parametrize("base", ["complete", "small-world"])
@pytest.mark.parametrize("engine", ["asyncio", "vectorized"])
def test_push_sum_mass_and_weight_conserved_under_churn(base, engine):
    n = 256
    topology = (
        None if base == "complete"
        else build_topology("small-world", n, degree=6, rng=4)
    )
    process = ChurnProcess(
        n=n, topology=topology, churn_rate=0.15, rng=8
    )
    values = _values(n)
    protocol = PushSumProtocol(values, rounds=40)
    run_protocol(
        protocol, rng=3, env=GossipEnv(topology_process=process, engine=engine),
        max_rounds=41, raise_on_budget=False,
    )
    assert protocol.total_mass == pytest.approx(values.sum(), rel=1e-12)
    assert protocol.total_weight == pytest.approx(n, rel=1e-12)
    # churn actually happened
    assert min(process.active_history) < n


def test_token_multiplicities_conserved_under_churn_failures():
    n = 512
    process = ChurnProcess(n=n, churn_rate=0.2, rejoin_rate=0.5, rng=6)

    def run():
        return distribute_tokens(
            item_nodes=[3, 77, 200],
            multiplicity=8,
            n=n,
            rng=11,
            env=GossipEnv(topology_process=process),
        )

    result = run()
    # distribute_tokens post-conditions already assert exact multiplicities;
    # verify explicitly plus that churn interfered at all.
    for item in range(3):
        assert result.copies_of(item) == 8
    assert result.failed_pushes > 0
    # Reusing the process replays its churn schedule from round 0, so the
    # same seed gives the same run.
    again = run()
    assert np.array_equal(again.owners, result.owners)
    assert (again.phases, again.rounds, again.failed_pushes) == (
        result.phases, result.rounds, result.failed_pushes
    )


# ---- determinism of seeded schedules -----------------------------------------


def test_churn_schedule_is_deterministic_and_seed_sensitive():
    masks = {}
    for seed in (1, 1, 2):
        process = ChurnProcess(n=64, churn_rate=0.3, rng=seed)
        process.begin()
        trace = np.stack([process.round_state(i).active for i in range(40)])
        masks.setdefault(seed, []).append(trace)
    assert (masks[1][0] == masks[1][1]).all()
    assert not (masks[1][0] == masks[2][0]).all()


def test_edge_resampling_schedule_is_deterministic_and_periodic():
    a = EdgeResamplingProcess(48, view_size=4, resample_every=5, rng=3)
    b = EdgeResamplingProcess(48, view_size=4, resample_every=5, rng=3)
    a.begin()
    b.begin()
    for i in range(12):
        sa = a.round_state(i)
        sb = b.round_state(i)
        assert (a.topology.indices == b.topology.indices).all()
        assert sa.active.all()
    # 12 rounds at period 5 -> resamples at rounds 0, 5, 10
    assert a.resamples == 3
    graph_round_0 = None
    a.begin()
    first = a.round_state(0)
    indices0 = a.topology.indices.copy()
    a.round_state(1)
    assert (a.topology.indices == indices0).all()  # unchanged within a period
    a.round_state(2), a.round_state(3), a.round_state(4)
    a.round_state(5)
    assert not (a.topology.indices == indices0).all()  # refreshed on schedule


# ---- samplers only target active nodes ---------------------------------------


@pytest.mark.parametrize("base", ["complete", "ring"])
def test_churn_partners_are_always_active_and_never_self(base):
    n = 200
    topology = None if base == "complete" else ring(n, k=3)
    process = ChurnProcess(n=n, topology=topology, churn_rate=0.4, rng=13)
    process.begin()
    rng = RandomSource(0)
    for i in range(25):
        state = process.round_state(i)
        partners = state.sampler.draw_round(rng)
        active = state.active
        assert active.sum() >= 2
        # every active node's partner is active and not itself
        assert np.all(active[partners[active]])
        assert not np.any(partners[active] == np.flatnonzero(active))
        if base == "ring":
            # partners come from the base neighbor lists
            offsets = (partners[active] - np.flatnonzero(active)) % n
            assert np.all((offsets <= 3) | (offsets >= n - 3))


def test_edge_resampling_partners_come_from_current_views():
    n = 120
    process = EdgeResamplingProcess(n, view_size=5, resample_every=2, rng=21)
    process.begin()
    rng = RandomSource(1)
    for i in range(6):
        state = process.round_state(i)
        partners = state.sampler.draw_round(rng)
        topo = process.topology
        for node in (0, 17, n - 1):
            assert partners[node] in topo.neighbors(node)
        assert not np.any(partners == np.arange(n))  # views exclude self


# ---- configuration errors ----------------------------------------------------


def test_process_and_topology_are_mutually_exclusive():
    n = 32
    with pytest.raises(ConfigurationError):
        run_protocol_vectorized(
            PushSumProtocol(_values(n), rounds=5), rng=0,
            env=GossipEnv(topology=ring(n), topology_process=ChurnProcess(n=n, rng=0)),
        )


def test_process_size_must_match_protocol():
    with pytest.raises(ConfigurationError):
        run_protocol_vectorized(
            PushSumProtocol(_values(32), rounds=5), rng=0,
            env=GossipEnv(topology_process=ChurnProcess(n=64, rng=0)),
        )


def test_process_rejects_peer_sampling_override():
    n = 32
    with pytest.raises(ConfigurationError):
        run_protocol_vectorized(
            PushSumProtocol(_values(n), rounds=5), rng=0,
            env=GossipEnv(peer_sampling="round-robin",
                          topology_process=ChurnProcess(n=n, rng=0)),
        )


def test_churn_process_parameter_validation():
    with pytest.raises(ConfigurationError):
        ChurnProcess(n=16, churn_rate=1.0)
    with pytest.raises(ConfigurationError):
        ChurnProcess(n=16, churn_rate=0.1, rejoin_rate=1.5)
    with pytest.raises(ConfigurationError):
        ChurnProcess(n=16, churn_rate=0.1, min_active=1)
    with pytest.raises(ConfigurationError):
        ChurnProcess()
    with pytest.raises(ConfigurationError):
        EdgeResamplingProcess(16, view_size=0)
    with pytest.raises(ConfigurationError):
        EdgeResamplingProcess(16, view_size=4, resample_every=0)


def test_churn_never_drops_below_min_active():
    process = ChurnProcess(n=8, churn_rate=0.9, rejoin_rate=0.05, min_active=3, rng=1)
    process.begin()
    for i in range(100):
        assert process.round_state(i).active.sum() >= 2
        # the schedule-level mask respects min_active even when the
        # per-round gossipable set is smaller on a sparse base
        assert process.active.sum() >= 3


# ---- pull windows ------------------------------------------------------------


def test_gossip_network_pull_under_churn_targets_active_nodes():
    n = 128
    values = _values(n)
    process = ChurnProcess(n=n, churn_rate=0.3, rng=4)
    network = GossipNetwork(values, rng=2, env=GossipEnv(topology_process=process))
    batch = network.pull(k=6)
    assert batch.partners.shape == (n, 6)
    # a departed puller's pull reads its own value
    pullers = np.nonzero(~batch.ok)[0]
    assert np.array_equal(batch.values[~batch.ok], values[pullers])
    assert np.array_equal(batch.values[batch.ok], values[batch.partners[batch.ok]])
    assert network.metrics.rounds == 6
    # departed pullers are marked failed, and only active nodes are pulled
    assert (~batch.ok).any()
    process.begin()  # replay the schedule
    for column in range(6):
        active = process.round_state(column).active
        ok = batch.ok[:, column]
        assert np.array_equal(ok, active)
        assert np.all(active[batch.partners[ok, column]])


def test_gossip_network_rejects_topology_and_process_together():
    with pytest.raises(ConfigurationError):
        GossipNetwork(
            _values(32), rng=0,
            env=GossipEnv(topology=ring(32),
                          topology_process=ChurnProcess(n=32, rng=0)),
        )


def test_gossip_network_rejects_ineffective_overrides_under_process():
    # mirror of the engine path: overrides the process would silently
    # swallow are configuration errors
    with pytest.raises(ConfigurationError):
        GossipNetwork(
            _values(32), rng=0,
            env=GossipEnv(peer_sampling="round-robin",
                          topology_process=ChurnProcess(n=32, rng=0)),
        )


def test_pulls_on_one_network_continue_the_process():
    n = 64
    process = ChurnProcess(n=n, churn_rate=0.3, rng=4)
    network = GossipNetwork(_values(n), rng=2, env=GossipEnv(topology_process=process))
    network.pull(k=4)
    first = list(process.active_history)
    assert len(first) == 4
    # the second pull runs on the network's metrics rounds 4-7, so it
    # continues the schedule instead of replaying it
    network.pull(k=4)
    assert len(process.active_history) == 8
    assert process.active_history[:4] == first
    assert process.active_history[4:] != first
    # a fresh network's pull begins at metrics round 0: the schedule replays
    fresh = GossipNetwork(_values(n), rng=3, env=GossipEnv(topology_process=process))
    fresh.pull(k=4)
    assert process.active_history == first


# ---- push_sum convenience wrapper --------------------------------------------


def test_push_sum_average_accepts_topology_process():
    n = 128
    values = _values(n)
    result = push_sum_average(
        values, rng=5, rounds=30,
        env=GossipEnv(topology_process=EdgeResamplingProcess(n, view_size=6, rng=2)),
    )
    assert result.estimates.shape == (n,)
    assert np.isfinite(result.estimates).all()
    assert abs(np.mean(result.estimates) - values.mean()) < 1.0


# ---- degree-correlated departures (leave_weights) ----------------------------


def test_uniform_leave_weights_match_the_default_schedule_exactly():
    """Shaping multiplies probabilities but never adds draws: all-ones
    weights consume the private stream identically to the default, so the
    generated masks are byte-identical."""
    n = 64
    plain = ChurnProcess(n=n, churn_rate=0.3, rng=7)
    weighted = ChurnProcess(
        n=n, churn_rate=0.3, leave_weights=np.ones(n), rng=7
    )
    plain.begin()
    weighted.begin()
    for i in range(30):
        np.testing.assert_array_equal(
            plain.round_state(i).active, weighted.round_state(i).active
        )


def test_degree_weights_require_a_non_complete_base_topology():
    with pytest.raises(ConfigurationError, match="degree"):
        ChurnProcess(n=32, churn_rate=0.2, leave_weights="degree", rng=0)


def test_leave_weights_validation():
    base = build_topology("small-world", 32, degree=4, rng=1)
    with pytest.raises(ConfigurationError, match="unknown leave_weights"):
        ChurnProcess(topology=base, leave_weights="betweenness", rng=0)
    with pytest.raises(ConfigurationError, match="shape"):
        ChurnProcess(topology=base, leave_weights=np.ones(5), rng=0)
    with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
        ChurnProcess(topology=base, leave_weights=np.full(32, 2.0), rng=0)


def test_degree_weighted_departures_bias_toward_hubs():
    """On a preferential-attachment graph, hubs (top-degree quartile) must
    spend measurably more rounds inactive than leaves under
    leave_weights='degree' — the adversarial churn pattern."""
    n = 128
    base = preferential_attachment(n, m=3, rng=5)
    process = ChurnProcess(
        topology=base, churn_rate=0.3, rejoin_rate=0.3,
        leave_weights="degree", rng=9,
    )
    process.begin()
    inactive_rounds = np.zeros(n)
    for i in range(200):
        inactive_rounds += ~process.round_state(i).active
    order = np.argsort(base.degrees)
    leaves = order[: n // 4]
    hubs = order[-n // 4:]
    assert inactive_rounds[hubs].mean() > 2.0 * inactive_rounds[leaves].mean()
    # The max-degree hub churns at the full rate; some low-degree node
    # should have been near-immune.
    assert inactive_rounds[order[0]] < inactive_rounds[order[-1]]


@pytest.mark.parametrize("engine", ["asyncio", "vectorized"])
def test_push_sum_mass_conserved_under_hub_weighted_churn(engine):
    """The regression the satellite asks for: conservation survives the
    worst case where the best-connected nodes are the ones leaving."""
    n = 128
    base = preferential_attachment(n, m=3, rng=4)
    process = ChurnProcess(
        topology=base, churn_rate=0.2, leave_weights="degree", rng=8,
    )
    values = _values(n)
    protocol = PushSumProtocol(values, rounds=40)
    run_protocol(
        protocol, rng=3, env=GossipEnv(topology_process=process, engine=engine),
        max_rounds=41, raise_on_budget=False,
    )
    assert protocol.total_mass == pytest.approx(values.sum(), rel=1e-12)
    assert protocol.total_weight == pytest.approx(n, rel=1e-12)
    assert min(process.active_history) < n
