"""Tests for the topology & peer-sampling subsystem.

Covers the generator invariants (determinism under a fixed seed, degree
distributions, connectivity), the CSR representation, the samplers
(neighbor-respecting draws, round-robin coverage, bit-identity of the
uniform default), and the diagnostics.
"""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.gossip.engine import run_protocol
from repro.gossip.env import GossipEnv
from repro.gossip.network import GossipNetwork
from repro.topology import (
    NeighborSampler,
    RoundRobinSampler,
    Topology,
    UniformSampler,
    build_topology,
    complete,
    degree_stats,
    erdos_renyi,
    estimate_spectral_gap,
    is_connected,
    preferential_attachment,
    random_regular,
    resolve_peer_sampler,
    ring,
    torus,
    watts_strogatz,
    TOPOLOGY_CHOICES,
)
from repro.utils.rand import RandomSource, resample_forbidden_targets


# -- generators --------------------------------------------------------------------


@pytest.mark.parametrize("name", TOPOLOGY_CHOICES)
def test_generators_are_deterministic_under_a_fixed_seed(name):
    a = build_topology(name, 200, degree=6, rewire_p=0.2, rng=42)
    b = build_topology(name, 200, degree=6, rewire_p=0.2, rng=42)
    assert a.n == b.n == 200
    if a.is_complete:
        assert b.is_complete
    else:
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)


@pytest.mark.parametrize("name", TOPOLOGY_CHOICES)
def test_adjacency_is_symmetric_and_simple(name):
    topo = build_topology(name, 150, degree=6, rewire_p=0.2, rng=3)
    if topo.is_complete:
        return
    arcs = set()
    for v in range(topo.n):
        neighbors = topo.neighbors(v)
        assert np.all(np.diff(neighbors) > 0)  # sorted, no parallel edges
        assert v not in neighbors  # no self-loops
        arcs.update((v, int(u)) for u in neighbors)
    for v, u in arcs:
        assert (u, v) in arcs  # undirected


def test_degree_invariants():
    assert set(ring(100, k=2).degrees) == {4}
    assert set(torus(144).degrees) == {4}
    assert set(random_regular(200, 6, rng=1).degrees) == {6}
    ws = watts_strogatz(400, 8, 0.1, rng=2)
    assert abs(degree_stats(ws)["mean_degree"] - 8.0) < 0.2
    er = erdos_renyi(400, 8 / 399, rng=3)
    assert abs(degree_stats(er)["mean_degree"] - 8.0) < 1.5
    assert er.min_degree >= 1  # conditioned on min degree 1
    ba = preferential_attachment(300, m=3, rng=4)
    assert ba.min_degree >= 1
    # scale-free: the hub is much larger than the typical degree
    assert degree_stats(ba)["max_degree"] > 4 * degree_stats(ba)["mean_degree"]


def test_complete_topology_is_symbolic():
    topo = complete(10_000)
    assert topo.is_complete
    assert topo.num_edges == 10_000 * 9_999 // 2
    assert set(topo.degrees) == {9_999}
    assert list(topo.neighbors(3)[:4]) == [0, 1, 2, 4]


@pytest.mark.parametrize(
    "factory",
    [
        lambda: ring(100, 3),
        lambda: torus(100),
        lambda: random_regular(100, 4, rng=0),
        lambda: watts_strogatz(100, 6, 0.1, rng=0),
        lambda: preferential_attachment(100, 3, rng=0),
        lambda: complete(100),
    ],
    ids=["ring", "torus", "regular", "small-world", "pref-attach", "complete"],
)
def test_families_are_connected(factory):
    assert is_connected(factory())


def test_disconnected_graph_is_detected():
    # two disjoint triangles
    u = np.array([0, 1, 2, 3, 4, 5])
    v = np.array([1, 2, 0, 4, 5, 3])
    from repro.topology.graphs import _csr_from_edges

    topo = _csr_from_edges("pair-of-triangles", 6, u, v, {})
    assert not is_connected(topo)


def test_generator_validation():
    with pytest.raises(ConfigurationError):
        ring(6, k=3)  # 2k >= n
    with pytest.raises(ConfigurationError):
        random_regular(5, 3)  # n*d odd
    with pytest.raises(ConfigurationError):
        watts_strogatz(50, 5)  # odd k
    with pytest.raises(ConfigurationError):
        erdos_renyi(50, 1.5)
    with pytest.raises(ConfigurationError):
        build_topology("moebius", 50)
    with pytest.raises(ConfigurationError):
        torus(13)  # prime size has no 2-d factorisation


# -- spectral diagnostics ----------------------------------------------------------


def test_spectral_gap_orders_the_families():
    n = 400
    gap_ring = estimate_spectral_gap(ring(n, 2), rng=0)
    gap_torus = estimate_spectral_gap(torus(n), rng=0)
    gap_expander = estimate_spectral_gap(random_regular(n, 8, rng=0), rng=0)
    gap_complete = estimate_spectral_gap(complete(n))
    assert gap_ring < gap_torus < gap_expander < gap_complete
    # the expander's gap is a constant, the ring's vanishes
    assert gap_expander > 0.1
    assert gap_ring < 0.01


# -- samplers ----------------------------------------------------------------------


def test_neighbor_sampler_only_draws_neighbors():
    topo = watts_strogatz(80, 6, 0.3, rng=5)
    sampler = NeighborSampler(topo)
    rng = RandomSource(0)
    block = np.stack([sampler.draw_round(rng) for _ in range(5)], axis=1)
    for v in range(topo.n):
        neighbors = set(int(u) for u in topo.neighbors(v))
        assert set(int(u) for u in block[v]) <= neighbors


def test_round_robin_contacts_every_neighbor_once_per_cycle():
    topo = ring(60, 3)  # degree 6 everywhere
    sampler = RoundRobinSampler(topo)
    rng = RandomSource(1)
    cycle1 = np.stack([sampler.draw_round(rng) for _ in range(6)], axis=1)
    cycle2 = np.stack([sampler.draw_round(rng) for _ in range(6)], axis=1)
    for v in range(topo.n):
        expected = sorted(int(u) for u in topo.neighbors(v))
        assert sorted(int(u) for u in cycle1[v]) == expected
        assert sorted(int(u) for u in cycle2[v]) == expected
    # cycles are reshuffled, not replayed
    assert not np.array_equal(cycle1, cycle2)


def test_uniform_sampler_matches_the_historical_engine_stream():
    ours = UniformSampler(97).draw_round(RandomSource(13))
    # the pre-topology engine draw: uniform over all n, then re-draws of
    # self-contacts
    source = RandomSource(13)
    theirs = source.integers(0, 97, size=97)
    resample_forbidden_targets(source, theirs, np.arange(97), 97)
    assert np.array_equal(ours, theirs)


def test_resolve_peer_sampler_routes_complete_to_uniform():
    assert isinstance(resolve_peer_sampler(None, n=10), UniformSampler)
    assert isinstance(resolve_peer_sampler(complete(10)), UniformSampler)
    assert isinstance(resolve_peer_sampler(ring(10, 2)), NeighborSampler)
    assert isinstance(
        resolve_peer_sampler(ring(10, 2), sampling="round-robin"),
        RoundRobinSampler,
    )
    with pytest.raises(ConfigurationError):
        resolve_peer_sampler(ring(10, 2), sampling="telepathy")
    with pytest.raises(ConfigurationError):
        resolve_peer_sampler(ring(10, 2), n=11)  # size mismatch
    # round-robin needs a sparse topology: no silent uniform fallback
    with pytest.raises(ConfigurationError):
        resolve_peer_sampler(None, sampling="round-robin", n=10)
    with pytest.raises(ConfigurationError):
        resolve_peer_sampler(complete(10), sampling="round-robin")


def test_sampler_rejects_isolated_nodes():
    from repro.topology.graphs import _csr_from_edges

    u = np.array([0, 1])
    v = np.array([1, 2])
    lonely = _csr_from_edges("path-plus-louner", 4, u, v, {})
    with pytest.raises(ConfigurationError):
        NeighborSampler(lonely)


# -- integration: default paths are bit-identical ----------------------------------


def test_engine_default_and_complete_topology_are_bit_identical():
    from repro.aggregates.push_sum import PushSumProtocol

    values = RandomSource(3).random(64)
    base = run_protocol(PushSumProtocol(values, rounds=20), rng=9)
    topo = run_protocol(
        PushSumProtocol(values, rounds=20), rng=9, env=GossipEnv(topology=complete(64))
    )
    assert base.outputs == topo.outputs
    assert base.metrics.summary() == topo.metrics.summary()


def test_network_default_and_complete_topology_are_bit_identical():
    values = RandomSource(4).random(50)
    a = GossipNetwork(values, rng=8)
    b = GossipNetwork(values, rng=8, env=GossipEnv(topology=complete(50)))
    batch_a = a.pull(3)
    batch_b = b.pull(3)
    assert np.array_equal(batch_a.partners, batch_b.partners)
    assert np.array_equal(batch_a.values, batch_b.values)


def test_network_pulls_respect_the_topology():
    topo = torus(64)
    values = RandomSource(5).random(64)
    network = GossipNetwork(values, rng=2, env=GossipEnv(topology=topo))
    batch = network.pull(4)
    for v in range(64):
        neighbors = set(int(u) for u in topo.neighbors(v))
        assert set(int(u) for u in batch.partners[v]) <= neighbors


def test_approx_quantile_rejects_round_robin_on_the_complete_graph():
    from repro.core.approx_quantile import approximate_quantile

    values = RandomSource(6).random(64)
    with pytest.raises(ConfigurationError, match="sparse topology"):
        approximate_quantile(
            values, rng=1, env=GossipEnv(peer_sampling="round-robin")
        )
    with pytest.raises(ConfigurationError, match="nodes"):
        approximate_quantile(values, rng=1, env=GossipEnv(topology=ring(32, 2)))


def test_robustness_reference_stream_is_independent_of_trials():
    """The mu=0 slowdown must compare two independent runs, not a run
    against a replay of itself (regression for the seed-branch collision)."""
    from repro.experiments.robustness import run as run_rob

    rows = run_rob(sizes=(256,), mus=(0.0,), trials=1, seed=4)
    # identical streams would make the trial reproduce the reference
    # exactly: same values, same rounds, zero error on both sides.
    row = rows[0]
    assert row["rounds"] != row["failure_free_rounds"] or row["mean_error"] > 0


def test_topology_validation():
    with pytest.raises(ConfigurationError):
        Topology(name="bad", n=1, indptr=None, indices=None)
    with pytest.raises(ConfigurationError):
        Topology(
            name="bad", n=3,
            indptr=np.array([0, 1]), indices=np.array([1]),
        )
