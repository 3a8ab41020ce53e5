"""Property-based tests for the gossip substrate invariants (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.tokens import distribute_tokens
from repro.gossip.engine import run_protocol
from repro.gossip.network import GossipNetwork
from repro.aggregates.push_sum import PushSumProtocol
from repro.gossip.env import GossipEnv
from repro.utils.rand import RandomSource

seeds = st.integers(min_value=0, max_value=10_000)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=128),
    k=st.integers(min_value=1, max_value=5),
    seed=seeds,
)
def test_pull_batch_partners_are_valid_and_never_self(n, k, seed):
    values = np.arange(float(n))
    network = GossipNetwork(values, rng=seed)
    batch = network.pull(k)
    assert batch.partners.shape == (n, k)
    assert batch.partners.min() >= 0
    assert batch.partners.max() < n
    own = np.arange(n)[:, None]
    assert not np.any(batch.partners == own)
    assert network.metrics.rounds == k


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=100),
    rounds=st.integers(min_value=1, max_value=40),
    seed=seeds,
    mu=st.floats(min_value=0.0, max_value=0.8),
)
def test_push_sum_mass_conservation_property(n, rounds, seed, mu):
    values = RandomSource(seed).random(n) * 100.0
    protocol = PushSumProtocol(values, rounds=rounds)
    mass_before = protocol.total_mass
    weight_before = protocol.total_weight
    run_protocol(protocol, rng=seed, max_rounds=rounds + 1,
                 env=GossipEnv(failure_model=mu if mu > 0 else None))
    assert np.isclose(protocol.total_mass, mass_before, rtol=1e-9)
    assert np.isclose(protocol.total_weight, weight_before, rtol=1e-9)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=32, max_value=256),
    items=st.integers(min_value=1, max_value=8),
    log_mult=st.integers(min_value=0, max_value=3),
    seed=seeds,
)
def test_token_distribution_conservation_property(n, items, log_mult, seed):
    multiplicity = 1 << log_mult
    if items * multiplicity > n:
        return
    rng = RandomSource(seed)
    item_nodes = rng.choice(np.arange(n), size=items, replace=False)
    result = distribute_tokens(item_nodes, multiplicity=multiplicity, n=n, rng=rng.child())
    owned = result.owners[result.owners >= 0]
    # conservation: every item ends with exactly `multiplicity` unit copies
    counts = np.bincount(owned, minlength=items)
    assert np.all(counts == multiplicity)
    # no node holds more than one token at the end (structural) and the
    # number of occupied nodes equals the number of unit tokens
    assert owned.size == items * multiplicity


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=2, max_value=200), seed=seeds)
def test_network_values_are_preserved_until_set(n, seed):
    values = RandomSource(seed).random(n)
    network = GossipNetwork(values, rng=seed)
    network.pull(2)
    assert np.array_equal(network.values, values)  # pulls never mutate values
