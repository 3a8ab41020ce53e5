"""Property-based tests for the engine substrate (hypothesis).

Invariants locked down here: partner draws are always valid and never
select the drawing node itself, failure masks hit the configured rate
within statistical tolerance, and the cumulative metrics of a run equal
the sum of its per-round records.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.aggregates.extrema import spread_protocol
from repro.aggregates.push_sum import PushSumProtocol
from repro.gossip.engine import run_protocol, run_protocol_vectorized
from repro.gossip.env import GossipEnv
from repro.gossip.failures import UniformFailures
from repro.topology.sampler import draw_uniform_round_partners
from repro.utils.rand import RandomSource

seeds = st.integers(min_value=0, max_value=10_000)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=2, max_value=500), seed=seeds)
def test_partner_draws_are_valid_and_never_self(n, seed):
    source = RandomSource(seed)
    for _ in range(3):
        partners = draw_uniform_round_partners(source, n)
        assert partners.shape == (n,)
        assert partners.min() >= 0
        assert partners.max() < n
        assert not np.any(partners == np.arange(n))


@settings(max_examples=25, deadline=None)
@given(
    mu=st.floats(min_value=0.05, max_value=0.9),
    seed=seeds,
)
def test_failure_mask_respects_configured_rate(mu, seed):
    n, rounds = 400, 30
    model = UniformFailures(mu)
    source = RandomSource(seed)
    failed = sum(
        int(model.failure_mask(r, n, source).sum()) for r in range(rounds)
    )
    rate = failed / (n * rounds)
    # Bernoulli(mu) over n * rounds = 12000 draws: five sigma of tolerance.
    tolerance = 5.0 * np.sqrt(mu * (1 - mu) / (n * rounds))
    assert abs(rate - mu) <= tolerance


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=120),
    rounds=st.integers(min_value=1, max_value=25),
    mu=st.floats(min_value=0.0, max_value=0.6),
    seed=seeds,
)
def test_metric_totals_equal_sum_of_round_records(n, rounds, mu, seed):
    values = RandomSource(seed).random(n) * 10.0
    protocol = PushSumProtocol(values, rounds=rounds)
    result = run_protocol_vectorized(
        protocol, rng=seed, env=GossipEnv(failure_model=mu if mu > 0 else None),
        max_rounds=rounds + 1,
    )
    stats = result.metrics
    history = stats.history
    assert stats.rounds == len(history)
    assert stats.messages == sum(r.messages for r in history)
    assert stats.total_bits == sum(r.bits for r in history)
    assert stats.failed_node_rounds == sum(r.failed_nodes for r in history)
    assert stats.max_message_bits == max(
        (r.max_message_bits for r in history), default=0
    )


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=100),
    mu=st.floats(min_value=0.0, max_value=0.5),
    seed=seeds,
)
def test_engines_agree_for_random_configurations(n, mu, seed):
    values = RandomSource(seed).random(n) * 100.0
    env = GossipEnv(failure_model=mu if mu > 0 else None)
    reference = run_protocol(
        spread_protocol(values, mode="max", env=env), rng=seed,
        env=GossipEnv(failure_model=env.failure_model, engine="asyncio"),
    )
    vec = run_protocol_vectorized(
        spread_protocol(values, mode="max", env=env), rng=seed, env=env,
    )
    assert reference.outputs == vec.outputs
    assert reference.rounds == vec.rounds
    assert reference.metrics.summary() == vec.metrics.summary()


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=100),
    rounds=st.integers(min_value=1, max_value=30),
    mu=st.floats(min_value=0.0, max_value=0.8),
    seed=seeds,
)
def test_vectorized_push_sum_conserves_mass(n, rounds, mu, seed):
    values = RandomSource(seed).random(n) * 100.0
    protocol = PushSumProtocol(values, rounds=rounds)
    mass_before = protocol.total_mass
    weight_before = protocol.total_weight
    run_protocol_vectorized(
        protocol, rng=seed, env=GossipEnv(failure_model=mu if mu > 0 else None),
        max_rounds=rounds + 1,
    )
    assert np.isclose(protocol.total_mass, mass_before, rtol=1e-9)
    assert np.isclose(protocol.total_weight, weight_before, rtol=1e-9)
