"""Tests for the Step-7 token split-and-distribute process.

The invariant suite (exact multiplicities, at most one token per node,
bounded phases, failure accounting) runs on the one implementation;
``env.engine`` does not change a seeded run.
"""

import math

import numpy as np
import pytest

from repro.core.tokens import distribute_tokens
from repro.exceptions import ConfigurationError
from repro.gossip.env import GossipEnv
from repro.utils.rand import RandomSource


def test_every_item_gets_exactly_multiplicity_copies():
    result = distribute_tokens(list(range(20)), multiplicity=8, n=512, rng=1)
    for item in range(20):
        assert result.copies_of(item) == 8
    owned = result.owners[result.owners >= 0]
    assert owned.size == 20 * 8


def test_no_node_holds_more_than_one_token_at_the_end():
    result = distribute_tokens(list(range(30)), multiplicity=4, n=256, rng=2)
    owners = result.owners
    occupied = owners[owners >= 0]
    assert occupied.size == 30 * 4
    # owners array has one entry per node, so "at most one token per node"
    # is structural; verify counts per item instead.
    counts = np.bincount(occupied, minlength=30)
    assert np.all(counts == 4)


def test_multiplicity_one_keeps_items_in_place():
    item_nodes = [5, 9, 17]
    result = distribute_tokens(item_nodes, multiplicity=1, n=64, rng=3)
    assert result.phases == 0
    for item, node in enumerate(item_nodes):
        assert result.copies_of(item) == 1
        assert result.owners[node] == item


def test_multiplicity_one_with_colocated_items_spreads():
    result = distribute_tokens([7, 7, 7], multiplicity=1, n=128, rng=4)
    occupied = result.owners[result.owners >= 0]
    assert occupied.size == 3
    assert sorted(occupied.tolist()) == [0, 1, 2]
    assert result.phases >= 1


def test_phases_grow_logarithmically_with_multiplicity():
    # keep the token load well below n so spreading collisions stay rare,
    # matching the paper's regime of at most n^0.99 tokens
    small = distribute_tokens(list(range(10)), multiplicity=2, n=2048, rng=4)
    large = distribute_tokens(list(range(10)), multiplicity=32, n=2048, rng=4)
    assert large.phases > small.phases
    assert large.phases <= small.phases + math.log2(32) + 20


def test_max_tokens_per_node_stays_small():
    result = distribute_tokens(list(range(40)), multiplicity=8, n=1024, rng=5)
    assert result.max_tokens_per_node <= 12  # O(1) w.h.p.


def test_under_failures_still_completes_and_counts_failed_pushes():
    result = distribute_tokens(
        list(range(20)), multiplicity=8, n=512, rng=6,
        env=GossipEnv(failure_model=0.3),
    )
    assert result.failed_pushes > 0
    for item in range(20):
        assert result.copies_of(item) == 8


def test_rounds_accounting_shared_metrics():
    from repro.gossip.metrics import NetworkMetrics

    shared = NetworkMetrics(keep_history=False)
    shared.charge_rounds(10)
    result = distribute_tokens(
        list(range(8)), multiplicity=4, n=128, rng=7, metrics=shared
    )
    assert result.rounds == shared.rounds - 10


def test_validation_errors():
    with pytest.raises(ConfigurationError):
        distribute_tokens([], multiplicity=2, n=16)
    with pytest.raises(ConfigurationError):
        # not a power of two
        distribute_tokens([0, 1], multiplicity=3, n=16)
    with pytest.raises(ConfigurationError):
        # node out of range
        distribute_tokens([0, 20], multiplicity=2, n=16)
    with pytest.raises(ConfigurationError):
        # 40 tokens > 16 nodes
        distribute_tokens(list(range(10)), multiplicity=4, n=16)


def test_deterministic_given_seed():
    a = distribute_tokens(list(range(12)), multiplicity=4, n=256,
                          rng=RandomSource(9))
    b = distribute_tokens(list(range(12)), multiplicity=4, n=256,
                          rng=RandomSource(9))
    assert np.array_equal(a.owners, b.owners)
    assert a.phases == b.phases


def test_non_integer_item_nodes_are_rejected():
    with pytest.raises(ConfigurationError, match="integer"):
        distribute_tokens([0.9, 1.7], multiplicity=2, n=16)
    with pytest.raises(ConfigurationError, match="integer"):
        distribute_tokens([0.0, float("nan")], multiplicity=2, n=16)
    with pytest.raises(ConfigurationError, match="integer"):
        distribute_tokens(["0", "1"], multiplicity=2, n=16)
    # integral floats name the same nodes as their integers
    as_floats = distribute_tokens([3.0, 5.0], multiplicity=2, n=16, rng=1)
    as_ints = distribute_tokens([3, 5], multiplicity=2, n=16, rng=1)
    assert np.array_equal(as_floats.owners, as_ints.owners)


# ---- one process: env.engine does not apply ----------------------------------


@pytest.mark.parametrize("mu", (0.0, 0.3))
def test_engine_choice_does_not_change_the_run(mu):
    def run(engine):
        result = distribute_tokens(
            list(range(5)), multiplicity=4, n=64, rng=1,
            env=GossipEnv(failure_model=mu if mu > 0 else None, engine=engine),
        )
        return (result.owners.tolist(), result.phases, result.rounds,
                result.failed_pushes, result.metrics.summary())

    assert run("vectorized") == run(None) == run("asyncio")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": 1.5},
        {"n": True},
        {"n": "16"},
        {"multiplicity": 2.5},
        {"multiplicity": True},
        {"multiplicity": np.True_},
        {"multiplicity": float("nan")},
    ],
    ids=["n-fraction", "n-bool", "n-str", "m-fraction", "m-bool", "m-np-bool",
         "m-nan"],
)
def test_non_integral_sizes_are_configuration_errors(kwargs):
    call = {"item_nodes": [0, 1], "multiplicity": 2, "n": 16, "rng": 1}
    call.update(kwargs)
    with pytest.raises(ConfigurationError, match="must be an integer"):
        distribute_tokens(**call)


@pytest.mark.parametrize(
    "n, multiplicity",
    [(np.float64(16.0), 2), (16, 2.0), (np.int32(16), np.int64(2))],
    ids=["np-float-n", "float-m", "np-ints"],
)
def test_integral_sizes_name_the_same_run(n, multiplicity):
    reference = distribute_tokens([0, 1], multiplicity=2, n=16, rng=1)
    result = distribute_tokens([0, 1], multiplicity=multiplicity, n=n, rng=1)
    assert type(result.multiplicity) is int and result.multiplicity == 2
    assert np.array_equal(result.owners, reference.owners)


# ---- fixed-seed invariants --------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("mu", (0.0, 0.3))
def test_invariants_hold_under_fixed_seeds(seed, mu):
    """Exact multiplicities, ≤ 1 token per node, bounded phases."""
    result = distribute_tokens(
        list(range(15)),
        multiplicity=8,
        n=512,
        rng=RandomSource(seed),
        env=GossipEnv(failure_model=mu if mu > 0 else None),
    )
    occupied = result.owners[result.owners >= 0]
    assert occupied.size == 15 * 8
    assert np.all(np.bincount(occupied, minlength=15) == 8)
    assert result.phases <= 4 * math.log2(512)
    assert result.max_tokens_per_node <= 16
    assert result.multiplicity == 8
    if mu > 0:
        assert result.failed_pushes > 0


def test_message_accounting_without_failures():
    """No failures: one message per push, no failed node-rounds."""
    from repro.gossip.metrics import NetworkMetrics

    metrics = NetworkMetrics(keep_history=True)
    result = distribute_tokens(list(range(10)), multiplicity=4, n=256, rng=3,
                               metrics=metrics)
    assert metrics.failed_node_rounds == 0
    assert result.failed_pushes == 0
    assert metrics.messages > 0
    # every recorded round is a token-distribution round
    assert all(r.label == "token-distribution" for r in metrics.history)
    assert len(metrics.history) == result.rounds


def test_weight_conservation_mid_failures():
    """Failure merges must conserve the total weight of every item."""
    result = distribute_tokens(
        list(range(12)), multiplicity=16, n=1024, rng=11,
        env=GossipEnv(failure_model=0.4)
    )
    occupied = result.owners[result.owners >= 0]
    assert np.all(np.bincount(occupied, minlength=12) == 16)


def test_large_instances_run_quickly():
    n = 50_000
    items = np.arange(0, n, 100)  # 500 items
    result = distribute_tokens(items, multiplicity=32, n=n, rng=13)
    occupied = result.owners[result.owners >= 0]
    assert occupied.size == items.size * 32
    assert np.all(np.bincount(occupied, minlength=items.size) == 32)


# ---- seeded stream pins -----------------------------------------------------

#: sha256 prefixes of ``distribute_tokens(list(range(15)), 8, 512, rng=23)``
#: per failure rate: the owners array, then phases, rounds, failed pushes
#: and the metrics summary as JSON.
TOKEN_PINS = {
    0.0: "2ba73856a5b03bf8",
    0.3: "a5a500cc05a89793",
}


def _token_digest(mu):
    import hashlib
    import json

    result = distribute_tokens(
        list(range(15)), 8, 512, rng=23,
        env=GossipEnv(failure_model=mu if mu > 0 else None),
    )
    scalars = [result.phases, result.rounds, result.failed_pushes,
               result.metrics.summary()]
    digest = hashlib.sha256(np.ascontiguousarray(result.owners).tobytes())
    digest.update(json.dumps(scalars, sort_keys=True).encode())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("mu", sorted(TOKEN_PINS))
def test_token_streams_pinned(mu):
    assert _token_digest(mu) == TOKEN_PINS[mu]
