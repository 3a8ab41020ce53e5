"""Tests for the run environment (:class:`repro.gossip.env.GossipEnv`)."""

import dataclasses

import numpy as np
import pytest

from repro.core.exact_quantile import exact_quantile
from repro.core.robust import robust_approximate_quantile
from repro.core.tokens import distribute_tokens
from repro.exceptions import ConfigurationError
from repro.faults import CrashRestart, FaultInjector, MessageDrop
from repro.gossip.env import GossipEnv
from repro.gossip.failures import NoFailures, UniformFailures
from repro.gossip.network import GossipNetwork
from repro.topology import ChurnProcess, ring


def test_default_env_is_failure_free_float64_on_the_complete_graph():
    env = GossipEnv()
    assert isinstance(env.failure_model, NoFailures)
    assert env.dtype == np.dtype(np.float64)
    assert env.topology is None and env.topology_process is None
    assert env.faults is None and env.engine is None
    assert env.peer_sampling == "uniform"


def test_failure_model_and_dtype_are_normalized():
    env = GossipEnv(failure_model=0.25, dtype="float32")
    assert isinstance(env.failure_model, UniformFailures)
    assert env.failure_model.mu == 0.25
    assert env.dtype == np.dtype(np.float32)
    model = UniformFailures(0.1)
    assert GossipEnv(failure_model=model).failure_model is model


@pytest.mark.parametrize(
    "settings",
    [
        {"failure_model": "half"},
        {"dtype": "int32"},
        {"engine": "turbo"},
        {"peer_sampling": "psychic"},
        {"faults": "drop"},
        {
            "topology": ring(16, k=2),
            "topology_process": ChurnProcess(16, churn_rate=0.1, rng=0),
        },
        {
            "topology_process": ChurnProcess(16, churn_rate=0.1, rng=0),
            "peer_sampling": "round-robin",
        },
    ],
    ids=[
        "failure-model", "dtype", "engine", "peer-sampling", "faults-type",
        "topology-and-process", "sampling-under-process",
    ],
)
def test_invalid_settings_are_rejected_at_construction(settings):
    with pytest.raises(ConfigurationError):
        GossipEnv(**settings)


@pytest.mark.parametrize(
    "engine, replacement",
    [("loop", "engine='asyncio'"), ("auto", "'vectorized'")],
)
def test_removed_engine_names_are_rejected_naming_the_replacement(
    engine, replacement
):
    with pytest.raises(ConfigurationError, match="was removed") as raised:
        GossipEnv(engine=engine)
    assert replacement in str(raised.value)


def test_engine_choices_are_vectorized_and_asyncio():
    from repro.gossip.env import ENGINE_CHOICES

    assert ENGINE_CHOICES == ("vectorized", "asyncio")
    for engine in (None, *ENGINE_CHOICES):
        assert GossipEnv(engine=engine).engine == engine


def test_env_is_frozen_and_replace_revalidates():
    env = GossipEnv(topology=ring(16, k=2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        env.engine = "asyncio"
    process = ChurnProcess(16, churn_rate=0.1, rng=0)
    with pytest.raises(ConfigurationError):
        dataclasses.replace(env, topology_process=process)
    moved = dataclasses.replace(env, topology=None, topology_process=process)
    assert moved.topology_process is process


def test_pull_windows_read_their_settings_from_the_env():
    injector = FaultInjector(MessageDrop(0.1), rng=1)
    env = GossipEnv(
        failure_model=0.2, topology=ring(32, k=2), faults=injector,
        dtype="float32",
    )
    network = GossipNetwork(np.arange(32.0), rng=0, env=env)
    batch = network.pull(3)
    assert network.values.dtype == np.dtype(np.float32)
    # pulls go to ring neighbours only, and the failure model and the
    # injector both take pulls away
    offsets = np.abs(batch.partners - np.arange(32)[:, None])
    assert np.all(np.minimum(offsets, 32 - offsets)[batch.ok] <= 2)
    assert not batch.ok.all()
    assert injector.rounds_drawn == 3


@pytest.mark.parametrize(
    "settings",
    [
        {"topology_process": ChurnProcess(64, churn_rate=0.05, rejoin_rate=0.5,
                                          rng=0)},
        {"faults": FaultInjector([MessageDrop(0.1), CrashRestart(0.05)], rng=0)},
        {"engine": "asyncio"},
    ],
    ids=["topology-process", "faults", "asyncio"],
)
def test_exact_quantile_keeps_its_answer_under_every_setting(settings):
    """Churn, crash/drop faults and the asyncio engine reach every step of
    Algorithm 3, and the answer stays exact."""
    values = np.random.default_rng(3).permutation(np.arange(1.0, 65.0))
    result = exact_quantile(values, 0.5, rng=0, env=GossipEnv(**settings))
    assert result.value == float(np.sort(values)[result.target_rank - 1])
    if "engine" not in settings:
        assert result.metrics.failed_node_rounds > 0


@pytest.mark.parametrize(
    "settings",
    [
        {"topology": ring(64, k=2)},
        {"topology_process": ChurnProcess(64, churn_rate=0.1, rng=0)},
    ],
    ids=["topology", "topology-process"],
)
def test_robust_quantile_rejects_unsupported_settings(settings):
    with pytest.raises(ConfigurationError, match="robust_approximate_quantile"):
        robust_approximate_quantile(
            np.arange(64.0), phi=0.5, eps=0.1, rng=0, env=GossipEnv(**settings)
        )


def test_tokens_keep_exact_multiplicities_on_a_ring():
    """Pushes go to ring neighbours; at 0.5 load every item still ends up
    with exactly ``multiplicity`` copies."""
    result = distribute_tokens(
        list(range(0, 256, 16)), multiplicity=8, n=256, rng=0,
        env=GossipEnv(topology=ring(256, k=2)),
    )
    assert [result.copies_of(item) for item in range(16)] == [8] * 16
    assert np.count_nonzero(result.owners >= 0) == 128
    # A token moves at most once per phase, by at most 2 hops on ring(k=2).
    holders = np.flatnonzero(result.owners >= 0)
    hops = np.abs(holders - 16 * result.owners[holders])
    assert np.minimum(hops, 256 - hops).max() <= 2 * result.phases


def test_exact_quantile_on_a_ring_keeps_its_answer():
    """The approximate stages run on the ring; the auxiliary substrates run
    on the complete-graph ``aux`` env.  The answer is still exact."""
    values = np.random.default_rng(3).permutation(np.arange(1.0, 257.0))
    result = exact_quantile(
        values, 0.3, rng=4, env=GossipEnv(topology=ring(values.size, k=8)),
    )
    assert result.value == float(np.sort(values)[result.target_rank - 1])
