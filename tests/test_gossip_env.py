"""Tests for the run environment (:class:`repro.gossip.env.GossipEnv`)."""

import dataclasses

import numpy as np
import pytest

from repro.core.approx_quantile import approximate_quantile
from repro.core.exact_quantile import exact_quantile
from repro.core.robust import robust_approximate_quantile
from repro.core.tokens import distribute_tokens
from repro.exceptions import ConfigurationError
from repro.faults import FaultInjector, MessageDrop
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


def test_env_is_frozen_and_replace_revalidates():
    env = GossipEnv(topology=ring(16, k=2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        env.engine = "loop"
    process = ChurnProcess(16, churn_rate=0.1, rng=0)
    with pytest.raises(ConfigurationError):
        dataclasses.replace(env, topology_process=process)
    moved = dataclasses.replace(env, topology=None, topology_process=process)
    assert moved.topology_process is process


def test_network_reads_its_settings_from_the_env():
    topology = ring(32, k=2)
    injector = FaultInjector(MessageDrop(0.1), rng=1)
    env = GossipEnv(
        failure_model=0.2, topology=topology, faults=injector, dtype="float32"
    )
    network = GossipNetwork(np.arange(32.0), rng=0, env=env)
    assert network.topology is topology
    assert network.faults is injector
    assert network.dtype == np.dtype(np.float32)
    assert network.failure_model is env.failure_model
    assert network.can_fail


def test_approximate_quantile_rejects_env_beside_a_network():
    network = GossipNetwork(np.arange(32.0), rng=0)
    with pytest.raises(ConfigurationError, match="env"):
        approximate_quantile(network=network, env=GossipEnv(failure_model=0.1))


@pytest.mark.parametrize(
    "settings",
    [
        {"topology_process": ChurnProcess(64, churn_rate=0.1, rng=0)},
        {"faults": FaultInjector(MessageDrop(0.1), rng=0)},
        {"engine": "asyncio"},
    ],
    ids=["topology-process", "faults", "asyncio"],
)
def test_exact_quantile_rejects_unsupported_settings(settings):
    with pytest.raises(ConfigurationError, match="exact_quantile"):
        exact_quantile(np.arange(64.0), 0.5, rng=0, env=GossipEnv(**settings))


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


def test_tokens_reject_a_topology():
    with pytest.raises(ConfigurationError, match="token distribution"):
        distribute_tokens(
            [0, 1], multiplicity=2, n=16, rng=0,
            env=GossipEnv(topology=ring(16, k=2)),
        )


def test_exact_quantile_on_a_ring_keeps_its_answer():
    """The approximate stages run on the ring; the auxiliary substrates run
    on the complete-graph ``aux`` env.  The answer is still exact."""
    values = np.random.default_rng(3).permutation(np.arange(1.0, 257.0))
    result = exact_quantile(
        values, 0.3, rng=4, env=GossipEnv(topology=ring(values.size, k=8)),
    )
    assert result.value == float(np.sort(values)[result.target_rank - 1])
