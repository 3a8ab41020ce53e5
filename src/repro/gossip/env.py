"""The run environment shared by every gossip entry point.

A :class:`GossipEnv` bundles the seven settings that say *where* a gossip
computation runs — the Section-5 failure model, the static topology and
its peer sampling, the dynamic topology process, the fault injector, the
value dtype and the engine — into one frozen object that is validated
once, at construction.  Entry points take a single ``env=`` and hand it
down whole, so a sub-run cannot silently drop one of the settings.  The
per-call inputs stay separate: ``rng`` (every sub-run takes a fresh child
stream), ``metrics`` (sub-runs share one accumulator) and
``keep_history``.

A driver that deliberately runs a substrate somewhere else states it
in one line with :func:`dataclasses.replace`, e.g. the exact-quantile
driver's complete-graph auxiliary substrates::

    aux = dataclasses.replace(env, topology=None, peer_sampling="uniform")
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.faults.injectors import FaultInjector
from repro.gossip.failures import FailureModel, NoFailures, resolve_failure_model
from repro.topology.dynamic import TopologyProcess
from repro.topology.graphs import Topology
from repro.topology.sampler import PEER_SAMPLING_CHOICES

#: Valid values for the ``engine`` field (``None`` means vectorized).
#: ``"asyncio"`` is the live-network backend (:mod:`repro.net`): the same
#: protocol objects, each node a task speaking RPC over a real transport.
ENGINE_CHOICES = ("vectorized", "asyncio")

#: Value dtypes a gossip network may run on.  float64 is the default;
#: float32 halves the memory traffic of the per-round ``(n, k, L)`` gathers
#: and is exact for integer-valued payloads below 2**24 (e.g. the
#: exact-quantile driver's rank keys).
SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


# eq=False: envs compare by identity, because they carry stateful process
# and injector objects and topologies whose array fields have no scalar ==.
@dataclass(frozen=True, eq=False)
class GossipEnv:
    """Where a gossip computation runs: one validated, immutable bundle.

    Attributes
    ----------
    failure_model:
        ``None`` (no failures), a float ``mu`` or a
        :class:`~repro.gossip.failures.FailureModel`; normalized to a model.
    topology:
        Optional :class:`~repro.topology.graphs.Topology` restricting who
        can contact whom.  ``None`` is the paper's uniform gossip on the
        complete graph, bit-identical to the historical partner stream.
    peer_sampling:
        Partner strategy on a sparse topology: ``"uniform"`` over neighbors
        or ``"round-robin"`` (shuffled cyclic neighbor schedule).
    topology_process:
        Optional :class:`~repro.topology.dynamic.TopologyProcess` making
        the graph a per-round object (churn, edge resampling).  It owns
        partner selection, so a static ``topology`` or a non-default
        ``peer_sampling`` beside it is rejected.
    faults:
        Optional :class:`~repro.faults.FaultInjector`; its act-suppression
        kinds OR into the failure mask, and the tournament pull windows
        apply the full fault vocabulary on either engine.
    dtype:
        Value dtype of the gossip arrays: float64 (default, also for
        ``None``) or float32; normalized to a :class:`numpy.dtype`.
    engine:
        ``"vectorized"`` (also for ``None``) or ``"asyncio"``, the
        per-node live backend.

    The process and the injector are stateful and the env only carries
    them: every run restarts the process, while the injector's stream runs
    on across the runs that share it.  Failure model, process and injector
    compose freely on every substrate, by one rule
    (:func:`~repro.gossip.engine.round_outage`): a node sits out a round if
    *any* of them says so, and each draws from its own stream.
    """

    failure_model: FailureModel = NoFailures()
    topology: Optional[Topology] = None
    peer_sampling: str = "uniform"
    topology_process: Optional[TopologyProcess] = None
    faults: Optional[FaultInjector] = None
    dtype: np.dtype = np.dtype(np.float64)
    engine: Optional[str] = None

    def __post_init__(self) -> None:
        # Normalize in place: the dataclass is frozen, so assign through
        # object.__setattr__ exactly once, here.
        object.__setattr__(
            self, "failure_model", resolve_failure_model(self.failure_model)
        )
        dtype = np.dtype(np.float64 if self.dtype is None else self.dtype)
        if dtype not in SUPPORTED_DTYPES:
            raise ConfigurationError(
                f"unsupported value dtype {dtype}; choose float32 or float64"
            )
        object.__setattr__(self, "dtype", dtype)
        if self.engine in ("loop", "auto"):
            raise ConfigurationError(
                f"engine {self.engine!r} was removed: use None or 'vectorized' "
                "(the default engine), or engine='asyncio' for the per-node "
                "reference"
            )
        if self.engine is not None and self.engine not in ENGINE_CHOICES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; choose from {ENGINE_CHOICES}"
            )
        if self.peer_sampling not in PEER_SAMPLING_CHOICES:
            raise ConfigurationError(
                f"unknown peer sampling {self.peer_sampling!r}; choose from "
                f"{PEER_SAMPLING_CHOICES}"
            )
        if self.faults is not None and not isinstance(self.faults, FaultInjector):
            raise ConfigurationError(
                f"faults must be a FaultInjector, got {self.faults!r}"
            )
        if self.topology_process is not None:
            if self.topology is not None:
                raise ConfigurationError(
                    "pass either topology or topology_process, not both"
                )
            if self.peer_sampling != "uniform":
                raise ConfigurationError(
                    "peer_sampling is owned by the topology process; construct "
                    "the process with the desired strategy instead"
                )

    def mu_bound(self) -> float:
        """A bound on the rate at which a node sits out a round.

        A node is out if the failure model fails it (rate at most
        ``failure_model.mu``) or the fault injector crashes or drops it
        (:meth:`~repro.faults.FaultInjector.mu_bound`), independently, so
        the two bounds combine by union, capped just below 1.  The
        Section-5 pull counts and the push-sum counting budget are sized
        from it.
        """
        mu = self.failure_model.mu
        if self.faults is not None:
            mu = min(1.0 - (1.0 - mu) * (1.0 - self.faults.mu_bound()), 0.999)
        return mu

    def reject(self, caller: str, *names: str) -> None:
        """Raise unless every named setting is unset on this env.

        For entry points that do not support a setting: the env is passed
        down whole, so an unsupported setting must fail loudly rather than
        take effect somewhere untested.
        """
        for name in names:
            if getattr(self, name) is not None:
                raise ConfigurationError(f"{caller} does not support env.{name}")


def resolve_env(env: Optional[GossipEnv]) -> GossipEnv:
    """``env`` itself, or the default environment for ``None``."""
    return env if env is not None else GossipEnv()


__all__ = [
    "ENGINE_CHOICES",
    "GossipEnv",
    "SUPPORTED_DTYPES",
    "resolve_env",
]
