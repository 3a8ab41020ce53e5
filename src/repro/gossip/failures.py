"""Failure models for the robustness analysis of Section 5.

The paper's model: for every node ``v`` and round ``i`` there is a
pre-determined probability ``p_{v,i} <= mu < 1`` and node ``v`` fails to
perform its operation (push or pull) in round ``i`` independently with that
probability.  A failed node neither pushes nor pulls in that round, but it
can still be the target of other nodes' operations.
"""

from __future__ import annotations

import abc
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.rand import RandomSource


class FailureModel(abc.ABC):
    """Decides which nodes fail to act in a given round."""

    #: Upper bound ``mu`` on any per-round failure probability.
    mu: float = 0.0

    @abc.abstractmethod
    def failure_mask(self, round_index: int, n: int, rng: RandomSource) -> np.ndarray:
        """Return a boolean array of length ``n``: True means the node fails."""

    def expected_failures(self, n: int) -> float:
        """Expected number of failed nodes per round (upper bound)."""
        return self.mu * n


class NoFailures(FailureModel):
    """The failure-free model used by Sections 2-4."""

    mu = 0.0

    def failure_mask(self, round_index: int, n: int, rng: RandomSource) -> np.ndarray:
        return np.zeros(n, dtype=bool)

    def __repr__(self) -> str:
        return "NoFailures()"


class UniformFailures(FailureModel):
    """Every node fails with the same probability ``mu`` in every round."""

    def __init__(self, mu: float) -> None:
        if not 0.0 <= mu < 1.0:
            raise ConfigurationError(f"mu must be in [0, 1), got {mu}")
        self.mu = float(mu)

    def failure_mask(self, round_index: int, n: int, rng: RandomSource) -> np.ndarray:
        if self.mu == 0.0:
            return np.zeros(n, dtype=bool)
        return rng.random(n) < self.mu

    def __repr__(self) -> str:
        return f"UniformFailures(mu={self.mu})"


ProbabilitySchedule = Union[
    Sequence[float], np.ndarray, Callable[[int, int], np.ndarray]
]


class PerNodeFailures(FailureModel):
    """Node- and round-dependent failure probabilities ``p_{v,i}``.

    Parameters
    ----------
    probabilities:
        Either a length-``n`` array of per-node probabilities (constant over
        rounds) or a callable ``(round_index, n) -> array`` producing the
        per-round probabilities.  All probabilities must be ``< 1``.
    mu:
        Optional explicit upper bound; inferred from a static array when not
        given.
    """

    def __init__(
        self, probabilities: ProbabilitySchedule, mu: Optional[float] = None
    ) -> None:
        self._callable: Optional[Callable[[int, int], np.ndarray]] = None
        self._static: Optional[np.ndarray] = None
        if callable(probabilities):
            self._callable = probabilities
            if mu is None:
                raise ConfigurationError(
                    "mu must be given explicitly for callable probability schedules"
                )
        else:
            arr = np.asarray(probabilities, dtype=float)
            if arr.ndim != 1:
                raise ConfigurationError("probabilities must be one-dimensional")
            if np.any(arr < 0) or np.any(arr >= 1):
                raise ConfigurationError("probabilities must lie in [0, 1)")
            self._static = arr
            if mu is None:
                mu = float(arr.max(initial=0.0))
        if not 0.0 <= float(mu) < 1.0:
            raise ConfigurationError(f"mu must be in [0, 1), got {mu}")
        self.mu = float(mu)

    def _probabilities(self, round_index: int, n: int) -> np.ndarray:
        if self._callable is not None:
            probs = np.asarray(self._callable(round_index, n), dtype=float)
        else:
            probs = self._static
            if probs.shape[0] != n:
                raise ConfigurationError(
                    f"probability vector has length {probs.shape[0]}, expected {n}"
                )
        if probs.shape != (n,):
            raise ConfigurationError("probability schedule produced wrong shape")
        # Validate the [0, 1) range explicitly (no clamping): a schedule
        # producing probs >= 1 is invalid regardless of mu, and must not be
        # reported as a mere mu-bound violation.
        if np.any(probs < 0) or np.any(probs >= 1):
            bad = float(probs[(probs < 0) | (probs >= 1)][0])
            raise ConfigurationError(
                f"probability schedule produced {bad} at round {round_index}; "
                "failure probabilities must lie in [0, 1)"
            )
        if np.any(probs > self.mu + 1e-12):
            raise ConfigurationError(
                "probability schedule exceeded its declared bound mu"
            )
        return probs

    def failure_mask(self, round_index: int, n: int, rng: RandomSource) -> np.ndarray:
        probs = self._probabilities(round_index, n)
        return rng.random(n) < probs

    def __repr__(self) -> str:
        return f"PerNodeFailures(mu={self.mu})"


#: Modes accepted by :class:`TopologyFailures`.
TOPOLOGY_FAILURE_MODES = ("degree", "inverse-degree")


class TopologyFailures(PerNodeFailures):
    """Position-correlated failures: probabilities derived from the graph.

    Bridges the failure and topology subsystems: each node's per-round
    failure probability is a function of its degree (its "position" in the
    graph), scaled so the most failure-prone node fails with probability
    ``mu``.

    Parameters
    ----------
    topology:
        A :class:`~repro.topology.graphs.Topology` (anything exposing a
        ``degrees`` array) or the degree array itself.
    mu:
        The maximum per-node failure probability (must be in ``[0, 1)``).
    mode:
        ``"degree"`` — hubs fail more (``p_v ∝ deg(v)``, the "attack the
        well-connected" scenario); ``"inverse-degree"`` — poorly connected
        nodes fail more (``p_v ∝ 1/deg(v)``, flaky edge devices).
    """

    def __init__(self, topology, mu: float = 0.2, mode: str = "degree") -> None:
        if mode not in TOPOLOGY_FAILURE_MODES:
            raise ConfigurationError(
                f"unknown topology-failure mode {mode!r}; choose from "
                f"{TOPOLOGY_FAILURE_MODES}"
            )
        if not 0.0 <= mu < 1.0:
            raise ConfigurationError(f"mu must be in [0, 1), got {mu}")
        degrees = np.asarray(getattr(topology, "degrees", topology), dtype=float)
        if degrees.ndim != 1 or degrees.size < 2:
            raise ConfigurationError("degrees must be a 1-d array of length >= 2")
        if np.any(degrees < 1):
            raise ConfigurationError(
                "topology failures need every node to have degree >= 1"
            )
        if mode == "degree":
            weights = degrees / degrees.max()
        else:
            weights = degrees.min() / degrees
        super().__init__(mu * weights, mu=mu)
        self.mode = mode

    def __repr__(self) -> str:
        return f"TopologyFailures(mu={self.mu}, mode={self.mode!r})"


def resolve_failure_model(model: Union[None, float, FailureModel]) -> FailureModel:
    """Accept ``None``, a float ``mu`` or a model instance and normalise."""
    if model is None:
        return NoFailures()
    if isinstance(model, FailureModel):
        return model
    if isinstance(model, (int, float)):
        if model == 0:
            return NoFailures()
        return UniformFailures(float(model))
    raise ConfigurationError(f"cannot interpret failure model: {model!r}")
