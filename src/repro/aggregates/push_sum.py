"""Push-sum gossip aggregation (Kempe, Dobra, Gehrke, FOCS 2003).

Every node ``v`` maintains a pair ``(s_v, w_v)``; initially ``s_v = x_v``
and ``w_v = 1``.  In every round every node splits its pair in half, keeps
one half and pushes the other half to a uniformly random node.  The ratio
``s_v / w_v`` converges to the global average exponentially fast: after
``O(log n + log 1/eps)`` rounds every node's estimate is within a relative
``eps`` of the true average with high probability.

The paper uses this primitive (Step 5 of Algorithm 3) to count the number
of nodes whose value is below a threshold; counts are integers, so running
push-sum until the relative error is below ``1/(2n)`` and rounding yields
the exact count w.h.p. in ``O(log n)`` rounds
(:func:`repro.aggregates.counting.count_rounds` is that budget, calibrated
on a failure-rate table).

Each node's pair is stored as one complex element (``s`` real, ``w``
imaginary), so a vectorized round is one halving, one copy and one
``np.add.at`` scatter of the packed array.  The pair follows the input's
dtype: float32 values pack into complex64 (half the bytes per round; the
counting indicators of :func:`repro.aggregates.counting.count_leq` up to
:data:`~repro.aggregates.counting.COUNT_FLOAT32_MAX_N` nodes), anything
else into complex128.  Estimates are divided in float64 either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.gossip.engine import EngineResult, run_protocol
from repro.gossip.env import GossipEnv
from repro.gossip.messages import BITS_HEADER, BITS_PER_VALUE, BITS_PER_WEIGHT, id_bits
from repro.gossip.metrics import NetworkMetrics
from repro.gossip.protocol import Action, BatchAction, BatchGossipProtocol, GossipProtocol
from repro.utils.rand import RandomSource
from repro.utils.views import ReadOnlyArray


def default_push_sum_rounds(n: int, relative_error: float = 1e-4) -> int:
    """A round budget after which push-sum is within ``relative_error`` w.h.p.

    The classic analysis shows the potential drops by a constant factor per
    round; ``ceil(c1 * log2 n + c2 * log2(1/relative_error) + c3)`` rounds
    with small constants is a comfortable budget for the network sizes this
    library simulates (the tests verify the resulting accuracy directly).
    """
    if n < 2:
        raise ConfigurationError("n must be at least 2")
    if not 0 < relative_error < 1:
        raise ConfigurationError("relative_error must be in (0, 1)")
    return int(math.ceil(2.5 * math.log2(n) + 1.5 * math.log2(1.0 / relative_error) + 10))


class PushSumProtocol(BatchGossipProtocol, GossipProtocol):
    """The push-sum protocol as a :class:`GossipProtocol`.

    Parameters
    ----------
    values:
        Per-node inputs ``x_v``.  NaN is rejected (it would poison every
        estimate it reaches); ±inf are legal.  float32 values gossip as
        float32 ``(s, w)`` pairs; any other input is cast to float64.
    weights:
        Per-node initial weights, cast to the values' dtype.  ``None``
        means all ones (the estimate converges to the average).  For a
        *sum*, give weight 1 to a single node and 0 to all others.  NaN is
        rejected.
    rounds:
        Number of rounds to run (a hard budget when ``tolerance`` is set).
    tolerance:
        Optional early-stopping criterion: terminate once the relative
        spread of the per-node estimates ``s/w`` — ``(max - min) / |mean|``
        — drops below this value.  ``None`` (the default) keeps the
        historical fixed-round behaviour.  Topology experiments use this to
        *measure* convergence rounds rather than assume them.
    """

    name = "push-sum"

    def __init__(
        self,
        values: Union[Sequence[float], np.ndarray],
        weights: Union[None, Sequence[float], np.ndarray] = None,
        rounds: Optional[int] = None,
        tolerance: Optional[float] = None,
    ) -> None:
        array = np.asarray(values)
        if array.dtype != np.float32:
            array = np.asarray(array, dtype=float)
        if array.ndim != 1 or array.size < 2:
            raise ConfigurationError("values must be a 1-d array of length >= 2")
        if np.isnan(array).any():
            raise ConfigurationError("values must not contain NaN")
        super().__init__(array.size)
        # the packed (s, w) pairs; ``_s`` / ``_w`` are their real / imaginary
        # views
        self._sw = np.empty(self.n, dtype=np.result_type(array.dtype, 1j))
        self._s = self._sw.real
        self._w = self._sw.imag
        self._s[:] = array
        if weights is None:
            self._w[:] = 1.0
        else:
            w = np.asarray(weights, dtype=array.dtype)
            if w.shape != (self.n,):
                raise ConfigurationError("weights must match values in length")
            if np.isnan(w).any():
                raise ConfigurationError("weights must not contain NaN")
            if np.any(w < 0) or w.sum() <= 0:
                raise ConfigurationError("weights must be non-negative with positive sum")
            self._w[:] = w
        self._rounds = rounds if rounds is not None else default_push_sum_rounds(self.n)
        if self._rounds <= 0:
            raise ConfigurationError("rounds must be positive")
        if tolerance is not None and tolerance <= 0:
            raise ConfigurationError("tolerance must be positive")
        self._tolerance = tolerance
        self._scratch: Optional[np.ndarray] = None

    # -- protocol interface -----------------------------------------------------
    def act(self, node: int, round_index: int) -> Action:
        s_half = self._s[node] / 2.0
        w_half = self._w[node] / 2.0
        # The node keeps one half; the other half is shipped.  The kept half
        # is applied here because act() is only invoked for nodes that did
        # not fail this round.
        self._s[node] = s_half
        self._w[node] = w_half
        return Action.push((s_half, w_half))

    def on_receive(self, node, payload, sender, kind, round_index) -> None:
        s_half, w_half = payload
        self._s[node] += s_half
        self._w[node] += w_half

    # -- batch (vectorized-engine) interface --------------------------------------
    def act_batch(self, round_index: int, alive: ReadOnlyArray) -> BatchAction:
        # Halve through the real view: two real multiplies per pair.  A
        # complex ``*= 0.5`` would compute ``s * 0 + w / 2`` for the weight,
        # turning it NaN under an infinite ``s`` and dropping the sign of a
        # -0.0 weight.
        if alive.all():
            # Failure-free fast path: in-place whole-array halving instead
            # of the boolean gathers/scatters (same values — the payload is
            # a private per-protocol scratch buffer, reused across rounds
            # to spare one large allocation per round, that later scatters
            # cannot alias).
            if self._scratch is None:
                self._scratch = np.empty_like(self._sw)
            halves = self._sw.view(self._s.dtype)
            halves *= 0.5
            np.copyto(self._scratch, self._sw)
            half = self._scratch
        else:
            half = self._sw[alive]
            halves = half.view(self._s.dtype)
            halves *= 0.5
            self._sw[alive] = half
        return BatchAction("push", payload=half, push_bits=self.message_bits(None))

    def receive_batch(self, round_index, alive: ReadOnlyArray, partners, action) -> None:
        half = action.payload
        # an all-alive payload pairs with the full partner array; slicing
        # would only copy it
        targets = partners if half.size == self.n else partners[alive]
        # ufunc.at accumulates in index order, so repeated targets sum
        # bit-identically to the per-node asyncio engine's deliveries; a
        # complex add is the two real adds of s and w.
        np.add.at(self._sw, targets, half)

    def is_done(self, round_index: int) -> bool:
        if round_index >= self._rounds:
            return True
        if self._tolerance is None or round_index == 0:
            return False
        return self.relative_spread() <= self._tolerance

    def relative_spread(self) -> float:
        """Relative spread of the current estimates: ``(max - min) / |mean|``."""
        estimates = self.outputs_array()
        spread = float(estimates.max() - estimates.min())
        scale = abs(float(estimates.mean()))
        return spread / max(scale, 1e-300)

    def outputs_array(self) -> np.ndarray:
        # Divide in float64 whatever the pair's dtype: in float32 the
        # 1e-300 floor underflows to 0, and a float32 quotient would add
        # its own rounding to every estimate.
        s = np.asarray(self._s, dtype=np.float64)
        w = np.asarray(self._w, dtype=np.float64)
        return np.where(w > 0, s / np.maximum(w, 1e-300), 0.0)

    def outputs(self) -> List[float]:
        return [float(e) for e in self.outputs_array()]

    def message_bits(self, payload) -> int:
        return BITS_HEADER + BITS_PER_VALUE + BITS_PER_WEIGHT + id_bits(self.n)

    # -- invariants ---------------------------------------------------------------
    @property
    def total_mass(self) -> float:
        """Invariant: the total ``s`` mass is conserved by every round."""
        return float(self._s.sum(dtype=np.float64))

    @property
    def total_weight(self) -> float:
        """Invariant: the total ``w`` mass is conserved by every round."""
        return float(self._w.sum(dtype=np.float64))


@dataclass
class PushSumResult:
    """Outcome of a push-sum run: per-node estimates plus accounting."""

    estimates: np.ndarray
    rounds: int
    metrics: NetworkMetrics

    @property
    def mean_estimate(self) -> float:
        return float(np.mean(self.estimates))

    @property
    def max_relative_spread(self) -> float:
        """Largest relative deviation of any node's estimate from the mean."""
        mean = self.mean_estimate
        if mean == 0:
            return float(np.max(np.abs(self.estimates)))
        return float(np.max(np.abs(self.estimates - mean)) / abs(mean))


def push_sum_average(
    values: Union[Sequence[float], np.ndarray],
    rng: Union[None, int, RandomSource] = None,
    rounds: Optional[int] = None,
    metrics: Optional[NetworkMetrics] = None,
    tolerance: Optional[float] = None,
    env: Optional[GossipEnv] = None,
) -> PushSumResult:
    """Estimate the average of ``values`` at every node via push-sum."""
    protocol = PushSumProtocol(values, rounds=rounds, tolerance=tolerance)
    result: EngineResult = run_protocol(
        protocol,
        rng=rng,
        max_rounds=protocol._rounds + 1,
        metrics=metrics,
        env=env,
    )
    return PushSumResult(
        estimates=result.outputs_array,
        rounds=result.rounds,
        metrics=result.metrics,
    )


def push_sum_sum(
    values: Union[Sequence[float], np.ndarray],
    rng: Union[None, int, RandomSource] = None,
    rounds: Optional[int] = None,
    metrics: Optional[NetworkMetrics] = None,
    env: Optional[GossipEnv] = None,
) -> PushSumResult:
    """Estimate the *sum* of ``values`` at every node.

    Uses the standard trick of giving initial weight 1 to node 0 only, so
    ``s/w`` converges to the sum rather than the average.
    """
    array = np.asarray(values, dtype=float)
    weights = np.zeros(array.size, dtype=float)
    weights[0] = 1.0
    protocol = PushSumProtocol(array, weights=weights, rounds=rounds)
    result = run_protocol(
        protocol,
        rng=rng,
        max_rounds=protocol._rounds + 1,
        metrics=metrics,
        env=env,
    )
    return PushSumResult(
        estimates=result.outputs_array,
        rounds=result.rounds,
        metrics=result.metrics,
    )
