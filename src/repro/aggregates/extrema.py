"""Extrema (min/max) spreading by pull rumor spreading.

Step 4 of Algorithm 3 requires every node to learn the global minimum and
maximum of a set of values.  In every round each node pulls one uniformly
random partner and keeps the smaller (or larger) of its own and the pulled
value, so the informed set about doubles per round until half the nodes
hold the extreme and then the uninformed share squares: from one holder
the extreme reaches every node in ``log₂ n + O(log log n)`` rounds w.h.p.
(Karp, Schindelhauer, Shenker and Vöcking, FOCS 2000), and under the
Section-5 failure model with a constant-factor slowdown [ES09].

Each round is a one-round :class:`~repro.core.tournament.PullWindow` of
:class:`~repro.core.tournament.TournamentProtocol`, the substrate every
tournament runs on, so a spread meets delays, corruption, duplication and
restarts exactly as a tournament window does, on either engine.  The run
lasts :func:`spread_rounds` rounds, a budget every node knows; whether it
reached every node is reported, for verifiers only, as ``converged``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.tournament import (
    PullWindow,
    TournamentProtocol,
    WindowPulls,
    lane_rows,
    run_windows,
)
from repro.exceptions import ConfigurationError
from repro.gossip.env import GossipEnv, resolve_env
from repro.gossip.metrics import NetworkMetrics
from repro.utils.inputs import integral
from repro.utils.rand import RandomSource

#: Rounds per log₂ n of :func:`spread_rounds`.
SPREAD_ROUNDS_SLOPE = 1.0
#: Rounds added to the slope term of :func:`spread_rounds`.
SPREAD_ROUNDS_OFFSET = 16.5
#: Exponent ``c`` of :func:`spread_rounds`' failure stretch ``(1 - mu)**-c``.
SPREAD_ROUNDS_MU_EXPONENT = 1.25
#: Largest μ :func:`spread_rounds` budgets for, as for counting.
SPREAD_MAX_MU = 0.9


def spread_rounds(n: int, mu: float = 0.0) -> int:
    """Pull rounds after which an extreme held by one node has reached all
    ``n`` nodes w.h.p.

    ``ceil((a log₂ n + b) / (1 - mu)**c)`` with ``a`` =
    :data:`SPREAD_ROUNDS_SLOPE`, ``b`` = :data:`SPREAD_ROUNDS_OFFSET` and
    ``c`` = :data:`SPREAD_ROUNDS_MU_EXPONENT`: 22 rounds at n = 32, 27 at
    10³, 30 at 10⁴ and 37 at 10⁶ without failures.  Pull spreading from one
    holder informs every node in ``log₂ n + O(log log n)`` rounds w.h.p.
    (Karp et al., FOCS 2000).  The constants are read off the failure-rate
    table ``benchmarks/BENCH_spread_budget.json``
    (``benchmarks/bench_spread_budget.py``), which records the first round
    at which both lanes of a min/max spread, each from one holder, have
    reached every node: its μ = 0 median is about 1.1 log₂ n + 2.6, and
    ``b`` keeps every cell's budget at least two rounds above the slowest
    of its seeds (≥ 1000 seeds per cell up to n = 10⁴, 100 at 10⁵ and
    12–20 at 10⁶), with zero misses at the budget.  The tail is heavy: one
    of the 100 seeds at n = 10⁵ took 31 rounds against a 99th percentile
    of 26, and it sets ``b``.  A node that sits out a round with
    probability ``mu`` (the env's
    :meth:`~repro.gossip.env.GossipEnv.mu_bound`) pulls nothing in it.  In
    the table's μ = 0.15, 0.3 and 0.5 cells that stretches the median by
    1.21–1.32×, 1.56× and 2.21–2.32×, about ``(1 - mu)**-1.24``, so the
    budget stretches by ``(1 - mu)**-1.25``.  Above ``mu`` =
    :data:`SPREAD_MAX_MU` it raises instead.

    The table is for uniform gossip on the complete graph, where the exact
    driver's Step 4 runs.
    """
    if n < 2:
        raise ConfigurationError("n must be at least 2")
    if not 0.0 <= mu <= SPREAD_MAX_MU:
        raise ConfigurationError(
            f"mu = {mu:g} is outside [0, {SPREAD_MAX_MU}]: no spreading "
            "budget when nearly every node sits out every round"
        )
    return int(math.ceil(
        (SPREAD_ROUNDS_SLOPE * math.log2(n) + SPREAD_ROUNDS_OFFSET)
        / (1.0 - mu) ** SPREAD_ROUNDS_MU_EXPONENT
    ))


def _keep_smaller(pulls: WindowPulls) -> np.ndarray:
    """One round: each node keeps the smaller of its own and its pulled
    values, lane by lane (a pull that did not happen read its own).

    The new rows take the pull buffer's layout (node-major up to
    :data:`~repro.core.tournament.STREAM_MAX_LANES` lanes), so the next
    round gathers from them without a copy.
    """
    pulled = pulls.rows()[0]
    return np.minimum(pulls.snapshot, pulled, out=np.empty_like(pulled))


def _lanes(values, mode) -> Tuple[np.ndarray, np.ndarray]:
    """The validated input as ``(L, n)`` rows with every max lane negated,
    so every lane keeps the smaller value, and the ``(L, 1)`` lane signs."""
    array = np.asarray(values)
    if array.dtype != np.float32:
        array = np.asarray(array, dtype=float)
    if np.isnan(array).any():
        raise ConfigurationError("values must not contain NaN")
    rows = lane_rows(array, array.dtype)
    modes = (mode,) * len(rows) if isinstance(mode, str) else tuple(mode)
    if len(modes) != len(rows):
        raise ConfigurationError(f"got {len(modes)} modes for {len(rows)} value lanes")
    if any(lane_mode not in ("min", "max") for lane_mode in modes):
        raise ConfigurationError("mode must be 'min' or 'max'")
    signs = np.array([[-1 if lane_mode == "max" else 1] for lane_mode in modes],
                     dtype=rows.dtype)
    rows *= signs
    return rows, signs


def _plan(mode: Union[str, Sequence[str]], rounds: int) -> List[PullWindow]:
    """``rounds`` one-round windows, labelled ``extrema-<modes>``."""
    modes = (mode,) if isinstance(mode, str) else tuple(mode)
    return [PullWindow(1, _keep_smaller, label="extrema-" + "-".join(modes))] * rounds


def _budget(n: int, rounds: Optional[int], env: GossipEnv) -> int:
    if rounds is None:
        return spread_rounds(n, env.mu_bound())
    rounds = integral(rounds, "rounds")
    if rounds < 1:
        raise ConfigurationError("rounds must be positive")
    return rounds


def spread_protocol(
    values: Union[Sequence[float], np.ndarray],
    mode: Union[str, Sequence[str]] = "max",
    rounds: Optional[int] = None,
    env: Optional[GossipEnv] = None,
) -> TournamentProtocol:
    """:func:`spread_extrema`'s protocol, to run on any engine (the live
    ``net --protocol extrema``); its rows hold the max lanes negated."""
    rows, _ = _lanes(values, mode)
    env = resolve_env(env)
    return TournamentProtocol(rows, _plan(mode, _budget(rows.shape[1], rounds, env)),
                              env.faults)


@dataclass
class ExtremaResult:
    """Per-node extremum estimates plus accounting.  ``converged`` (every
    node holds its lanes' global extreme) is for verifiers: the run lasts
    its budget whatever it says."""

    values: np.ndarray
    rounds: int
    metrics: NetworkMetrics
    converged: bool

    @property
    def agreed_value(self) -> float:
        """The single agreed value of a 1-d run (only meaningful when
        ``converged``)."""
        return float(self.values[0])


def spread_extrema(
    values: Union[Sequence[float], np.ndarray],
    mode: Union[str, Sequence[str]] = "max",
    rng: Union[None, int, RandomSource] = None,
    rounds: Optional[int] = None,
    metrics: Optional[NetworkMetrics] = None,
    env: Optional[GossipEnv] = None,
) -> ExtremaResult:
    """Spread the global min or max of ``values`` to every node.

    An ``(n, L)`` matrix spreads ``L`` lanes in one run (one message
    carries a value per lane), each lane's extreme chosen by its entry of
    ``mode``; ``values`` is then ``(n, L)`` too.  ``rounds`` defaults to
    :func:`spread_rounds` at the env's
    :meth:`~repro.gossip.env.GossipEnv.mu_bound`.  NaN has no order and is
    rejected; ±inf are ordinary extremes.  float32 values (the exact
    driver's rank keys) spread as float32; any other input is cast to
    float64.
    """
    rows, signs = _lanes(values, mode)
    env = resolve_env(env)
    rounds = _budget(rows.shape[1], rounds, env)
    metrics = metrics if metrics is not None else NetworkMetrics()
    signed = run_windows(rows, _plan(mode, rounds), rng, metrics, env)
    spread = np.ascontiguousarray((signed * signs).T)
    return ExtremaResult(
        values=spread[:, 0].copy() if np.ndim(values) == 1 else spread,
        rounds=rounds,
        metrics=metrics,
        converged=bool(np.all(signed == rows.min(axis=1, keepdims=True))),
    )
