"""Corollary 1.5 — every node estimates its own quantile (rank) up to ±ε.

Running the ε-approximate quantile algorithm for the grid of targets
``phi = eps, 2 eps, 3 eps, ...`` lets every node bracket its own value
between two returned grid quantiles and hence estimate its own rank up to
an additive O(ε), in ``(1/eps) * O(log log n + log 1/eps)`` rounds overall.

One-pass execution
------------------
The grid is embarrassingly fusable: all ``L = ceil(1/eps) - 1`` targets are
queries over the *same* value multiset, so they column-stack into one
multi-lane tournament run (:mod:`repro.core.tournament`) whose lanes run
their per-target ``(phi, eps)`` schedules on one shared partner stream —
exactly the machinery the exact-quantile driver uses for its ε/2 sandwich
pair, applied to the whole grid.  A fused run executes max-of-lanes rounds
instead of the sequential sum, collapsing the corollary's ``1/eps`` factor
out of the round count (each message now carries the lanes' working
values, which the payload-bit accounting charges honestly).  Lanes are
chunked (``max_lanes``) so each window's ``(k, L, n)`` pulled rows stay
memory-bounded at large ``n``; the default keeps a 3-pull window under
~0.75 KiB per node in float64.

``max_lanes=1`` is the single-lane reference: one tournament per grid
target, each on its own child stream, landing bit-for-bit on the
pre-fusion sequential run (sha256-pinned in
``tests/test_engine_equivalence.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.approx_quantile import run_approximation
from repro.exceptions import ConfigurationError
from repro.gossip.env import GossipEnv
from repro.gossip.metrics import NetworkMetrics
from repro.obs.tracer import get_tracer
from repro.utils.inputs import node_values
from repro.utils.rand import RandomSource

#: Default lane-chunk width of the fused path.  A 3-pull tournament window
#: gathers ``(3, L, n)`` values; at L = 32 lanes of float64 that is 768
#: bytes per node per window — a full 10⁶-node grid pass stays under ~1 GiB
#: of transient gather blocks instead of the unchunked grid's L ≈ 1/eps
#: lanes blowing up memory at fine eps.
DEFAULT_MAX_LANES = 32


@dataclass
class AllRanksResult:
    """Per-node self-rank estimates.

    Attributes
    ----------
    quantile_estimates:
        ``(n,)`` array: each node's estimate of its own quantile in [0, 1].
    grid:
        The grid of target quantiles that was queried.
    grid_values:
        Per-node value estimates for each grid point, shape ``(len(grid), n)``.
    rounds:
        Gossip rounds executed by this computation: the sum over lane
        chunks of each chunk's max-of-lanes rounds.
    round_windows:
        One ``[start, stop)`` round window per tournament run (lane chunk)
        in the indices of ``metrics`` (absolute, so attribution survives a
        caller-supplied metrics object that already carries rounds).
    chunks:
        Number of tournament runs executed (``len(round_windows)``).
    """

    quantile_estimates: np.ndarray
    grid: np.ndarray
    grid_values: np.ndarray
    rounds: int
    metrics: NetworkMetrics
    eps: float
    round_windows: List[Tuple[int, int]] = field(default_factory=list)
    chunks: int = 0

    @property
    def n(self) -> int:
        return self.quantile_estimates.size


def rank_grid(eps: float) -> np.ndarray:
    """The Corollary-1.5 target grid ``eps, 2 eps, ...`` (strictly below 1)."""
    grid_points = int(math.ceil(1.0 / eps)) - 1
    grid = np.array([(j + 1) * eps for j in range(grid_points)], dtype=float)
    return grid[grid < 1.0]


def _self_rank_from_grid(
    array: np.ndarray, grid_values: np.ndarray, eps: float
) -> np.ndarray:
    """Midpoint-of-bracket rank estimates from per-node grid estimates.

    Each node counts how many of *its own* grid estimates lie below its
    value; the midpoint of the implied bracket is its rank estimate.
    """
    below = np.zeros(array.size, dtype=float)
    for row in range(grid_values.shape[0]):
        below += (grid_values[row] < array).astype(float)
    return np.clip((below + 0.5) * eps, 0.0, 1.0)


def estimate_all_ranks(
    values: Union[np.ndarray, list, tuple],
    eps: float,
    rng: Union[None, int, RandomSource] = None,
    query_accuracy: Optional[float] = None,
    final_samples: int = 15,
    max_lanes: int = DEFAULT_MAX_LANES,
    keep_history: bool = False,
    metrics: Optional[NetworkMetrics] = None,
    env: Optional[GossipEnv] = None,
) -> AllRanksResult:
    """Let every node estimate the quantile of its own value up to ~±1.5 eps.

    Parameters
    ----------
    values:
        One value per node.
    eps:
        Grid spacing: ``ceil(1/eps) - 1`` grid targets are queried.  The
        combined self-rank error is at most ``eps + query_accuracy`` (plus
        the w.h.p. failure probability).
    query_accuracy:
        Accuracy of each individual grid query; defaults to ``eps / 2``.
    max_lanes:
        Lane-chunk width (see :data:`DEFAULT_MAX_LANES`): the grid runs as
        ``ceil(grid / max_lanes)`` multi-lane tournaments, each executing
        max-of-lanes rounds.  ``max_lanes=1`` is the single-lane reference
        — one tournament per grid target — whose seeded streams are pinned
        in the equivalence suite.
    keep_history / metrics:
        ``keep_history=True`` keeps per-round records on the internal
        metrics object; alternatively pass an existing ``metrics`` to
        accumulate into (its ``keep_history`` wins).  ``rounds`` and
        ``round_windows`` report only this computation's rounds either way.
    env:
        The :class:`~repro.gossip.env.GossipEnv` every chunk runs in, on
        its engine (the complete graph when omitted — the paper's model).
        Every chunk meets the env's ``faults`` and ``topology_process`` on
        the round count of ``metrics``, so the chunks share one round clock
        and a seeded chaos pass replays bit-for-bit.
    """
    if not 0.0 < eps < 0.5:
        raise ConfigurationError("eps must be in (0, 0.5)")
    array = node_values(values, min_nodes=4)
    if query_accuracy is None:
        query_accuracy = eps / 2.0
    if not 0.0 < query_accuracy < 0.5:
        raise ConfigurationError("query_accuracy must be in (0, 0.5)")
    if max_lanes < 1:
        raise ConfigurationError("max_lanes must be at least 1")
    n = array.size

    source = rng if isinstance(rng, RandomSource) else RandomSource(rng)
    if metrics is None:
        metrics = NetworkMetrics(keep_history=keep_history)
    rounds_before = metrics.rounds
    grid = rank_grid(eps)

    with get_tracer().span("all_ranks", metrics) as span:
        span.annotate(n=n, eps=eps, grid=int(grid.size), max_lanes=max_lanes)
        grid_values, windows = estimate_grid_subset(
            array, grid, query_accuracy, final_samples, source, metrics,
            max_lanes, env,
        )

    quantile_estimates = _self_rank_from_grid(array, grid_values, eps)
    return AllRanksResult(
        quantile_estimates=quantile_estimates,
        grid=grid,
        grid_values=grid_values,
        rounds=metrics.rounds - rounds_before,
        metrics=metrics,
        eps=eps,
        round_windows=windows,
        chunks=len(windows),
    )


def estimate_grid_subset(
    array: np.ndarray,
    targets: Union[np.ndarray, Sequence[float]],
    query_accuracy: float,
    final_samples: int,
    source: RandomSource,
    metrics: NetworkMetrics,
    max_lanes: int,
    env: Optional[GossipEnv] = None,
) -> Tuple[np.ndarray, List[Tuple[int, int]]]:
    """Chunked multi-lane execution: one tournament per ``max_lanes`` targets.

    The fused engine behind :func:`estimate_all_ranks`, exposed so callers
    that already know *which* grid targets need (re)estimating — notably
    the :class:`~repro.core.service.QuantileService` incremental epoch
    rebuild, which re-runs only the lanes whose brackets drifted — can run
    exactly those lanes without paying for the full grid.  ``targets`` may
    be any subset of the grid (or arbitrary quantiles); one ``(len(targets),
    n)`` estimate matrix plus the per-chunk round windows come back.

    Each chunk draws a fresh ``source.child()`` stream and runs under a
    ``grid_chunk`` tracer span — the same layout as the full pass, so a
    subset run over the full grid is bit-identical to
    :func:`estimate_all_ranks` under the same seed.  Every chunk's network
    runs in ``env``.
    """
    targets = np.asarray(targets, dtype=float)
    n = array.size
    per_grid: List[np.ndarray] = []
    windows: List[Tuple[int, int]] = []
    tracer = get_tracer()
    for start in range(0, targets.size, max_lanes):
        chunk = targets[start:start + max_lanes]
        lanes = chunk.size
        # Every lane starts from the same value multiset.
        stacked = np.broadcast_to(array[:, None], (n, lanes))
        window_start = metrics.rounds
        with tracer.span("grid_chunk", metrics) as span:
            span.annotate(start=start, lanes=lanes)
            result = run_approximation(
                stacked, [float(phi) for phi in chunk], query_accuracy,
                final_samples, source.child(), metrics=metrics, env=env,
            )
        windows.append((window_start, metrics.rounds))
        per_grid.append(np.asarray(result.estimates).T)  # (lanes, n)
    grid_values = (
        np.vstack(per_grid) if per_grid else np.empty((0, n), dtype=float)
    )
    return grid_values, windows


def true_self_quantiles(values: Union[np.ndarray, list, tuple]) -> np.ndarray:
    """The exact quantile of every node's own value (for error measurement).

    Ties get the *average* (mid) rank of their group: gossip hands equal
    values equal grid estimates, so giving duplicates distinct index-ordered
    ranks (the pre-PR-6 behaviour) charged the estimator up to
    ``(multiplicity - 1) / n`` of phantom error on duplicate-heavy
    workloads — half the heaviest Zipf bucket, regardless of eps.
    """
    array = np.asarray(values, dtype=float)
    if array.ndim != 1 or array.size == 0:
        raise ConfigurationError("values must be a non-empty 1-d array")
    n = array.size
    order = np.argsort(array, kind="stable")
    ordered = array[order]
    is_group_start = np.empty(n, dtype=bool)
    is_group_start[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=is_group_start[1:])
    group_start = np.flatnonzero(is_group_start)
    group_stop = np.append(group_start[1:], n)
    # ranks within a tie group spanning sorted positions [start, stop) are
    # start+1 .. stop; their average is (start + 1 + stop) / 2.
    midranks = (group_start + 1 + group_stop) / 2.0
    ranks = np.empty(n, dtype=float)
    ranks[order] = np.repeat(midranks, group_stop - group_start)
    return ranks / n
