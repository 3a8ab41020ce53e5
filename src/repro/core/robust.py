"""Section 5 — failure-tolerant tournament algorithms (Theorem 1.4).

Under the failure model of Section 5 (node ``v`` fails in round ``i`` with
probability ``p_{v,i} <= mu``), the tournament algorithms are made robust by
pulling ``Theta(1/(1-mu) * log(1/(1-mu)))`` partners per iteration instead
of two or three.  A pull is *good* if the pulling node did not fail and the
contacted node was good at the end of the previous iteration; a node stays
good as long as it collects enough good pulls, and only good pulls feed the
tournament.  Lemma 5.2 shows a constant fraction of nodes stays good
throughout, so all concentration arguments carry over with ``n`` replaced by
the good-node count.

After the final vote, ``t`` extra spreading rounds let all but an expected
``n / 2^t`` nodes adopt an answer from a node that already has one.  Every
iteration, the vote and each spreading round is one pull window of
:class:`~repro.core.tournament.TournamentProtocol` on the env's engine.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Optional, Tuple, Union

import numpy as np

from repro.core.schedules import three_tournament_schedule, two_tournament_schedule
from repro.core.three_tournament import vote_size
from repro.core.tournament import PullWindow, WindowPulls, lane_rows, run_windows
from repro.exceptions import ConfigurationError
from repro.gossip.env import GossipEnv, resolve_env
from repro.gossip.metrics import NetworkMetrics
from repro.utils.inputs import integral, node_values
from repro.utils.rand import RandomSource


#: Largest failure rate the default pull count is sized for: 149 pulls per
#: window at 0.9, but 33 178 at the 0.999 of an all-dropping injector.
ROBUST_MAX_MU = 0.9


def default_pulls_per_iteration(mu: float) -> int:
    """The paper's Θ(1/(1-µ) · log(1/(1-µ))) pull count (Lemma 5.2), >= 4.

    Above ``mu`` = :data:`ROBUST_MAX_MU` it raises instead of sizing
    windows that pull tens of thousands of partners per node.
    """
    if not 0.0 <= mu <= ROBUST_MAX_MU:
        raise ConfigurationError(
            f"mu = {mu:g} is outside [0, {ROBUST_MAX_MU}]: no pull count "
            "when nearly every node sits out every round"
        )
    if mu == 0.0:
        return 4
    scale = 1.0 / (1.0 - mu)
    return max(4, int(math.ceil(4.0 * scale * math.log(4.0 * scale))) + 1)


def first_pulls(
    mask: np.ndarray, pulled: np.ndarray, count: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Which nodes (rows) have at least ``count`` pulls in ``mask``, and
    those nodes' first ``count`` such pulled values in pull order, one row
    per chosen node."""
    chosen = mask.sum(axis=1) >= count
    keep = mask & (np.cumsum(mask, axis=1) <= count) & chosen[:, None]
    return chosen, pulled[keep].reshape(-1, count)


@dataclass
class RobustQuantileResult:
    """Outcome of the robust ε-approximate φ-quantile computation."""

    phi: float
    eps: float
    n: int
    estimates: np.ndarray          # NaN for nodes that never learned an answer
    estimate: float
    rounds: int
    metrics: NetworkMetrics
    good_fraction: float
    answered_fraction: float
    pulls_per_iteration: int

    def summary(self) -> dict:
        return {
            "phi": self.phi,
            "eps": self.eps,
            "n": self.n,
            "rounds": self.rounds,
            "good_fraction": self.good_fraction,
            "answered_fraction": self.answered_fraction,
        }


def robust_approximate_quantile(
    values: Union[np.ndarray, list, tuple],
    phi: float,
    eps: float,
    rng: Union[None, int, RandomSource] = None,
    pulls_per_iteration: Optional[int] = None,
    final_samples: int = 15,
    extra_spread_rounds: int = 12,
    env: Optional[GossipEnv] = None,
) -> RobustQuantileResult:
    """Theorem 1.4: ε-approximate φ-quantile despite per-round node failures.

    Parameters
    ----------
    pulls_per_iteration:
        Number of partners pulled per tournament iteration; defaults to the
        paper's Θ(1/(1-µ) log 1/(1-µ)).
    extra_spread_rounds:
        The parameter ``t`` of Theorem 1.4: after the computation, ``t``
        extra rounds in which answer-less nodes pull answers, leaving all
        but ~``n/2^t`` nodes with a correct output.
    env:
        The :class:`~repro.gossip.env.GossipEnv` of the underlying network:
        its ``failure_model`` is the Section-5 model, its ``dtype`` the
        network's value dtype (the returned estimates stay float64), and
        its optional ``faults`` injector is layered on top — the Theorem-1.4
        machinery was designed for exactly this abuse: the default
        ``pulls_per_iteration`` and the final vote are sized from the
        *combined* suppression bound (the failure model's mu unioned with
        the injector's crash/drop bound), so good-pull counting stays
        honest under injected chaos.
        The analysis is for the complete graph, so a ``topology`` or
        ``topology_process`` is rejected.
    """
    env = resolve_env(env)
    env.reject("robust_approximate_quantile", "topology", "topology_process")
    if not 0.0 <= phi <= 1.0:
        raise ConfigurationError("phi must be in [0, 1]")
    if not 0.0 < eps < 0.5:
        raise ConfigurationError("eps must be in (0, 0.5)")
    # Size pulls and the vote for the union suppression rate: a pull can be
    # lost to the failure model OR to an injected crash/drop, independently.
    mu = env.mu_bound()
    if pulls_per_iteration is None:
        pulls_per_iteration = default_pulls_per_iteration(mu)
    k_pulls = integral(pulls_per_iteration, "pulls_per_iteration")
    if k_pulls < 3:
        raise ConfigurationError("pulls_per_iteration must be at least 3")
    final_samples = vote_size(final_samples)
    spread_rounds = integral(extra_spread_rounds, "extra_spread_rounds")
    if spread_rounds < 0:
        raise ConfigurationError("extra_spread_rounds must be non-negative")

    array = node_values(values, min_nodes=4)
    n = array.size
    source = rng if isinstance(rng, RandomSource) else RandomSource(rng)
    coins = source.child()
    # A node is good while it keeps collecting enough good pulls: pulls that
    # happened and reached a node that was good at the window's start.
    good = np.ones(n, dtype=bool)

    def first_good(pulls: WindowPulls, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """The good nodes with ``count`` good pulls, and those pulls' values."""
        goodmask = pulls.ok_block() & good[pulls.partner_block()] & good[:, None]
        return first_pulls(goodmask, pulls.block()[0], count)

    def two_step(iteration, pulls: WindowPulls) -> np.ndarray:
        nonlocal good
        rows = pulls.snapshot.copy()
        good, picked = first_good(pulls, 2)
        first = picked[:, 0]
        winners = winner(first, picked[:, 1])
        if iteration.delta < 1.0:
            winners = np.where(coins.random(first.size) < iteration.delta, winners, first)
        rows[0, good] = winners
        return rows

    def three_step(pulls: WindowPulls) -> np.ndarray:
        nonlocal good
        rows = pulls.snapshot.copy()
        good, picked = first_good(pulls, 3)
        rows[0, good] = np.sort(picked, axis=1, kind="stable")[:, 1]
        return rows

    def vote(pulls: WindowPulls) -> np.ndarray:
        voters, picked = first_good(pulls, final_samples)
        estimates = np.full((1, n), np.nan, dtype=pulls.snapshot.dtype)
        estimates[0, voters] = np.sort(picked, axis=1, kind="stable")[:, final_samples // 2]
        return estimates

    spreads = itertools.count()

    def spread(pulls: WindowPulls) -> np.ndarray:
        # The rows are answers now: a restart does not hand a node its
        # input back (``source``, not ``snapshot``), and a pull delayed to
        # before the vote finds no answer.
        answered_windows = next(spreads)
        estimates = pulls.source.copy()
        pulled = pulls.rows()[0]
        adopt = ~np.isfinite(estimates) & pulls.ok[0] & np.isfinite(pulled)
        adopt &= pulls.depth(0) <= answered_windows
        estimates[adopt] = pulled[adopt]
        return estimates

    schedule1 = two_tournament_schedule(phi, eps)
    winner = np.minimum if schedule1.direction == "min" else np.maximum
    schedule2 = three_tournament_schedule(eps / 4.0, n)
    vote_pulls = max(k_pulls, int(math.ceil(final_samples / max(1e-9, 1.0 - mu))) + 2)
    windows = [
        PullWindow(k_pulls, partial(two_step, iteration), label="robust-2-tournament")
        for iteration in schedule1.iterations
    ]
    windows += [
        PullWindow(k_pulls, three_step, label="robust-3-tournament")
    ] * schedule2.num_iterations
    windows.append(PullWindow(vote_pulls, vote, label="robust-vote"))
    # The "+t" of Theorem 1.4: answer-less nodes adopt a pulled answer,
    # until every node has one.
    windows += [
        PullWindow(1, spread, label="robust-spread",
                   run_if=lambda rows: not np.isfinite(rows).all())
    ] * spread_rounds

    metrics = NetworkMetrics(keep_history=False)
    rows = run_windows(lane_rows(array, env.dtype), windows, source, metrics, env)
    estimates = rows[0].astype(float)
    finite = estimates[np.isfinite(estimates)]
    estimate = float(np.median(finite)) if finite.size else float("nan")
    return RobustQuantileResult(
        phi=phi,
        eps=eps,
        n=n,
        estimates=estimates,
        estimate=estimate,
        rounds=metrics.rounds,
        metrics=metrics,
        good_fraction=float(np.mean(good)),
        answered_fraction=float(np.mean(np.isfinite(estimates))),
        pulls_per_iteration=k_pulls,
    )
