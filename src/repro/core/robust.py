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
``n / 2^t`` nodes adopt an answer from a node that already has one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.core.schedules import three_tournament_schedule, two_tournament_schedule
from repro.exceptions import ConfigurationError
from repro.gossip.env import GossipEnv, resolve_env
from repro.gossip.metrics import NetworkMetrics
from repro.gossip.network import GossipNetwork
from repro.utils.inputs import node_values
from repro.utils.rand import RandomSource


def default_pulls_per_iteration(mu: float) -> int:
    """The paper's Θ(1/(1-µ) · log(1/(1-µ))) pull count (Lemma 5.2), >= 4."""
    if not 0.0 <= mu < 1.0:
        raise ConfigurationError("mu must be in [0, 1)")
    if mu == 0.0:
        return 4
    scale = 1.0 / (1.0 - mu)
    return max(4, int(math.ceil(4.0 * scale * math.log(4.0 * scale))) + 1)


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
        machinery was designed for exactly this abuse:
        ``pulls_per_iteration`` sizing uses the *combined* suppression bound
        (the failure model's mu unioned with the injector's crash/drop
        bound) so good-pull counting stays honest under injected chaos.
        The analysis is for the complete graph, so a ``topology`` or
        ``topology_process`` is rejected.
    """
    env = resolve_env(env)
    env.reject("robust_approximate_quantile", "topology", "topology_process")
    if not 0.0 <= phi <= 1.0:
        raise ConfigurationError("phi must be in [0, 1]")
    if not 0.0 < eps < 0.5:
        raise ConfigurationError("eps must be in (0, 0.5)")
    model = env.failure_model
    if pulls_per_iteration is None:
        # Size pulls for the union suppression rate: a pull can be lost to
        # the failure model OR to an injected crash/drop, independently.
        mu = model.mu
        if env.faults is not None:
            mu = min(1.0 - (1.0 - mu) * (1.0 - env.faults.mu_bound()), 0.999)
        pulls_per_iteration = default_pulls_per_iteration(mu)
    if pulls_per_iteration < 3:
        raise ConfigurationError("pulls_per_iteration must be at least 3")
    if final_samples < 1 or final_samples % 2 == 0:
        raise ConfigurationError("final_samples must be a positive odd integer")

    array = node_values(values, min_nodes=4)
    n = array.size
    network = GossipNetwork(array, rng=rng, keep_history=False, env=env)
    good = np.ones(n, dtype=bool)
    k_pulls = int(pulls_per_iteration)

    def good_pull_mask(batch) -> np.ndarray:
        """Which pulls are good: the puller acted and the partner was good."""
        return batch.ok & good[batch.partners]

    def first_good(batch, goodmask, count: int):
        """Indices (per node) of the first ``count`` good pulls, or None."""
        chosen = np.full((n, count), -1, dtype=int)
        enough = np.zeros(n, dtype=bool)
        for node in range(n):
            cols = np.nonzero(goodmask[node])[0]
            if cols.size >= count:
                chosen[node] = cols[:count]
                enough[node] = True
        return chosen, enough

    # ---- Phase I: robust 2-TOURNAMENT -----------------------------------------
    schedule1 = two_tournament_schedule(phi, eps)
    take_min = schedule1.direction == "min"
    for iteration in schedule1.iterations:
        current = network.snapshot()
        batch = network.pull(k_pulls, label="robust-2-tournament")
        goodmask = good_pull_mask(batch)
        chosen, enough = first_good(batch, goodmask, 2)
        new_good = good & enough
        new_values = current.copy()
        idx = np.nonzero(new_good)[0]
        if idx.size:
            first = batch.values[idx, chosen[idx, 0]]
            second = batch.values[idx, chosen[idx, 1]]
            winners = np.minimum(first, second) if take_min else np.maximum(first, second)
            if iteration.delta >= 1.0:
                new_values[idx] = winners
            else:
                coin = network.rng.random(idx.size)
                new_values[idx] = np.where(coin < iteration.delta, winners, first)
        good = new_good
        network.set_values(new_values)

    # ---- Phase II: robust 3-TOURNAMENT ----------------------------------------
    schedule2 = three_tournament_schedule(eps / 4.0, n)
    for _iteration in schedule2.iterations:
        current = network.snapshot()
        batch = network.pull(k_pulls, label="robust-3-tournament")
        goodmask = good_pull_mask(batch)
        chosen, enough = first_good(batch, goodmask, 3)
        new_good = good & enough
        new_values = current.copy()
        idx = np.nonzero(new_good)[0]
        if idx.size:
            picked = np.stack(
                [batch.values[idx, chosen[idx, j]] for j in range(3)], axis=1
            )
            new_values[idx] = np.sort(picked, axis=1, kind="stable")[:, 1]
        good = new_good
        network.set_values(new_values)

    # ---- Final vote ------------------------------------------------------------
    vote_pulls = max(k_pulls, int(math.ceil(final_samples / max(1e-9, 1.0 - model.mu))) + 2)
    current = network.snapshot()
    batch = network.pull(vote_pulls, label="robust-vote")
    goodmask = good_pull_mask(batch)
    chosen, enough = first_good(batch, goodmask, final_samples)
    estimates = np.full(n, np.nan)
    idx = np.nonzero(good & enough)[0]
    if idx.size:
        picked = np.stack(
            [batch.values[idx, chosen[idx, j]] for j in range(final_samples)], axis=1
        )
        estimates[idx] = np.sort(picked, axis=1, kind="stable")[:, final_samples // 2]

    # ---- Extra spreading rounds (the "+t" of Theorem 1.4) ----------------------
    for _ in range(int(extra_spread_rounds)):
        have = np.isfinite(estimates)
        if np.all(have):
            break
        batch = network.pull(1, label="robust-spread", values=estimates)
        pulled = batch.values[:, 0]
        adopt = (~have) & batch.ok[:, 0] & np.isfinite(pulled)
        estimates[adopt] = pulled[adopt]

    finite = estimates[np.isfinite(estimates)]
    estimate = float(np.median(finite)) if finite.size else float("nan")
    return RobustQuantileResult(
        phi=phi,
        eps=eps,
        n=n,
        estimates=estimates,
        estimate=estimate,
        rounds=network.metrics.rounds,
        metrics=network.metrics,
        good_fraction=float(np.mean(good)),
        answered_fraction=float(np.mean(np.isfinite(estimates))),
        pulls_per_iteration=k_pulls,
    )
