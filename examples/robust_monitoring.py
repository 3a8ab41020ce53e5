#!/usr/bin/env python
"""Quantile computation while a third of the nodes keep failing.

Theorem 1.4: the tournament algorithms tolerate every node failing with a
constant probability per round, at the price of a constant-factor slowdown
and a vanishing fraction of nodes that may end up without an answer.  This
example runs the robust median computation with failure probabilities 0.2
and 0.5 and reports accuracy, round overhead and answer coverage.

Run with::

    python examples/robust_monitoring.py
"""

from __future__ import annotations

import numpy as np

from repro import approximate_quantile, robust_approximate_quantile
from repro.datasets import gaussian_values
from repro.gossip import GossipEnv
from repro.utils.stats import rank_error


def main() -> None:
    n = 2048
    phi, eps = 0.5, 0.1
    values = gaussian_values(n, mean=100.0, std=15.0, rng=31)

    baseline = approximate_quantile(values, phi=phi, eps=eps, rng=2)
    print(
        f"failure-free run     : estimate {baseline.estimate:.2f}, "
        f"{baseline.rounds} rounds"
    )

    for mu in (0.2, 0.5):
        robust = robust_approximate_quantile(
            values, phi=phi, eps=eps, rng=2, env=GossipEnv(failure_model=mu)
        )
        err = rank_error(values, robust.estimate, phi)
        print(
            f"mu = {mu:.1f} failures    : estimate {robust.estimate:.2f} "
            f"(rank error {err:.4f}), {robust.rounds} rounds "
            f"({robust.rounds / baseline.rounds:.1f}x slowdown), "
            f"{robust.good_fraction:.0%} nodes stayed good, "
            f"{robust.answered_fraction:.0%} learned an answer"
        )


if __name__ == "__main__":
    main()
