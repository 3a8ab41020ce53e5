"""Theorem 1.1 / Algorithm 3 — exact φ-quantile computation in O(log n) rounds.

The algorithm bootstraps the ε-approximate quantile algorithm: every
iteration it sandwiches the target rank between two approximate quantiles,
discards every value outside the sandwich, and duplicates the surviving
values so that the next iteration operates at a finer rank resolution.
Once the duplicated copies of the answer fill the entire ε-window below the
target rank, a final approximate query that aims *strictly below* the
target rank is guaranteed to return the answer.

Per iteration the steps (and the substrates they run on) are:

1. two ε/2-approximate quantile computations around the current target rank
   (Theorem 2.1 — :mod:`repro.core.approx_quantile`);
2. spreading the global ``min``/``max`` of the per-node approximations
   (pull rumor spreading — :mod:`repro.aggregates.extrema`, on the
   calibrated budget :func:`~repro.aggregates.extrema.spread_rounds`);
3. counting the rank ``R`` of ``min`` (push-sum — :mod:`repro.aggregates.counting`,
   on the calibrated budget :func:`~repro.aggregates.counting.count_rounds`:
   65 rounds at n = 10⁶, stretched by ``(1 - mu)**-1.25`` under failures);
4. discarding values outside ``[min, max]`` and duplicating the survivors
   ``m_i`` times each (token split-and-distribute — :mod:`repro.core.tokens`);
5. updating the target rank to ``m_i (k - R + 1)``.

Implementation notes (documented deviations; see the README's "The fast
exact path" section):

* **Item space.**  The paper assumes all values are initially distinct and
  treats duplicated copies as items ordered just below their original.  We
  make that explicit: the driver relabels values to their ranks ("keys")
  and runs all gossip dynamics on keys, keeping a key→value table so the
  final key can be translated back.  The Step-6 restriction is applied to
  *values* exactly as in the paper: every copy of a surviving value
  survives.
* **Per-iteration ε.**  The paper sets ε = n^{-0.05}/2 so that a constant
  number of duplication iterations suffices.  The driver sizes ε from n the
  same way, with the exponent fitted to simulation scale
  (:func:`default_iteration_eps`): about ε n values survive a sandwich and
  each is duplicated ``m ≈ n^{0.99} / (2 ε n)`` times, so two iterations
  multiply the answer's copies by ``m² ≈ n^{-0.02} / (4 ε²)``.  That covers
  the final window ``2 ε n + 1`` once ε³ ≲ n^{-1.02} / 8, so the default is
  the largest power of two ≤ min(1/16, n^{-1/3} / 2): 1/16 up to n = 512,
  1/256 at n = 10⁶.  1/16 (``DEFAULT_ITERATION_EPS``) is the cap; an
  explicit ``eps_iteration`` overrides the rule.
* **Termination.**  The paper runs a fixed 25 iterations, enough for the
  cumulative multiplicity to reach n.  The driver instead stops as soon as
  the cumulative multiplicity ``c`` covers the final query window
  (2 ε n + 1), which is the property the correctness argument actually
  uses, and also stops early when a single candidate value remains.  Ranks
  ``[k - c + 1, k]`` then all hold the answer, so the final query aims at
  the middle of that block, ``k - c/2``, with accuracy
  ``max(ε/3, (c/2 - 1)/(2n))``.  That is half the block's half-width: an
  approximation aimed near the low end of the distribution can err by
  almost its whole nominal accuracy, so the factor of two keeps a
  worst-case estimate on a copy of the answer.
* **Retry safeguard.**  The paper's analysis is "with high probability"; at
  simulation scale an approximation can occasionally miss the target rank.
  The sandwich test ``min ≤ answer-rank ≤ max`` uses only quantities every
  node knows (k, min, max and gossip counting), so the driver re-runs an
  iteration whose sandwich missed, with ε doubled up to the 1/16 cap (a
  small or failure-heavy n then falls back to the cap rather than
  exhausting ``max_retries``).  Sandwich misses and final-query misses are
  counted separately (``sandwich_retries`` / ``final_retries``).  A pass
  whose sandwich excludes no value while no duplication fits (a small-n
  event) halves ε instead, under its own ``max_retries`` budget.
* **Executed rounds only.**  Every step runs on its gossip substrate, so
  every reported round is one a substrate executed.
* **Sandwich lanes.**  The paper's Step 3 computes the lower and upper
  ε/2-approximate quantiles in the same O(log n)-round window — one
  O(log n)-bit message carries both working values — and the driver
  executes them that way: each bounded side of the sandwich is one lane of
  a multi-lane tournament run (a side whose target falls off the
  distribution runs no lane).  The lanes share every
  partner draw, so rounds = max over the lanes, and each round's traffic
  lands in its own round record.  Step 4 spreads the min of the lower lane
  and the max of the upper one as the lanes of one pull-window plan on the
  same substrate (:func:`~repro.aggregates.extrema.spread_extrema`: one
  one-round window per round, the max lane stored negated so both lanes
  keep the smaller value) for :func:`~repro.aggregates.extrema.spread_rounds`
  rounds, and the final query is the same approximation with one lane.
* **Fast path.**  Every substrate is vectorized: the tournaments and the
  extrema windows (:mod:`repro.core.tournament`) and counting run on the
  vectorized gossip engine, and token duplication on the flat token
  columns of :mod:`repro.core.tokens`.  The gossip keys are ranks ≤ n,
  so the driver stores them in float32 while every rank is exact in it
  (n < 2²⁴, :func:`rank_key_dtype`) and in float64 above: the sandwich
  tournaments, the Step-4 extrema lanes and the final query compare
  exact integers either way, so the dtype changes the speed (the hot
  gathers and scatters move half the memory) but never the answer.
  ``env.dtype`` does not apply to the keys.  Push-sum counting compares
  the float32 keys as they are and pushes its own centered indicators,
  float32 up to :data:`~repro.aggregates.counting.COUNT_FLOAT32_MAX_N`
  nodes (:func:`~repro.aggregates.counting.count_indicators`).  Exact
  queries complete in seconds at n = 10⁵ and run single-threaded at
  n = 10⁶ (see ``benchmarks/bench_exact_quantile.py`` and the
  ``exact-scale`` experiment preset).
* **Robustness.**  The env's failure model, churn process and fault
  injector reach every step (Section 5), through one outage rule.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Union

import numpy as np

from repro.aggregates.counting import count_leq
from repro.aggregates.extrema import spread_extrema
from repro.core.all_quantiles import estimate_grid_subset
from repro.core.results import ExactIterationStats, ExactQuantileResult
from repro.core.tokens import distribute_tokens
from repro.exceptions import ConfigurationError, ConvergenceError
from repro.gossip.env import GossipEnv, resolve_env
from repro.gossip.metrics import NetworkMetrics
from repro.obs.tracer import get_tracer
from repro.utils.inputs import integral, node_values
from repro.utils.mathutils import ceil_pow2
from repro.utils.rand import RandomSource
from repro.utils.stats import target_rank

#: Largest per-iteration approximation parameter (see module docstring).
DEFAULT_ITERATION_EPS = 0.0625


def default_iteration_eps(n: int) -> float:
    """Largest power of two ≤ min(1/16, n^{-1/3} / 2), the driver's ε for n.

    ``2^-j ≤ n^{-1/3} / 2`` iff ``8^(j-1) ≥ n``, so the exponent is found in
    integers: no floating-point cube root can tip a power of eight (n = 512)
    to the next ε.
    """
    cube_exponent = -(-(n - 1).bit_length() // 3)  # min t: 8^t >= n
    return 2.0 ** -max(4, cube_exponent + 1)


def rank_key_dtype(n: int) -> np.dtype:
    """The gossip key dtype for n nodes: float32 while every rank 1..n is
    exactly representable in it (n < 2²⁴), else float64."""
    return np.dtype(np.float32 if n < 2 ** 24 else np.float64)


def _distinct_sorted(values: np.ndarray) -> int:
    """Number of distinct entries of an ascending-sorted array.

    ``key_values`` is sorted by construction, so counting the strict steps
    replaces the per-iteration ``np.unique`` re-sort of up to n entries.
    """
    if values.size == 0:
        return 0
    return 1 + int(np.count_nonzero(np.diff(values)))


def exact_quantile(
    values: Union[np.ndarray, list, tuple],
    phi: float,
    rng: Union[None, int, RandomSource] = None,
    fidelity: str = "simulated",
    eps_iteration: Optional[float] = None,
    max_iterations: int = 80,
    max_retries: int = 16,
    final_samples: int = 15,
    env: Optional[GossipEnv] = None,
) -> ExactQuantileResult:
    """Compute the exact φ-quantile (the ``ceil(phi n)``-th smallest value).

    Parameters
    ----------
    values:
        One value per node.
    phi:
        Target quantile in ``[0, 1]``.
    fidelity:
        Accepted only as ``"simulated"``, the one remaining mode, so older
        callers that pass it keep working; any other value raises
        :class:`ConfigurationError`.
    eps_iteration:
        Approximation parameter used by the per-iteration sandwich;
        ``None`` (the default) sizes it from n with
        :func:`default_iteration_eps`.
    max_iterations / max_retries:
        Safety budgets (``>= 1`` / ``>= 0``); exceeding them raises
        :class:`ConvergenceError`.
    env:
        The :class:`~repro.gossip.env.GossipEnv`.  Its ``failure_model``,
        ``topology_process`` and ``faults`` apply to every substrate
        (:func:`~repro.gossip.engine.round_outage`); ``engine="asyncio"``
        runs the tournaments, extrema and counting on the asyncio engine,
        with the same result (token duplication keeps its flat columns).
        Its ``dtype`` is ignored: the gossip keys are ranks, stored in
        :func:`rank_key_dtype` (float32 for n < 2²⁴), so every env dtype
        gives the same result; the key→value table and the returned
        quantile stay full precision.

        Topology (a documented deviation): the ``topology`` /
        ``peer_sampling`` apply to the *approximate* stages (the sandwich
        tournaments of Step 3 and the final query), which dominate the
        round count.  The auxiliary aggregates — extrema spreading,
        push-sum counting, token duplication — run on the ``aux`` env,
        which is ``env`` on the complete graph: Step 7 fills up to ~0.94 of
        the nodes (15 survivors × 16 copies on 256), and token spreading
        on a sparse graph stalls near full load (69 phases at 0.9 load on
        ``ring(256, k=8)``, over the 280-phase budget at 1.0).

    Returns
    -------
    ExactQuantileResult
        The exact quantile value, total gossip rounds, and per-iteration
        bookkeeping.
    """
    if fidelity != "simulated":
        raise ConfigurationError(
            f"fidelity={fidelity!r}: the idealized mode was removed; every "
            "step now runs on its gossip substrate (omit fidelity)"
        )
    if not 0.0 <= phi <= 1.0:
        raise ConfigurationError(f"phi must be in [0, 1], got {phi}")
    if eps_iteration is not None and not 0.0 < eps_iteration < 0.5:
        raise ConfigurationError("eps_iteration must be in (0, 0.5)")
    max_iterations = integral(max_iterations, "max_iterations")
    max_retries = integral(max_retries, "max_retries")
    if max_iterations < 1:
        raise ConfigurationError("max_iterations must be at least 1")
    if max_retries < 0:
        raise ConfigurationError("max_retries must be non-negative")
    array = node_values(values, min_nodes=4)
    n = array.size
    key_dtype = rank_key_dtype(n)
    env = dataclasses.replace(resolve_env(env), dtype=key_dtype)
    # The documented topology deviation: the auxiliary substrates (extrema,
    # counting, tokens) stay on the complete graph.
    aux = dataclasses.replace(env, topology=None, peer_sampling="uniform")
    if env.topology is not None and env.topology.n != n:
        raise ConfigurationError(
            f"topology has {env.topology.n} nodes but values has {n}"
        )
    source = rng if isinstance(rng, RandomSource) else RandomSource(rng)
    metrics = NetworkMetrics(keep_history=False)
    tracer = get_tracer()

    # --- item (key) space setup -------------------------------------------------
    order = np.argsort(array, kind="stable")
    key_values = array[order].copy()          # key j (1-indexed) -> original value
    node_keys = np.empty(n, dtype=key_dtype)
    node_keys[order] = np.arange(1, n + 1, dtype=key_dtype)

    k = target_rank(n, phi)
    true_value = float(key_values[k - 1])     # used only for retry bookkeeping
    cumulative_multiplicity = 1
    eps = float(
        default_iteration_eps(n) if eps_iteration is None else eps_iteration
    )
    history = []
    sandwich_retries = 0
    final_retries = 0
    stalls = 0
    iteration = 0

    def run_approx(targets: list, accuracy: float) -> np.ndarray:
        """Approximate quantiles of the current keys, one lane per target.

        The lanes share one multi-lane network — one partner draw per
        round, one message carrying every lane's working value — so they
        execute in one max-of-lanes window.  Returns ``(lanes, n)``.
        """
        estimates, _ = estimate_grid_subset(
            node_keys, targets, accuracy, final_samples, source, metrics,
            max_lanes=len(targets), env=env,
        )
        return estimates

    # Stop once the answer's copies cover a 2 eps n + 1 rank window: the
    # final query then aims at the middle of the block with an accuracy of
    # at least eps/3 (see the module docstring).
    def duplication_target() -> int:
        return int(math.ceil(2.0 * eps * n)) + 1

    # The root span is bound to the driver's (fresh) metrics object, so its
    # counter deltas are the whole run's totals; the step spans nest under
    # it.  Without an active tracer every span is a no-op.
    with tracer.span("exact_quantile", metrics) as root:
        root.annotate(phi=phi)
        while iteration < max_iterations:
            live = key_values.size
            distinct = _distinct_sorted(key_values)
            if distinct <= 1 or cumulative_multiplicity >= duplication_target():
                break
            iteration += 1

            # Step 3: sandwich the target rank between two approximate
            # quantiles, one lane per side (the side's extrema mode -> its
            # target quantile).  A side whose target quantile falls off the
            # end of the distribution imposes no restriction (equivalently:
            # that bound is the global min / max, which every node can learn
            # by extrema spreading) and runs no lane.
            phi_lo = k / n - eps / 2.0
            phi_hi = k / n + eps / 2.0
            sides = {}
            if phi_lo > 1.0 / n:
                sides["min"] = phi_lo
            if phi_hi < 1.0:
                sides["max"] = phi_hi
            with tracer.span("sandwich", metrics) as span:
                span.annotate(iteration=iteration, eps=eps, lanes=len(sides))
                estimates = run_approx(list(sides.values()), eps / 2.0)

            # Step 4: every node learns the min of the lower approximations
            # and the max of the upper ones — one spreading, one lane per
            # side, sharing the Step-3 window's message budget, for the
            # node-known spread_rounds budget.
            with tracer.span("extrema", metrics) as span:
                span.annotate(iteration=iteration)
                spread = spread_extrema(
                    estimates.T, mode=list(sides), rng=source.child(),
                    metrics=metrics, env=aux,
                )
            bounds = dict(zip(sides, spread.values.T))

            # Translate the sandwich keys to *values* and keep every copy of
            # a surviving value (Step 6 restricts by value, so copies of the
            # same value live or die together).
            min_key = float(np.min(bounds.get("min", 1.0)))
            max_key = float(np.max(bounds.get("max", np.inf)))
            if "min" in bounds:
                min_rank = int(round(min_key)) if np.isfinite(min_key) else 1
                min_rank = min(max(min_rank, 1), live)
                min_value = float(key_values[min_rank - 1])
                below_min = int(np.searchsorted(key_values, min_value, side="left"))
            else:
                below_min = 0
            if np.isfinite(max_key):
                max_rank = min(max(int(round(max_key)), 1), live)
                max_value = float(key_values[max_rank - 1])
                upto_max = int(np.searchsorted(key_values, max_value, side="right"))
            else:
                upto_max = live

            # Sandwich check: the answer key k must survive the restriction.
            # A miss widens the sandwich (up to the 1/16 cap) before the retry.
            if not (below_min < k <= upto_max):
                sandwich_retries += 1
                if sandwich_retries > max_retries:
                    raise ConvergenceError(
                        "exact quantile: approximation sandwich missed the "
                        f"target rank {sandwich_retries} times (n={n}, phi={phi})"
                    )
                eps = min(2.0 * eps, max(eps, DEFAULT_ITERATION_EPS))
                iteration -= 1
                continue

            # Step 5: rank of the minimum.  Keys are exactly {1..live}, so
            # the count is determined by the sandwich; the push-sum counting
            # runs for its round cost (count_leq's calibrated budget) and its
            # count is not read.
            with tracer.span("counting", metrics) as span:
                span.annotate(iteration=iteration)
                count_leq(node_keys, threshold=min_key, rng=source.child(),
                          metrics=metrics, env=aux)

            valued_count = upto_max - below_min
            if valued_count <= 0:
                raise ConvergenceError("exact quantile: empty value sandwich")

            # Step 7: duplicate the survivors m_i times each.
            target_tokens = max(2.0, (n ** 0.99) / 2.0)
            multiplicity = ceil_pow2(target_tokens / valued_count)
            while multiplicity > 1 and multiplicity * valued_count > n:
                multiplicity //= 2

            if multiplicity == 1 and valued_count == live:
                # No value was excluded and no duplication is possible: the
                # sandwich is wider than the remaining data.  Halve eps so
                # the next pass makes progress (small-n safeguard; cannot
                # occur in the paper's asymptotic regime), within the same
                # retry budget as a sandwich miss.
                stalls += 1
                if stalls > max_retries:
                    raise ConvergenceError(
                        "exact quantile: the sandwich excluded no value "
                        f"{stalls} times (n={n}, phi={phi})"
                    )
                eps /= 2.0
                iteration -= 1
                continue

            with tracer.span("tokens", metrics) as span:
                span.annotate(iteration=iteration, multiplicity=multiplicity,
                              survivors=valued_count)
                # Keys are exactly {1..live}, each held by one node: an
                # inverse permutation maps the surviving key block to its
                # holders.
                finite = np.isfinite(node_keys)
                key_holder = np.empty(live, dtype=np.int64)
                key_holder[node_keys[finite].astype(np.int64) - 1] = (
                    np.flatnonzero(finite)
                )
                item_nodes = key_holder[below_min:upto_max]
                distribution = distribute_tokens(
                    item_nodes,
                    multiplicity=multiplicity,
                    n=n,
                    rng=source.child(),
                    metrics=metrics,
                    env=aux,
                )
                # Item j owns the key block (j*multiplicity,
                # (j+1)*multiplicity]; hand block members to the owner nodes
                # in arbitrary order (here: ascending node order within each
                # item, matching the historical per-node loop bit for bit).
                node_keys = np.full(n, np.inf, dtype=key_dtype)
                owners = distribution.owners
                nodes = np.flatnonzero(owners >= 0)
                items_held = owners[nodes]
                order = np.argsort(items_held, kind="stable")
                node_keys[nodes[order]] = (
                    items_held[order].astype(np.int64) * multiplicity
                    + np.arange(nodes.size, dtype=np.int64) % multiplicity
                    + 1
                )
            key_values = np.repeat(key_values[below_min:upto_max], multiplicity)
            k = multiplicity * (k - below_min)
            cumulative_multiplicity *= multiplicity
            history.append(
                ExactIterationStats(
                    iteration=iteration,
                    eps=eps,
                    valued_nodes=valued_count,
                    multiplicity=multiplicity,
                    cumulative_multiplicity=cumulative_multiplicity,
                    target_rank=k,
                    distinct_candidates=_distinct_sorted(key_values),
                    rounds_so_far=metrics.rounds,
                )
            )

        if (
            iteration >= max_iterations
            and _distinct_sorted(key_values) > 1
            and cumulative_multiplicity < duplication_target()
        ):
            raise ConvergenceError(
                f"exact quantile did not converge within {max_iterations} "
                "iterations"
            )

        # Final step (Algorithm 3, line 10): ranks [k - c + 1, k] all hold
        # the answer (c = cumulative multiplicity), so an approximate query
        # aimed at the middle of that block lands on a copy, then the key
        # translates back to a value.  Retry on the (rare, small-n) event
        # that the approximation lands outside the block; fall back to the
        # invariant value after `max_retries` attempts.
        live = key_values.size
        single_candidate = _distinct_sorted(key_values) == 1
        half_block = cumulative_multiplicity / 2.0
        phi_final = max(1.0 / n, (k - half_block) / n)
        accuracy_final = max(eps / 3.0, (half_block - 1.0) / (2.0 * n))
        with tracer.span("final_query", metrics) as span:
            for _attempt in range(max_retries + 1):
                estimates = run_approx([phi_final], accuracy_final)[0]
                finite = estimates[np.isfinite(estimates)]
                if finite.size == 0:
                    final_retries += 1
                    continue
                key_estimate = int(round(float(np.median(finite))))
                key_estimate = min(max(key_estimate, 1), live)
                candidate = float(key_values[key_estimate - 1])
                if candidate == true_value or single_candidate:
                    answer = candidate
                    break
                final_retries += 1
            else:  # pragma: no cover - exercised only under extreme randomness
                answer = true_value
            span.annotate(attempts=_attempt + 1)

        root.annotate(
            n=n,
            iterations=len(history),
            retries=sandwich_retries + final_retries,
            sandwich_retries=sandwich_retries,
            final_retries=final_retries,
        )

    return ExactQuantileResult(
        phi=phi,
        n=n,
        target_rank=target_rank(n, phi),
        value=answer,
        rounds=metrics.rounds,
        iterations=len(history),
        metrics=metrics,
        history=history,
        sandwich_retries=sandwich_retries,
        final_retries=final_retries,
    )
