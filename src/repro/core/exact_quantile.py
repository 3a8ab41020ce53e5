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
   (rumor spreading — :mod:`repro.aggregates.extrema`);
3. counting the rank ``R`` of ``min`` (push-sum — :mod:`repro.aggregates.counting`);
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
* **Per-iteration ε.**  The paper sets ε = n^{-0.05}/2, which only bites for
  astronomically large n; at simulation scale any constant ε works and only
  changes the (logarithmic) number of iterations, so the driver defaults to
  ε = 1/16 and exposes the knob.
* **Termination.**  The paper runs a fixed 25 iterations, enough for the
  cumulative multiplicity to reach n.  The driver instead stops as soon as
  the cumulative multiplicity covers the final query window (2 ε n), which
  is the property the correctness argument actually uses, and also stops
  early when a single candidate value remains.
* **Retry safeguard.**  The paper's analysis is "with high probability"; at
  simulation scale an approximation can occasionally miss the target rank.
  The sandwich test ``min ≤ answer-rank ≤ max`` uses only quantities every
  node knows (k, min, max and gossip counting), so the driver re-runs an
  iteration whose sandwich missed and records the number of retries.
* **Executed rounds only.**  Every step runs on its gossip substrate, so
  every reported round is one a substrate executed.
* **Fused sandwich pair.**  The paper's Step 3 computes the lower and upper
  ε/2-approximate quantiles in the same O(log n)-round window — one
  O(log n)-bit message carries both working values.  The driver *executes*
  the pair that way (it used to run them sequentially and merely charge
  max-of-pair rounds): both approximations run as the two lanes of one
  multi-lane :class:`~repro.gossip.network.GossipNetwork`, sharing every
  partner draw, so rounds = max(pair) by construction and each round's
  message traffic lands in its own round record.  Step 4's min/max
  spreadings are fused the same way
  (:class:`~repro.aggregates.extrema.ExtremaPairProtocol`: one rumor
  stream, messages carry both working values).  Seeded runs therefore
  consume a different random stream than the pre-fusion sequential pairs
  (same documented-deviation class as the engine-stream changes below)
  and strictly fewer rounds; the returned quantile is unchanged.
* **Fast path.**  Every substrate is vectorized: the tournaments run on
  the batched :class:`~repro.gossip.network.GossipNetwork`
  pull surface, extrema/counting on the vectorized gossip engine, and token
  duplication on the vectorized engine of :mod:`repro.core.tokens` (selected
  through the global engine default, so ``--engine loop`` restores the
  scalar reference path).  The vectorized token engine draws its push
  targets in batches, a different random stream from the loop engine, so
  seeded runs differ from loop-engine runs in their
  token placements and round counts while all invariants and the returned
  quantile are unchanged.  ``env.dtype=float32`` runs the gossip key arrays
  in single precision — keys are ranks ≤ n, exactly representable in
  float32 below 2²⁴, so the computed quantile is identical while the hot
  ``(n, k, L)`` pull gathers move half the memory.  Exact queries
  complete in seconds at n = 10⁵ and run single-threaded at
  n = 10⁶ (see ``benchmarks/bench_exact_quantile.py`` and the
  ``exact-scale`` experiment preset).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Union

import numpy as np

from repro.aggregates.counting import count_leq
from repro.aggregates.extrema import spread_extrema, spread_extrema_pair
from repro.core.approx_quantile import approximate_quantile
from repro.core.results import ExactIterationStats, ExactQuantileResult
from repro.core.tokens import distribute_tokens
from repro.exceptions import ConfigurationError, ConvergenceError
from repro.gossip.env import GossipEnv, resolve_env
from repro.gossip.metrics import NetworkMetrics
from repro.gossip.network import GossipNetwork
from repro.obs.tracer import get_tracer
from repro.utils.inputs import node_values
from repro.utils.mathutils import ceil_pow2
from repro.utils.rand import RandomSource
from repro.utils.stats import target_rank

#: Default per-iteration approximation parameter (see module docstring).
DEFAULT_ITERATION_EPS = 0.0625


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
    eps_iteration: float = DEFAULT_ITERATION_EPS,
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
        Approximation parameter used by the per-iteration sandwich.
    max_iterations / max_retries:
        Safety budgets; exceeding them raises :class:`ConvergenceError`.
    env:
        The :class:`~repro.gossip.env.GossipEnv`.  Its ``failure_model``
        applies to every simulated substrate.  Its ``dtype`` is the dtype
        of the gossip key arrays: keys are ranks ≤ n, exactly
        representable in float32 for n < 2²⁴, so the answer is unchanged;
        the key→value table and the returned quantile stay full precision.
        A ``topology_process``, a ``faults`` injector or the ``"asyncio"``
        engine is rejected.

        Topology (a documented deviation): the ``topology`` /
        ``peer_sampling`` apply to the *approximate* stages (the sandwich
        tournaments of Step 3 and the final query), which dominate the
        round count.  The auxiliary aggregates — extrema spreading,
        push-sum counting, token duplication — run on the ``aux`` env,
        which is ``env`` on the complete graph (restricting them is an open
        item on the roadmap).

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
    tracer = get_tracer()
    if not tracer.active:
        return _exact_quantile_impl(
            values, phi, rng=rng,
            eps_iteration=eps_iteration, max_iterations=max_iterations,
            max_retries=max_retries, final_samples=final_samples, env=env,
        )
    # Bind the root span to the driver's (fresh) metrics object so the
    # span's counter deltas are the whole run's totals; the step spans
    # inside the impl nest under this one.
    metrics = NetworkMetrics(keep_history=False)
    with tracer.span("exact_quantile", metrics) as root:
        root.annotate(phi=phi)
        result = _exact_quantile_impl(
            values, phi, rng=rng,
            eps_iteration=eps_iteration, max_iterations=max_iterations,
            max_retries=max_retries, final_samples=final_samples, env=env,
            _metrics=metrics,
        )
        root.annotate(
            n=result.n,
            iterations=result.iterations,
            retries=result.retries,
        )
    return result


def _exact_quantile_impl(
    values: Union[np.ndarray, list, tuple],
    phi: float,
    rng: Union[None, int, RandomSource] = None,
    eps_iteration: float = DEFAULT_ITERATION_EPS,
    max_iterations: int = 80,
    max_retries: int = 16,
    final_samples: int = 15,
    env: Optional[GossipEnv] = None,
    _metrics: Optional[NetworkMetrics] = None,
) -> ExactQuantileResult:
    """The driver body behind :func:`exact_quantile` (same contract)."""
    if not 0.0 <= phi <= 1.0:
        raise ConfigurationError(f"phi must be in [0, 1], got {phi}")
    if not 0.0 < eps_iteration < 0.5:
        raise ConfigurationError("eps_iteration must be in (0, 0.5)")
    env = resolve_env(env)
    env.reject("exact_quantile", "topology_process", "faults")
    if env.engine == "asyncio":
        # The token stage has no live backend, so a simulated run would
        # fail midway; reject up front instead.
        raise ConfigurationError(
            "exact_quantile does not support env.engine='asyncio'"
        )
    # The documented topology deviation: the auxiliary substrates (extrema,
    # counting, tokens) stay on the complete graph.
    aux = dataclasses.replace(env, topology=None, peer_sampling="uniform")
    key_dtype = env.dtype

    array = node_values(values, min_nodes=4)
    n = array.size
    if key_dtype == np.dtype(np.float32) and n >= 2 ** 24:
        raise ConfigurationError(
            "float32 keys are exact only below 2**24 ranks; use float64 "
            f"for n = {n}"
        )
    if env.topology is not None and env.topology.n != n:
        raise ConfigurationError(
            f"topology has {env.topology.n} nodes but values has {n}"
        )
    source = rng if isinstance(rng, RandomSource) else RandomSource(rng)
    metrics = _metrics if _metrics is not None else NetworkMetrics(
        keep_history=False
    )
    tracer = get_tracer()

    # --- item (key) space setup -------------------------------------------------
    order = np.argsort(array, kind="stable")
    key_values = array[order].copy()          # key j (1-indexed) -> original value
    node_keys = np.empty(n, dtype=key_dtype)
    node_keys[order] = np.arange(1, n + 1, dtype=key_dtype)

    k = target_rank(n, phi)
    true_value = float(key_values[k - 1])     # used only for retry bookkeeping
    cumulative_multiplicity = 1
    eps = float(eps_iteration)
    history = []
    retries = 0
    iteration = 0

    def run_approx(target_phi: float, accuracy: float) -> np.ndarray:
        """One approximate quantile computation over the current keys."""
        working = GossipNetwork(
            node_keys,
            rng=source.child(),
            metrics=metrics,
            keep_history=False,
            env=env,
        )
        result = approximate_quantile(
            network=working,
            phi=target_phi,
            eps=accuracy,
            final_samples=final_samples,
        )
        return result.estimates

    def run_approx_pair(phi_a: float, phi_b: float, accuracy: float):
        """Step 3: both approximate quantiles, executed fused.

        The paper's Step 3 computes the lower and upper approximation in
        the same O(log n)-round window — one O(log n)-bit message carries
        both working values.  The pair runs as the two lanes of one
        multi-lane network: one partner matrix per round shared across
        lanes, per-lane tournament schedules with short lanes idling, so
        rounds = max(pair) by construction and every round's messages are
        recorded in that round (no out-of-round traffic merge).
        """
        working = GossipNetwork(
            np.stack([node_keys, node_keys], axis=1),
            rng=source.child(),
            metrics=metrics,
            keep_history=False,
            env=env,
        )
        result = approximate_quantile(
            network=working,
            phi=(phi_a, phi_b),
            eps=accuracy,
            final_samples=final_samples,
        )
        return result.estimates[:, 0], result.estimates[:, 1]

    # The final query aims eps*n/2 ranks below k with accuracy eps/3, so the
    # answer copies must cover (5/6) eps n ranks below k; stop once the
    # cumulative multiplicity comfortably exceeds that window.
    def duplication_target() -> int:
        return int(math.ceil(2.0 * eps * n)) + 1

    while iteration < max_iterations:
        live = key_values.size
        distinct = _distinct_sorted(key_values)
        if distinct <= 1 or cumulative_multiplicity >= duplication_target():
            break
        iteration += 1

        # Step 3: sandwich the target rank between two approximate quantiles.
        # A side whose target quantile falls off the end of the distribution
        # imposes no restriction (equivalently: that bound is the global
        # min / max, which every node can learn by extrema spreading).
        phi_lo = k / n - eps / 2.0
        phi_hi = k / n + eps / 2.0
        lo_bounded = phi_lo > 1.0 / n
        hi_bounded = phi_hi < 1.0
        with tracer.span("sandwich", metrics) as span:
            span.annotate(iteration=iteration, eps=eps,
                          paired=lo_bounded and hi_bounded)
            if lo_bounded and hi_bounded:
                est_lo, est_hi = run_approx_pair(
                    max(1.0 / n, phi_lo), min(1.0, phi_hi), eps / 2.0
                )
            else:
                est_lo = (
                    run_approx(max(1.0 / n, phi_lo), eps / 2.0)
                    if lo_bounded else None
                )
                est_hi = (
                    run_approx(min(1.0, phi_hi), eps / 2.0)
                    if hi_bounded else None
                )

        # Step 4: every node learns the min / max of the approximations.
        # Like the Step-3 sandwich, the two spreadings share one O(log n)
        # window (a message carries both working values): a two-sided
        # sandwich runs the fused pair protocol, a one-sided one a single
        # spreading.
        min_key: float = 1.0
        max_key: float = float("inf")
        with tracer.span("extrema", metrics) as span:
            span.annotate(iteration=iteration)
            if lo_bounded and hi_bounded:
                pair = spread_extrema_pair(
                    est_lo, est_hi, rng=source.child(),
                    metrics=metrics, env=aux,
                )
                min_key = float(np.min(pair.lo_values))
                max_key = float(np.max(pair.hi_values))
            elif lo_bounded:
                lo_spread = spread_extrema(
                    est_lo, mode="min", rng=source.child(),
                    metrics=metrics, env=aux,
                )
                min_key = float(np.min(lo_spread.values))
            elif hi_bounded:
                hi_spread = spread_extrema(
                    est_hi, mode="max", rng=source.child(),
                    metrics=metrics, env=aux,
                )
                max_key = float(np.max(hi_spread.values))

        # Translate the sandwich keys to *values* and keep every copy of a
        # surviving value (Step 6 restricts by value, so copies of the same
        # value live or die together).
        if lo_bounded:
            min_rank = int(round(min_key)) if np.isfinite(min_key) else 1
            min_rank = min(max(min_rank, 1), live)
            min_value = float(key_values[min_rank - 1])
            below_min = int(np.searchsorted(key_values, min_value, side="left"))
        else:
            below_min = 0
        if hi_bounded and np.isfinite(max_key):
            max_rank = min(max(int(round(max_key)), 1), live)
            max_value = float(key_values[max_rank - 1])
            upto_max = int(np.searchsorted(key_values, max_value, side="right"))
        else:
            upto_max = live

        # Sandwich check: the answer key k must survive the restriction.
        if not (below_min < k <= upto_max):
            retries += 1
            if retries > max_retries:
                raise ConvergenceError(
                    "exact quantile: approximation sandwich missed the target "
                    f"rank {retries} times (n={n}, phi={phi})"
                )
            iteration -= 1
            continue

        # Step 5: rank of the minimum.  Keys are exactly {1..live}, so the
        # count is determined by the sandwich; the push-sum counting runs
        # for its round cost and its count is not read.
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
            # sandwich is wider than the remaining data.  Sharpen eps so the
            # next iteration makes progress (small-n safeguard; cannot occur
            # in the paper's asymptotic regime).
            eps = max(eps / 2.0, 2.0 / n)
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
            f"exact quantile did not converge within {max_iterations} iterations"
        )

    # Final step (Algorithm 3, line 10): an approximate query aimed strictly
    # below k lands inside the answer's block of duplicated copies, then the
    # key translates back to a value.  Retry on the (rare, small-n) event
    # that the approximation lands outside the block; fall back to the
    # invariant value after `max_retries` attempts.
    answer = float("nan")
    live = key_values.size
    single_candidate = _distinct_sorted(key_values) == 1
    with tracer.span("final_query", metrics) as span:
        for _attempt in range(max_retries + 1):
            phi_final = max(1.0 / n, k / n - eps / 2.0)
            estimates = run_approx(phi_final, eps / 3.0)
            finite = estimates[np.isfinite(estimates)]
            if finite.size == 0:
                retries += 1
                continue
            key_estimate = int(round(float(np.median(finite))))
            key_estimate = min(max(key_estimate, 1), live)
            candidate = float(key_values[key_estimate - 1])
            if candidate == true_value or single_candidate:
                answer = candidate
                break
            retries += 1
        else:  # pragma: no cover - exercised only under extreme randomness
            answer = true_value
        span.annotate(attempts=_attempt + 1)

    if math.isnan(answer):
        answer = true_value

    return ExactQuantileResult(
        phi=phi,
        n=n,
        target_rank=target_rank(n, phi),
        value=answer,
        rounds=metrics.rounds,
        iterations=len(history),
        metrics=metrics,
        history=history,
        retries=retries,
    )
