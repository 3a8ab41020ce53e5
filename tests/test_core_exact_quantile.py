"""Tests for the exact φ-quantile algorithm (Theorem 1.1 / Algorithm 3)."""

import dataclasses
import importlib
import math
import signal

import numpy as np
import pytest

from repro.core.exact_quantile import (
    DEFAULT_ITERATION_EPS,
    default_iteration_eps,
    exact_quantile,
)
from repro.datasets.generators import distinct_uniform, gaussian_values, zipf_values
from repro.exceptions import ConfigurationError, ConvergenceError
from repro.gossip.env import GossipEnv
from repro.gossip.metrics import NetworkMetrics
from repro.utils.stats import empirical_quantile, target_rank

# the package re-exports the functions under the module names
exact_module = importlib.import_module("repro.core.exact_quantile")


def test_returns_exact_quantile_for_several_phis(medium_values):
    for seed, phi in enumerate((0.1, 0.25, 0.5, 0.75, 0.9)):
        result = exact_quantile(medium_values, phi=phi, rng=seed)
        assert result.value == empirical_quantile(medium_values, phi), phi
        assert result.target_rank == target_rank(medium_values.size, phi)


def test_extreme_phis_return_min_and_max(small_values):
    low = exact_quantile(small_values, phi=0.0, rng=1)
    high = exact_quantile(small_values, phi=1.0, rng=2)
    assert low.value == small_values.min()
    assert high.value == small_values.max()


def test_works_on_continuous_and_skewed_data():
    gauss = gaussian_values(512, rng=3)
    zipf = zipf_values(512, exponent=1.7, rng=4)
    for values in (gauss, zipf):
        result = exact_quantile(values, phi=0.85, rng=5)
        assert result.value == empirical_quantile(values, 0.85)


def test_simulated_fidelity_also_exact(small_values):
    result = exact_quantile(small_values, phi=0.6, rng=6)
    assert result.value == empirical_quantile(small_values, 0.6)
    assert result.rounds > 0


def test_rounds_scale_roughly_linearly_in_log_n():
    """Theorem 1.1 shape check: rounds / log2(n) stays bounded as n grows."""
    rounds = {}
    for n in (256, 1024, 4096):
        values = distinct_uniform(n, rng=7)
        result = exact_quantile(values, phi=0.5, rng=8)
        rounds[n] = result.rounds
    ratio_small = rounds[256] / math.log2(256)
    ratio_large = rounds[4096] / math.log2(4096)
    # the normalised cost may wobble but must not blow up quadratically
    assert ratio_large < 3.0 * ratio_small
    assert rounds[4096] > rounds[256]  # more nodes do cost more rounds overall


def test_history_records_progress(medium_values):
    result = exact_quantile(medium_values, phi=0.3, rng=9)
    assert result.iterations == len(result.history)
    assert result.iterations >= 1
    multiplicities = [h.cumulative_multiplicity for h in result.history]
    assert all(m2 >= m1 for m1, m2 in zip(multiplicities, multiplicities[1:]))
    assert result.history[-1].rounds_so_far <= result.rounds


TIED_INPUTS = {
    "64-distinct": np.repeat(np.arange(1.0, 65.0), 4),  # 256 nodes
    "two-value": np.where(np.arange(256) % 3 == 0, 2.5, -1.0),
    "constant": np.full(256, 7.25),
}


@pytest.mark.parametrize("phi", (0.0, 0.3, 0.5, 1.0))
@pytest.mark.parametrize("name", sorted(TIED_INPUTS))
def test_duplicate_input_values_are_handled(name, phi):
    values = TIED_INPUTS[name]
    result = exact_quantile(values, phi=phi, rng=10)
    assert result.value == np.sort(values)[target_rank(values.size, phi) - 1]


def test_constant_input_stops_at_its_first_spread(monkeypatch):
    """Step 4's min equals its max on the first pass and the sandwich
    holds, so the driver answers there: no count, no tokens, no final
    query."""
    calls = []
    for name in ("estimate_grid_subset", "spread_extrema", "count_leq",
                 "distribute_tokens"):
        real = getattr(exact_module, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(exact_module, name, spy)
    result = exact_quantile(TIED_INPUTS["constant"], phi=0.5, rng=10)
    assert result.value == 7.25
    assert result.history == [] and result.retries == 0
    assert calls == ["estimate_grid_subset", "spread_extrema"]


@pytest.mark.parametrize("engine", ["vectorized", "asyncio"])
def test_an_increasing_map_moves_only_the_answer(engine):
    """Every step only compares values, so x -> 0.1 x + 7 (which leaves
    float32, so the driver gossips float64) runs the same rounds, history
    and retries and answers the mapped value."""
    values = np.random.default_rng(3).permutation(2000).astype(float)
    env = GossipEnv(engine=engine)
    plain = exact_quantile(values, phi=0.5, rng=4, env=env)
    mapped = exact_quantile(0.1 * values + 7.0, phi=0.5, rng=4, env=env)
    assert mapped.value == 0.1 * plain.value + 7.0
    assert mapped.rounds == plain.rounds
    assert mapped.history == plain.history
    assert (mapped.sandwich_retries, mapped.final_retries) == (
        plain.sandwich_retries, plain.final_retries,
    )


def test_eps_iteration_knob(medium_values):
    fine = exact_quantile(medium_values, phi=0.5, rng=11, eps_iteration=0.03)
    coarse = exact_quantile(medium_values, phi=0.5, rng=11, eps_iteration=0.2)
    assert fine.value == coarse.value == empirical_quantile(medium_values, 0.5)
    # a sharper sandwich needs fewer duplication iterations
    assert fine.iterations <= coarse.iterations
    # an explicit eps_iteration overrides the n-sized default
    assert coarse.history[0].eps == 0.2


def test_summary_and_metadata(medium_values):
    result = exact_quantile(medium_values, phi=0.4, rng=12)
    summary = result.summary()
    assert summary["value"] == result.value
    assert summary["n"] == medium_values.size
    assert result.metrics.rounds == result.rounds
    assert summary["retries"] == (
        summary["sandwich_retries"] + summary["final_retries"]
    ) == result.retries


@pytest.mark.parametrize(
    "n,eps",
    [(4, 1 / 16), (256, 1 / 16), (512, 1 / 16), (513, 1 / 32), (4096, 1 / 32),
     (10_000, 1 / 64), (16_384, 1 / 64), (100_000, 1 / 128),
     (1_000_000, 1 / 256)],
)
def test_default_iteration_eps_table(n, eps):
    assert default_iteration_eps(n) == eps


def test_default_iteration_eps_is_a_capped_power_of_two():
    for n in list(range(4, 3000)) + [10 ** p for p in range(4, 10)]:
        eps = default_iteration_eps(n)
        bound = min(DEFAULT_ITERATION_EPS, n ** (-1 / 3) / 2)
        assert math.log2(eps) == int(math.log2(eps))
        assert eps <= bound * (1 + 1e-12)
        assert 2 * eps > bound  # the largest such power of two


def test_final_query_lands_on_the_answer_copies():
    """The final query aims at the middle of the answer's block of copies
    with an accuracy sized from that block, so it needs no second try."""
    for seed in range(20):
        values = distinct_uniform(256, rng=seed)
        for phi in (0.1, 0.5, 0.9):
            result = exact_quantile(values, phi=phi, rng=seed)
            assert result.value == empirical_quantile(values, phi)
            assert result.final_retries == 0, (seed, phi)


def test_final_query_misses_raise(monkeypatch):
    """A final query that never lands on a finite estimate raises after
    ``max_retries`` retries instead of answering from the oracle.  At
    φ = 0.5 every sandwich runs two lanes, so the final query is the only
    one-lane approximation."""
    real = exact_module.estimate_grid_subset
    final_calls = []

    def no_finite_final(array, targets, *args, **kwargs):
        estimates, windows = real(array, targets, *args, **kwargs)
        if len(targets) == 1:
            final_calls.append(targets)
            estimates = np.full_like(estimates, np.inf)
        return estimates, windows

    monkeypatch.setattr(exact_module, "estimate_grid_subset", no_finite_final)
    values = distinct_uniform(256, rng=1)
    with pytest.raises(ConvergenceError, match="final query missed the answer's copies 3 times"):
        exact_quantile(values, phi=0.5, rng=1, max_retries=2)
    assert len(final_calls) == 3


def test_sandwich_miss_widens_eps():
    """An iteration re-run after a sandwich miss uses a doubled ε (capped
    at 1/16), and the history records it."""
    n = 1024
    values = np.random.default_rng(5).permutation(n).astype(float)
    result = exact_quantile(values, phi=0.5, rng=11)
    assert result.value == empirical_quantile(values, 0.5)
    assert result.sandwich_retries >= 1
    epss = [stats.eps for stats in result.history]
    assert epss[0] == default_iteration_eps(n) == 1 / 32
    assert max(epss) == 2 * epss[0] == DEFAULT_ITERATION_EPS
    assert epss == sorted(epss)


def test_validation_errors(small_values):
    with pytest.raises(ConfigurationError):
        exact_quantile(small_values, phi=2.0)
    with pytest.raises(ConfigurationError, match="removed"):
        exact_quantile(small_values, phi=0.5, fidelity="idealized")
    with pytest.raises(ConfigurationError):
        exact_quantile(small_values, phi=0.5, eps_iteration=0.0)
    with pytest.raises(ConfigurationError):
        exact_quantile([1.0, 2.0, 3.0], phi=0.5)


@pytest.mark.parametrize(
    "budgets, message",
    [
        ({"max_iterations": 0}, "max_iterations must be at least 1"),
        ({"max_iterations": -2}, "max_iterations must be at least 1"),
        ({"max_iterations": 2.5}, "max_iterations must be an integer"),
        ({"max_retries": -1}, "max_retries must be non-negative"),
        ({"max_retries": True}, "max_retries must be an integer"),
    ],
    ids=["iterations-0", "iterations-negative", "iterations-fraction",
         "retries-negative", "retries-bool"],
)
def test_budgets_are_checked_up_front(small_values, budgets, message):
    """A bad budget is a configuration error before any gossip, not a
    ConvergenceError after it."""
    with pytest.raises(ConfigurationError, match=message):
        exact_quantile(small_values, phi=0.5, rng=1, **budgets)


def test_integral_budgets_are_the_same_budgets(small_values):
    as_floats = exact_quantile(small_values, phi=0.5, rng=1,
                               max_iterations=80.0, max_retries=16.0)
    as_ints = exact_quantile(small_values, phi=0.5, rng=1)
    assert (as_floats.value, as_floats.rounds) == (as_ints.value, as_ints.rounds)


def test_deterministic_given_seed(small_values):
    a = exact_quantile(small_values, phi=0.7, rng=13)
    b = exact_quantile(small_values, phi=0.7, rng=13)
    assert a.value == b.value
    assert a.rounds == b.rounds


# ---- the fast simulated path (PR 3) -----------------------------------------


def test_simulated_fidelity_exact_at_scale():
    """Regression for the end-to-end vectorized path: a fully simulated
    exact query at n = 10⁴ returns the true quantile in seconds."""
    n = 10_000
    values = np.random.default_rng(7).permutation(n).astype(float)
    result = exact_quantile(values, phi=0.5, rng=8)
    assert result.value == empirical_quantile(values, 0.5)
    assert result.rounds > 0


def test_simulated_seeded_execution_is_pinned():
    """The simulated driver must reproduce this pinned seeded execution
    exactly (value, rounds, iterations and retries).  The pin was first
    recorded with the per-node loop engine forced; the default engine
    lands on it too.

    The pin was re-baselined when the Step-3 sandwich pair and the Step-4
    min/max spreadings became fused runs (a documented deviation: each
    pair now *executes* in one max-of-pair window instead of running
    sequentially, so it consumes a different random stream and strictly
    fewer rounds — this seed used to take 609 rounds and 3 sandwich
    retries), and again when the final query started aiming at the middle
    of the answer's block of copies with an accuracy sized from the block
    (427 rounds before, same value, iterations and retries), and when the
    tournaments moved onto the gossip engines with per-round partner
    draws (418 rounds before, same value, iterations and retries), and
    when Step 5 began counting on ``count_rounds``' budget (411 rounds
    before: three counts of 51 → 36 rounds; same value, iterations and
    retries), and when Step 4 became one-round pull windows on
    ``spread_rounds``' budget (366 rounds before: three spreads of 26
    rounds each at n = 512 against push-pull with an oracle stop; same
    value, iterations and retries)."""
    values = np.random.default_rng(42).permutation(512).astype(float)
    result = exact_quantile(values, phi=0.7, rng=11)
    assert result.value == 358.0
    assert result.rounds == 432
    assert result.iterations == 3
    assert result.retries == 0


def _exact_run_record(result):
    return (
        [dataclasses.asdict(stats) for stats in result.history],
        result.sandwich_retries,
        result.final_retries,
        result.metrics.summary(),
        result.value,
        result.rounds,
    )


@pytest.mark.parametrize("mu", (0.0, 0.3))
@pytest.mark.parametrize("phi", (0.0, 0.3, 1.0))
def test_exact_run_is_engine_invariant(phi, mu):
    """``env.engine`` ``None`` and ``"vectorized"`` run the same seeded
    exact execution: history, both retry counters, the metrics summary,
    the value and the rounds."""
    values = np.random.default_rng(61).permutation(512).astype(float)
    failure_model = mu if mu > 0 else None
    default, vectorized = (
        exact_quantile(values, phi=phi, rng=23,
                       env=GossipEnv(failure_model=failure_model, engine=engine))
        for engine in (None, "vectorized")
    )
    assert default.value == empirical_quantile(values, phi)
    assert _exact_run_record(default) == _exact_run_record(vectorized)


@pytest.mark.parametrize(
    "env",
    [
        GossipEnv(engine="vectorized"),
        GossipEnv(failure_model=0.15),
    ],
    ids=["vectorized", "failures"],
)
def test_every_reported_round_was_executed(monkeypatch, env):
    """No sub-step is priced with charged rounds: every round in the
    result is one a gossip substrate ran."""

    def no_charges(self, count, label="charged"):
        raise AssertionError(f"charged {count} {label!r} rounds")

    monkeypatch.setattr(NetworkMetrics, "charge_rounds", no_charges)
    values = np.random.default_rng(4).permutation(512).astype(float)
    result = exact_quantile(values, phi=0.5, rng=20, env=env)
    assert result.value == empirical_quantile(values, 0.5)
    assert result.rounds == result.metrics.rounds > 0


# ---- small n ------------------------------------------------------------------


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
def test_small_n_sweep_is_exact_and_terminates():
    """At n <= 32 a sandwich can exclude nothing while no duplication fits;
    the driver then halves ε under the retry budget.  (Raising ε to 2/n
    instead looped forever: n = 4, φ = 0.5 hung on most seeds.)  A
    wall-clock alarm turns a regression into a failure, not a hung run."""

    def hung(signum, frame):
        raise AssertionError("small-n exact sweep exceeded its 60 s budget")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        for n in range(4, 9):
            for seed in range(10):
                rng = np.random.default_rng(seed)
                inputs = (
                    rng.permutation(n).astype(float),
                    rng.integers(0, 3, n).astype(float),
                )
                for values in inputs:
                    for phi in (0.0, 0.5, 1.0):
                        result = exact_quantile(values, phi=phi, rng=seed)
                        assert result.value == empirical_quantile(values, phi), (
                            n, seed, values, phi,
                        )
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_stalled_sandwich_passes_are_budgeted():
    """Passes whose sandwich excludes nothing count against
    ``max_retries``: with no budget at all, the first one raises."""
    values = np.random.default_rng(2).permutation(4).astype(float)
    with pytest.raises(ConvergenceError, match="excluded no value"):
        exact_quantile(values, phi=0.5, rng=2, max_retries=0)
    assert exact_quantile(values, phi=0.5, rng=2).value == 1.0
