"""Tests for the experiment harness (small-parameter runs of E1-E9)."""

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments import (
    ablations,
    approx_rounds,
    baselines_compare,
    exact_rounds,
    lower_bound,
    message_size,
    robustness,
    schedule_validation,
    self_rank,
    token_distribution,
    churn_sweep,
    topology_sweep,
)
from repro.experiments.runner import REGISTRY, run_experiment


def test_registry_contains_all_experiments():
    assert len(REGISTRY) == 14
    for spec in REGISTRY.values():
        assert spec.columns
        assert spec.claim


def test_ablations_rows():
    rows = ablations.run(n=512, phi=0.25, eps=0.15, trials=1, vote_sizes=(1, 15), seed=11)
    by_key = {(row["ablation"], row["setting"]): row for row in rows}
    paper = by_key[("phase-one", "phase I + phase II (paper)")]
    no_phase1 = by_key[("phase-one", "phase II only (ablated)")]
    # skipping Phase I collapses the estimate towards the median
    assert no_phase1["mean_error"] > paper["mean_error"]
    assert no_phase1["mean_error"] > 0.1
    # the K = 15 vote is at least as reliable as a single sample
    assert (
        by_key[("final-vote-size", "K=15")]["node_success_fraction"]
        >= by_key[("final-vote-size", "K=1")]["node_success_fraction"]
    )


def test_exact_rounds_rows_and_shape():
    rows = exact_rounds.run(sizes=(128, 512), phis=(0.5,), trials=1, seed=1)
    assert len(rows) == 2
    for row in rows:
        assert row["tournament_correct"] == 1.0
        assert row["kempe_correct"] == 1.0
        assert row["kempe_rounds"] > row["tournament_rounds"] * 0.5
    # quadratic-vs-linear separation: the normalised Kempe cost should not
    # shrink relative to the tournament cost as n grows
    assert rows[1]["speedup"] >= 0.8 * rows[0]["speedup"]


def test_approx_rounds_rows():
    rows = approx_rounds.run(sizes=(256, 1024), eps_values=(0.15,), phis=(0.5,), trials=1, seed=2)
    assert len(rows) == 2
    for row in rows:
        assert row["max_error"] <= 0.15 + 1e-9
        assert row["rounds"] > 0
    # near-flat growth in n
    assert rows[1]["rounds"] <= rows[0]["rounds"] + 12


def test_lower_bound_rows():
    rows = lower_bound.run(sizes=(1024,), eps_values=(0.1, 0.05), trials=1, seed=3)
    assert len(rows) == 2
    for row in rows:
        assert row["rounds_to_all_informed"] >= row["theorem_bound"] - 1


def test_robustness_rows():
    rows = robustness.run(sizes=(256,), mus=(0.0, 0.3), eps=0.15, trials=1, seed=4)
    assert len(rows) == 2
    clean, faulty = rows
    assert faulty["rounds"] >= clean["rounds"]
    assert faulty["answered_fraction"] > 0.9


def test_self_rank_rows():
    rows = self_rank.run(workloads=("distinct",), sizes=(256,), eps_values=(0.2,), seed=5)
    # one row per execution mode of the same (workload, n, eps) cell
    assert [row["mode"] for row in rows] == ["fused", "sequential"]
    by_mode = {row["mode"]: row for row in rows}
    for row in rows:
        assert row["fraction_within_2eps"] > 0.9
        assert row["grid_queries"] == 4
    # the fused pass runs one lane-chunk, max-of-lanes rounds
    assert by_mode["fused"]["chunks"] == 1
    assert by_mode["sequential"]["chunks"] == 4
    assert by_mode["fused"]["rounds"] < by_mode["sequential"]["rounds"]


def test_schedule_validation_rows():
    rows = schedule_validation.run(sizes=(512,), phis=(0.25,), eps_values=(0.1,), seed=6)
    assert len(rows) == 1
    row = rows[0]
    assert row["phase1_iterations"] <= row["phase1_bound"] + 1
    assert row["phase2_iterations"] <= row["phase2_bound"] + 1
    assert row["max_trajectory_deviation"] < 0.1


def test_baselines_compare_rows():
    rows = baselines_compare.run(n=256, eps=0.15, phi=0.5, trials=1, seed=7)
    by_name = {row["algorithm"]: row for row in rows}
    assert set(by_name) == {"tournament", "sampling", "doubling", "compacted-doubling"}
    assert by_name["sampling"]["rounds"] > by_name["tournament"]["rounds"]
    assert by_name["doubling"]["max_message_bits"] > by_name["tournament"]["max_message_bits"]


def test_message_size_rows():
    rows = message_size.run(sizes=(256,), eps_values=(0.1,), seed=8)
    assert len(rows) == 1
    row = rows[0]
    assert row["tournament_bits"] < row["compacted_bits"] < row["doubling_bits"]


def test_message_size_formula_only_mode():
    rows = message_size.run(sizes=(1 << 14,), eps_values=(0.01,), measure=False)
    assert rows[0]["doubling_bits"] > rows[0]["compacted_bits"]


def test_token_distribution_rows():
    rows = token_distribution.run(sizes=(256,), mus=(0.0,), trials=1, seed=9)
    assert len(rows) == 1
    assert rows[0]["max_tokens_per_node"] <= 16
    assert "engine" not in rows[0]


def test_exact_scale_rows():
    from repro.experiments import exact_scale

    rows = exact_scale.run(sizes=(1024,), phis=(0.5,), trials=1, seed=21)
    # one row per (n, phi): the keys are float32 ranks, there is no dtype axis
    assert len(rows) == 1
    row = rows[0]
    assert list(row) == exact_scale.COLUMNS
    assert row["correct"] == 1.0
    assert row["rank_error"] == 0.0
    assert row["wall_s"] > 0
    assert row["retries"] == row["sandwich_retries"] + row["final_retries"]
    # the float64 row of the retired dtype axis, seed for seed
    assert (row["rounds"], row["iterations"], row["sandwich_retries"]) == (
        457.0, 3.0, 1.0
    )


def test_exact_scale_has_no_dtype_axis():
    import pytest

    from repro.experiments import exact_scale

    with pytest.raises(TypeError):
        exact_scale.run(sizes=(512,), dtypes=("float64",))


def test_exact_scale_rows_identical_for_any_worker_count():
    from repro.experiments import exact_scale

    kwargs = dict(sizes=(512,), phis=(0.5,), trials=2, seed=5)
    serial = exact_scale.run(workers=1, **kwargs)
    parallel = exact_scale.run(workers=2, **kwargs)
    # wall times differ between runs; everything else must match exactly
    for a, b in zip(serial, parallel):
        a = {k: v for k, v in a.items() if k != "wall_s"}
        b = {k: v for k, v in b.items() if k != "wall_s"}
        assert a == b


def test_topology_sweep_rows():
    rows = topology_sweep.run(
        sizes=(512,),
        topologies=("complete", "regular", "ring"),
        protocols=("push-sum", "broadcast"),
        degree=8,
        max_rounds=300,
        trials=1,
        seed=10,
    )
    assert len(rows) == 6
    by_key = {(row["topology"], row["protocol"]): row for row in rows}
    # the complete graph and the expander converge; their gaps are constants
    assert by_key[("complete", "push-sum")]["converged_fraction"] == 1.0
    assert by_key[("regular", "push-sum")]["converged_fraction"] == 1.0
    assert by_key[("regular", "push-sum")]["spectral_gap"] > 0.1
    # the ring mixes polynomially slowly: it must need far more rounds (or
    # hit the cap) and its spectral gap collapses
    assert (
        by_key[("ring", "push-sum")]["rounds"]
        > 5 * by_key[("regular", "push-sum")]["rounds"]
    )
    assert by_key[("ring", "push-sum")]["spectral_gap"] < 0.02
    # broadcast informs everyone on every connected topology at this size
    for topo in ("complete", "regular", "ring"):
        assert by_key[(topo, "broadcast")]["quality"] == 1.0


def test_topology_sweep_rows_identical_for_any_worker_count():
    kwargs = dict(
        sizes=(256,),
        topologies=("complete", "small-world"),
        protocols=("push-sum", "approx-quantile"),
        max_rounds=200,
        trials=2,
        seed=6,
    )
    assert topology_sweep.run(workers=1, **kwargs) == topology_sweep.run(
        workers=4, **kwargs
    )


def test_topology_sweep_rejects_unknown_protocol():
    with pytest.raises(ConfigurationError):
        topology_sweep.run(sizes=(64,), protocols=("frisbee",), trials=1)


def test_run_experiment_forwards_topology_kwargs():
    rows_text = run_experiment(
        "topology",
        output="rows",
        sizes=(256,),
        topologies=("regular",),
        protocols=("broadcast",),
        degree=6,
        trials=1,
        seed=2,
    )
    assert "'topology': 'regular'" in rows_text
    with pytest.raises(ConfigurationError):
        run_experiment("schedules", topologies=("ring",), sizes=(256,))


def test_run_experiment_renders_table_and_csv():
    table = run_experiment("schedules", sizes=(256,), seed=10)
    assert "phase1_iterations" in table
    csv_text = run_experiment("schedules", output="csv", sizes=(256,), seed=10)
    assert csv_text.startswith("n,")
    rows_text = run_experiment("schedules", output="rows", sizes=(256,), seed=10)
    assert rows_text.startswith("[")


def test_run_experiment_unknown_name_and_format():
    with pytest.raises(ConfigurationError):
        run_experiment("not-an-experiment")
    with pytest.raises(ConfigurationError):
        run_experiment("schedules", output="yaml", sizes=(256,))


def test_churn_sweep_rows_structure_and_conservation():
    rows = churn_sweep.run(
        sizes=(128,),
        topologies=("complete", "small-world"),
        churn_rates=(0.0, 0.2),
        resample_every=(2,),
        max_rounds=120,
        trials=1,
        seed=6,
    )
    assert len(rows) == 5  # 2 topologies x 2 rates + 1 resample row
    for row in rows:
        assert set(churn_sweep.COLUMNS) <= set(row)
        # mass conservation is exact on every dynamic configuration
        assert row["mass_rel_error"] < 1e-9
    by_key = {(r["process"], r["topology"], r["churn_rate"]): r for r in rows}
    assert by_key[("churn", "complete", 0.0)]["active_fraction"] == 1.0
    assert by_key[("churn", "complete", 0.2)]["active_fraction"] < 0.9
    assert by_key[("resample", "newscast", 0.0)]["resample_every"] == 2


def test_churn_sweep_rows_identical_for_any_worker_count():
    kwargs = dict(
        sizes=(96,), topologies=("complete",), churn_rates=(0.1,),
        resample_every=(1,), max_rounds=80, trials=2, seed=9,
    )
    assert churn_sweep.run(workers=1, **kwargs) == churn_sweep.run(
        workers=3, **kwargs
    )


def test_churn_sweep_rejects_bad_parameters():
    with pytest.raises(ConfigurationError):
        churn_sweep.run(sizes=(64,), churn_rates=(1.2,), trials=1)
    with pytest.raises(ConfigurationError):
        churn_sweep.run(sizes=(64,), resample_every=(0,), trials=1)
    with pytest.raises(ConfigurationError):
        churn_sweep.run(sizes=(64,), failures="cosmic-rays", trials=1)
