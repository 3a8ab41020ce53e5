"""Tests for the command-line interface."""

import re

import numpy as np
import pytest

from repro.cli import main
from repro.exceptions import ConfigurationError


def test_no_command_prints_help_and_fails(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().out.lower()


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "exact-rounds" in out
    assert "Theorem 1.2" in out


def test_experiment_command_with_small_parameters(capsys):
    assert main(["schedules", "--sizes", "256", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "phase1_iterations" in out


def test_experiment_csv_output(capsys):
    assert main(["tokens", "--sizes", "128", "--trials", "1", "--output", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("n,")


def test_query_approximate(tmp_path, capsys):
    values = np.arange(1.0, 513.0)
    path = tmp_path / "values.txt"
    np.savetxt(path, values)
    assert main(["query", "--input", str(path), "--phi", "0.5", "--eps", "0.1", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "approximate 0.5-quantile" in out


def test_query_exact(tmp_path, capsys):
    values = np.arange(1.0, 257.0)
    path = tmp_path / "values.txt"
    np.savetxt(path, values)
    assert main(["query", "--input", str(path), "--phi", "0.25", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "exact 0.25-quantile = 64.0" in out


def test_seeded_exact_query_prints_the_golden_line(tmp_path, capsys):
    """The seeded CLI answer line, pinned byte for byte (also checked in CI).

    Re-pinned 344 → 392 rounds when the tournaments moved onto the gossip
    engines: the sandwich (112) and final-query (52 → 50) rounds follow
    the schedules, but the new partner stream keeps a different survivor
    set, whose token spreading took 94 rounds instead of 46 (extrema 16 →
    18).  No retries on either tree; the answer is unchanged.

    Re-pinned 392 → 356 rounds when Step 5 began counting on
    ``count_rounds``' budget: two counts of 59 → 41 rounds at n = 2048;
    every other phase and the answer are unchanged."""
    path = tmp_path / "perm2048.txt"
    path.write_text(
        "\n".join(map(str, np.random.default_rng(0).permutation(2048))) + "\n"
    )
    assert main(["query", "--input", str(path), "--phi", "0.5",
                 "--seed", "3"]) == 0
    assert capsys.readouterr().out == (
        "exact 0.5-quantile = 1023.0 (rank 1024 of 2048, 356 gossip rounds)\n"
    )


@pytest.mark.parametrize("command", [
    ["query", "--phi", "0.5"], ["ranks"], ["serve", "--phi", "0.5"],
    ["approx-rounds"],
], ids=lambda command: command[0])
def test_engine_flag_is_no_longer_accepted(tmp_path, capsys, command):
    path = tmp_path / "values.txt"
    np.savetxt(path, np.arange(1.0, 65.0))
    args = command + ["--engine", "vectorized"]
    if command[0] != "approx-rounds":
        args += ["--input", str(path)]
    with pytest.raises(SystemExit) as raised:
        main(args)
    assert raised.value.code == 2
    assert "unrecognized arguments: --engine" in capsys.readouterr().err


def test_topology_experiment_command(capsys):
    assert main([
        "topology", "--sizes", "256", "--trials", "1", "--seed", "5",
        "--topology", "complete", "regular", "--degree", "6",
    ]) == 0
    out = capsys.readouterr().out
    assert "spectral_gap" in out
    assert "regular" in out


def test_query_approximate_on_topology(tmp_path, capsys):
    values = np.arange(1.0, 513.0)
    path = tmp_path / "values.txt"
    np.savetxt(path, values)
    assert main([
        "query", "--input", str(path), "--phi", "0.5", "--eps", "0.1",
        "--seed", "1", "--topology", "small-world", "--degree", "8",
        "--rewire-p", "0.2",
    ]) == 0
    out = capsys.readouterr().out
    assert "on small-world" in out


def test_query_exact_with_topology(tmp_path, capsys):
    # regression: `query --topology <t>` without --eps used to be rejected;
    # the exact driver now threads the topology into its approximate stages.
    values = np.arange(1.0, 257.0)
    path = tmp_path / "values.txt"
    np.savetxt(path, values)
    main(["query", "--input", str(path), "--phi", "0.5",
          "--topology", "regular", "--degree", "8", "--seed", "3"])
    out = capsys.readouterr().out
    assert "exact 0.5-quantile = 128.0" in out
    assert "on regular" in out


def test_unknown_command_errors():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_churn_experiment_command(capsys):
    assert main([
        "churn", "--sizes", "128", "--trials", "1", "--seed", "5",
        "--topology", "complete", "--churn-rate", "0.1",
        "--resample-every", "4",
    ]) == 0
    out = capsys.readouterr().out
    assert "churn_rate" in out
    assert "newscast" in out
    assert "mass_rel_error" in out


def test_churn_experiment_with_topology_failures(capsys):
    assert main([
        "churn", "--sizes", "128", "--trials", "1", "--seed", "5",
        "--topology", "small-world", "--churn-rate", "0.05",
        "--failures", "topology",
    ]) == 0
    assert "topology" in capsys.readouterr().out


# ---- rejection of silently-ignored topology hyper-parameters ----------------


def test_experiment_rejects_rewire_p_on_non_small_world():
    with pytest.raises(ConfigurationError, match="--rewire-p"):
        main([
            "topology", "--sizes", "128", "--trials", "1",
            "--topology", "ring", "--rewire-p", "0.2",
        ])


def test_experiment_rejects_degree_on_fixed_structure_topologies():
    with pytest.raises(ConfigurationError, match="--degree"):
        main([
            "topology", "--sizes", "128", "--trials", "1",
            "--topology", "complete", "--degree", "8",
        ])


def test_experiment_accepts_flag_used_by_any_listed_topology(capsys):
    # complete ignores degree but regular uses it: a mixed list is fine
    assert main([
        "topology", "--sizes", "128", "--trials", "1", "--seed", "5",
        "--topology", "complete", "regular", "--degree", "6",
    ]) == 0


def test_query_rejects_degree_without_topology(tmp_path):
    values = np.arange(1.0, 257.0)
    path = tmp_path / "values.txt"
    np.savetxt(path, values)
    with pytest.raises(ConfigurationError, match="--degree"):
        main(["query", "--input", str(path), "--phi", "0.5", "--eps", "0.1",
              "--degree", "8"])


def test_query_rejects_rewire_p_on_mismatched_topology(tmp_path):
    values = np.arange(1.0, 257.0)
    path = tmp_path / "values.txt"
    np.savetxt(path, values)
    with pytest.raises(ConfigurationError, match="--rewire-p"):
        main(["query", "--input", str(path), "--phi", "0.5", "--eps", "0.1",
              "--topology", "ring", "--rewire-p", "0.2"])


def test_churn_accepts_degree_with_any_topology(capsys):
    # --degree doubles as the newscast view size in the churn experiment,
    # so it is meaningful even when the base family ignores it
    assert main([
        "churn", "--sizes", "64", "--trials", "1", "--seed", "2",
        "--topology", "complete", "--degree", "4",
        "--churn-rate", "0.1", "--resample-every", "2",
    ]) == 0
    assert "newscast" in capsys.readouterr().out


def test_query_exact_with_float32_dtype(tmp_path, capsys):
    values = np.arange(1.0, 513.0)
    path = tmp_path / "values.txt"
    np.savetxt(path, values)
    assert main([
        "query", "--input", str(path), "--phi", "0.5", "--seed", "2",
        "--dtype", "float32",
    ]) == 0
    out = capsys.readouterr().out
    assert "exact 0.5-quantile = 256.0" in out


def test_query_approximate_with_float32_dtype(tmp_path, capsys):
    values = np.arange(1.0, 513.0)
    path = tmp_path / "values.txt"
    np.savetxt(path, values)
    assert main([
        "query", "--input", str(path), "--phi", "0.5", "--eps", "0.1",
        "--seed", "1", "--dtype", "float32",
    ]) == 0
    assert "approximate 0.5-quantile" in capsys.readouterr().out


def test_experiments_take_no_dtype_flag(capsys):
    """No experiment sweeps a dtype: the exact driver's keys are float32
    ranks whatever the env says."""
    with pytest.raises(SystemExit):
        main(["exact-scale", "--sizes", "512", "--dtype", "float32"])
    assert "--dtype" in capsys.readouterr().err


def test_ranks_command(tmp_path, capsys):
    values = np.arange(1.0, 257.0)
    path = tmp_path / "values.txt"
    np.savetxt(path, values)
    assert main(["ranks", "--input", str(path), "--eps", "0.2", "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert "self-rank estimates for n=256" in out
    assert "4 grid targets in 1 fused tournament run(s)" in out
    assert "error mean=" in out


def test_ranks_sequential_mode_runs_one_pass_per_target(tmp_path, capsys):
    values = np.arange(1.0, 257.0)
    path = tmp_path / "values.txt"
    np.savetxt(path, values)
    assert main(["ranks", "--input", str(path), "--eps", "0.2", "--seed", "4",
                 "--max-lanes", "1"]) == 0
    out = capsys.readouterr().out
    assert "4 grid targets in 4 single-lane tournament run(s)" in out


def test_ranks_on_topology_with_dtype(tmp_path, capsys):
    values = np.arange(1.0, 257.0)
    path = tmp_path / "values.txt"
    np.savetxt(path, values)
    assert main(["ranks", "--input", str(path), "--eps", "0.2", "--seed", "4",
                 "--topology", "small-world", "--degree", "8",
                 "--rewire-p", "0.2", "--dtype", "float32"]) == 0
    out = capsys.readouterr().out
    assert "on small-world" in out


def test_ranks_rejects_degree_without_topology(tmp_path):
    values = np.arange(1.0, 257.0)
    path = tmp_path / "values.txt"
    np.savetxt(path, values)
    with pytest.raises(ConfigurationError, match="--degree"):
        main(["ranks", "--input", str(path), "--eps", "0.2", "--degree", "8"])


def test_serve_command_answers_queries(tmp_path, capsys):
    values = np.arange(1.0, 257.0)
    path = tmp_path / "values.txt"
    np.savetxt(path, values)
    assert main(["serve", "--input", str(path), "--eps", "0.1", "--seed", "4",
                 "--phi", "0.25", "0.5", "0.9"]) == 0
    out = capsys.readouterr().out
    assert "phi=0.25 ->" in out
    assert "phi=0.5 ->" in out
    assert "phi=0.9 ->" in out
    assert re.search(r"^phi=0.5 -> \S+ \(rank accuracy ±0\.\d{4}, epoch 0\)$",
                     out, re.MULTILINE)
    assert "served 3 queries" in out
    assert "zero additional rounds" in out


def test_serve_rejects_rewire_p_on_mismatched_topology(tmp_path):
    values = np.arange(1.0, 257.0)
    path = tmp_path / "values.txt"
    np.savetxt(path, values)
    with pytest.raises(ConfigurationError, match="--rewire-p"):
        main(["serve", "--input", str(path), "--phi", "0.5",
              "--topology", "ring", "--rewire-p", "0.2"])


def test_serve_rejects_churn_rate_on_a_topology(tmp_path):
    # A rebuild under churn runs on the active subset, which an n-node
    # static topology cannot describe.
    values = np.arange(1.0, 257.0)
    path = tmp_path / "values.txt"
    np.savetxt(path, values)
    with pytest.raises(ConfigurationError, match="--churn-rate"):
        main(["serve", "--input", str(path), "--phi", "0.5",
              "--topology", "ring", "--churn-rate", "0.05"])


# ---- observability flags ----------------------------------------------------


def _write_values(tmp_path, n=257):
    import numpy as np

    path = tmp_path / "values.txt"
    np.savetxt(path, np.arange(1.0, float(n)))
    return path


def test_query_trace_writes_jsonl(tmp_path, capsys):
    import json

    path = _write_values(tmp_path)
    trace = tmp_path / "trace.jsonl"
    assert main(["query", "--input", str(path), "--phi", "0.5", "--eps",
                 "0.1", "--seed", "1", "--trace", str(trace)]) == 0
    lines = [json.loads(line) for line in trace.read_text().splitlines()]
    assert lines, "trace file is empty"
    spans = [line for line in lines if line["type"] == "span"]
    assert {"approx_quantile", "two_tournament"} <= {
        span["name"] for span in spans
    }
    assert lines[-1]["type"] == "summary"


def test_query_profile_prints_span_tree(tmp_path, capsys):
    path = _write_values(tmp_path)
    assert main(["query", "--input", str(path), "--phi", "0.25", "--seed",
                 "2", "--profile"]) == 0
    out = capsys.readouterr().out
    assert "exact 0.25-quantile = 64.0" in out  # result is unchanged
    assert "exact_quantile" in out
    assert "sandwich" in out
    assert "final_query" in out


def test_query_tracing_does_not_change_the_answer(tmp_path, capsys):
    path = _write_values(tmp_path)
    assert main(["query", "--input", str(path), "--phi", "0.25",
                 "--seed", "2"]) == 0
    baseline = capsys.readouterr().out.splitlines()[0]
    assert main(["query", "--input", str(path), "--phi", "0.25", "--seed",
                 "2", "--profile"]) == 0
    traced = capsys.readouterr().out.splitlines()[0]
    assert traced == baseline


def test_serve_prom_exports_query_latency(tmp_path, capsys):
    path = _write_values(tmp_path)
    prom = tmp_path / "metrics.prom"
    assert main(["serve", "--input", str(path), "--eps", "0.1", "--seed",
                 "4", "--phi", "0.25", "0.5", "--prom", str(prom)]) == 0
    text = prom.read_text()
    assert "# TYPE repro_query_latency_seconds histogram" in text
    assert "repro_query_latency_seconds_count 2" in text
    assert 'repro_metrics_queries{instance="service_queries"} 2' in text
    assert 'repro_span_rounds{span="service_build"}' in text


def test_experiment_trace_flag(tmp_path, capsys):
    import json

    trace = tmp_path / "trace.jsonl"
    assert main(["schedules", "--sizes", "256", "--seed", "3",
                 "--trace", str(trace)]) == 0
    lines = [json.loads(line) for line in trace.read_text().splitlines()]
    assert lines[-1]["type"] == "summary"


def test_ranks_profile_flag(tmp_path, capsys):
    path = _write_values(tmp_path)
    assert main(["ranks", "--input", str(path), "--eps", "0.2", "--seed",
                 "4", "--profile"]) == 0
    out = capsys.readouterr().out
    assert "all_ranks" in out
    assert "grid_chunk" in out
