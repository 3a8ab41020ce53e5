"""Framework-level tests for :mod:`repro.lint`.

Covers the suppression grammar, module-name resolution, the CLI's exit
code contract, the versioned JSON report schema, and the two whole-tree
gates: the self-lint (``python -m repro.lint src`` must be clean at
HEAD) and the suppression audit (every suppression in the tree carries a
justification and names a known rule).
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (
    JSON_SCHEMA_VERSION,
    Finding,
    lint_paths,
    render_json,
    render_text,
)
from repro.lint.cli import main
from repro.lint.runner import iter_python_files, module_name_for
from repro.lint.suppressions import extract_suppressions, parse_suppression

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures" / "repro"


def _lint_env() -> dict:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) if not existing else str(SRC) + os.pathsep + existing
    return env


# ---------------------------------------------------------------------------
# suppression grammar
# ---------------------------------------------------------------------------


def test_parse_suppression_inline_applies_to_own_line():
    parsed = parse_suppression(
        7, "# repro-lint: disable=stable-sort -- ties impossible here", standalone=False
    )
    assert parsed is not None
    assert parsed.rules == ("stable-sort",)
    assert parsed.applies_to == 7
    assert parsed.justified


def test_parse_suppression_standalone_applies_to_next_line():
    parsed = parse_suppression(
        7, "# repro-lint: disable=stable-sort -- ties impossible here", standalone=True
    )
    assert parsed is not None
    assert parsed.applies_to == 8


def test_parse_suppression_multiple_rules():
    parsed = parse_suppression(
        1, "# repro-lint: disable=stable-sort, wallclock -- fixture", standalone=False
    )
    assert parsed is not None
    assert parsed.rules == ("stable-sort", "wallclock")


def test_parse_suppression_without_justification_is_unjustified():
    parsed = parse_suppression(1, "# repro-lint: disable=stable-sort", standalone=False)
    assert parsed is not None
    assert not parsed.justified


def test_parse_non_suppression_comment_returns_none():
    assert parse_suppression(1, "# a normal comment", standalone=False) is None


def test_extract_suppressions_skips_comments_inside_strings():
    source = 'TEXT = "# repro-lint: disable=stable-sort -- not a comment"\n'
    assert extract_suppressions(source, source.splitlines()) == []


# ---------------------------------------------------------------------------
# file collection and module naming
# ---------------------------------------------------------------------------


def test_module_name_for_walks_package_chain():
    path = FIXTURES / "core" / "tp_stable_sort.py"
    assert module_name_for(str(path)) == "repro.core.tp_stable_sort"
    assert module_name_for(str(FIXTURES / "core" / "__init__.py")) == "repro.core"


def test_module_name_for_loose_script_is_bare_stem(tmp_path):
    script = tmp_path / "bench_driver.py"
    script.write_text("import numpy as np\n")
    assert module_name_for(str(script)) == "bench_driver"


def test_iter_python_files_deduplicates_and_sorts(tmp_path):
    (tmp_path / "b.py").write_text("")
    (tmp_path / "a.py").write_text("")
    (tmp_path / "notes.txt").write_text("")
    files = iter_python_files([str(tmp_path), str(tmp_path / "a.py")])
    assert files == [str(tmp_path / "a.py"), str(tmp_path / "b.py")]


def test_syntax_error_becomes_a_finding(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def half(:\n")
    result = lint_paths([str(bad)])
    assert result.exit_code == 1
    assert [finding.rule for finding in result.findings] == ["syntax-error"]


# ---------------------------------------------------------------------------
# CLI exit-code contract
# ---------------------------------------------------------------------------


def test_cli_exit_zero_on_clean_file(capsys):
    code = main([str(FIXTURES / "core" / "nm_stable_sort.py")])
    assert code == 0
    assert "clean:" in capsys.readouterr().out


def test_cli_exit_one_on_findings(capsys):
    code = main([str(FIXTURES / "core" / "tp_stable_sort.py")])
    assert code == 1
    assert "stable-sort" in capsys.readouterr().out


def test_cli_exit_two_without_paths(capsys):
    assert main([]) == 2


def test_cli_exit_two_on_unknown_rule(capsys):
    code = main(["--select", "no-such-rule", str(FIXTURES / "core")])
    assert code == 2


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ("rng-discipline", "stable-sort", "bare-suppression"):
        assert rule in out


def test_cli_select_restricts_rules(capsys):
    code = main(["--select", "wallclock", str(FIXTURES / "core" / "tp_stable_sort.py")])
    assert code == 0  # stable-sort finding not reported when deselected


def test_cli_show_suppressed(capsys):
    code = main(
        ["--show-suppressed", str(FIXTURES / "core" / "nm_bare_suppression.py")]
    )
    assert code == 0
    assert "[suppressed:" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# reporters
# ---------------------------------------------------------------------------


def test_text_report_line_format():
    result = lint_paths([str(FIXTURES / "core" / "tp_wallclock.py")])
    text = render_text(result)
    first = text.splitlines()[0]
    path, line, col, rule = first.split(":")[:4]
    assert path.endswith("tp_wallclock.py")
    assert int(line) > 0 and int(col) >= 0
    assert rule.strip() == "wallclock"
    assert "found 1 finding(s)" in text


def test_json_report_schema():
    """Satellite: the machine-readable report keeps its versioned shape."""
    result = lint_paths([str(FIXTURES / "core" / "tp_bare_suppression.py")])
    report = json.loads(render_json(result))
    assert report["version"] == JSON_SCHEMA_VERSION
    assert report["tool"] == "repro.lint"
    assert set(report) == {
        "version",
        "tool",
        "files_checked",
        "rules_run",
        "findings",
        "suppressed",
        "summary",
    }
    assert report["files_checked"] == 1
    assert set(report["summary"]) == {"total", "suppressed", "by_rule"}
    assert report["summary"]["total"] == len(report["findings"]) > 0
    for finding in report["findings"]:
        assert {"rule", "path", "line", "col", "message", "suppressed"} <= set(finding)
        assert finding["suppressed"] is False
    # Suppressed findings carry their justification.
    clean = lint_paths([str(FIXTURES / "core" / "nm_bare_suppression.py")])
    report = json.loads(render_json(clean))
    (suppressed,) = report["suppressed"]
    assert suppressed["suppressed"] is True
    assert suppressed["justification"]


def test_cli_format_json_round_trips(tmp_path, capsys):
    code = main(["--format", "json", str(FIXTURES / "core" / "nm_stable_sort.py")])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["version"] == JSON_SCHEMA_VERSION
    assert report["summary"]["total"] == 0


def test_finding_to_dict_omits_absent_justification():
    finding = Finding(rule="wallclock", path="x.py", line=1, col=0, message="m")
    assert "justification" not in finding.to_dict()
    assert "justification" in finding.with_suppression("why").to_dict()


# ---------------------------------------------------------------------------
# whole-tree gates
# ---------------------------------------------------------------------------


def test_self_lint_src_is_clean():
    """`python -m repro.lint src` must stay clean at HEAD (the CI gate)."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", "src"],
        capture_output=True,
        text=True,
        env=_lint_env(),
        cwd=str(REPO_ROOT),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean:" in proc.stdout


def test_suppression_audit_every_disable_is_justified():
    """Satellite: no suppression in src/ hides a finding without a reason."""
    result = lint_paths([str(SRC)], select=["bare-suppression"])
    offenders = [
        f"{finding.path}:{finding.line}: {finding.message}"
        for finding in result.findings
    ]
    assert offenders == []


def test_suppression_audit_inventory():
    """Every suppression names a known rule and actually suppresses something.

    A suppression whose finding disappeared (code rewritten, rule tightened)
    is dead weight that misleadingly documents a violation; the tree-wide
    lint run must account one suppressed finding per suppression comment.
    """
    from repro.lint import known_rule_ids

    known = set(known_rule_ids())
    targets = set()
    for path in iter_python_files([str(SRC)]):
        source = Path(path).read_text(encoding="utf-8")
        for suppression in extract_suppressions(source, source.splitlines()):
            assert suppression.justified, f"{path}:{suppression.line} lacks -- why"
            unknown = set(suppression.rules) - known
            assert not unknown, f"{path}:{suppression.line} names {unknown}"
            targets.add((path, suppression.applies_to))
    result = lint_paths([str(SRC)])
    assert result.findings == []
    # One comment may silence several findings on its line, so compare
    # covered lines, not counts.
    covered = {(finding.path, finding.line) for finding in result.suppressed}
    dead = targets - covered
    assert not dead, f"suppressions that no longer suppress anything: {sorted(dead)}"


# ---------------------------------------------------------------------------
# mypy (strict subset) — runs when mypy is installed, e.g. in CI
# ---------------------------------------------------------------------------


@pytest.mark.skipif(
    importlib.util.find_spec("mypy") is None, reason="mypy not installed"
)
def test_mypy_strict_subset_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", "mypy.ini"],
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
