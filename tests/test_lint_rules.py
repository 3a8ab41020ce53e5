"""Golden-fixture tests for every lint rule.

Each rule ships a ``tp_<rule>.py`` true-positive fixture (must make the
linter exit non-zero with a finding of exactly that rule) and an
``nm_<rule>.py`` near-miss fixture (skirts the violation but stays
clean).  The true positives are additionally driven through the real
``python -m repro.lint`` CLI so the non-zero exit code the CI gate
relies on is proven end to end, not just via the library API.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures" / "repro"

#: rule id -> (true-positive fixture, near-miss fixture), relative to FIXTURES.
RULE_FIXTURES = {
    "rng-discipline": ("core/tp_rng_unseeded.py", "core/nm_rng_seeded.py"),
    "private-stream": ("core/tp_private_stream.py", "core/nm_private_stream.py"),
    "stable-sort": ("core/tp_stable_sort.py", "core/nm_stable_sort.py"),
    "shared-view-write": (
        "core/tp_shared_view_write.py",
        "core/nm_shared_view_write.py",
    ),
    "wallclock": ("core/tp_wallclock.py", "core/nm_wallclock.py"),
    "bare-suppression": (
        "core/tp_bare_suppression.py",
        "core/nm_bare_suppression.py",
    ),
    "async-private-stream": (
        "net/tp_async_private_stream.py",
        "net/nm_async_private_stream.py",
    ),
    "no-unawaited-send": (
        "net/tp_no_unawaited_send.py",
        "net/nm_no_unawaited_send.py",
    ),
    "no-blocking-in-loop": (
        "net/tp_no_blocking_in_loop.py",
        "net/nm_no_blocking_in_loop.py",
    ),
    "no-pickle-in-net": (
        "net/tp_no_pickle_in_net.py",
        "net/nm_no_pickle_in_net.py",
    ),
}


def _lint_env() -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    return env


@pytest.mark.parametrize("rule", sorted(RULE_FIXTURES))
def test_true_positive_fixture_is_flagged(rule):
    path = FIXTURES / RULE_FIXTURES[rule][0]
    result = lint_paths([str(path)])
    assert result.exit_code != 0
    assert rule in {finding.rule for finding in result.findings}


@pytest.mark.parametrize("rule", sorted(RULE_FIXTURES))
def test_near_miss_fixture_is_clean(rule):
    path = FIXTURES / RULE_FIXTURES[rule][1]
    result = lint_paths([str(path)])
    assert result.exit_code == 0
    assert result.findings == []


@pytest.mark.parametrize("rule", sorted(RULE_FIXTURES))
def test_true_positive_fails_through_the_cli(rule):
    """The acceptance gate: each rule's fixture drives a non-zero CLI exit."""
    path = FIXTURES / RULE_FIXTURES[rule][0]
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", str(path)],
        capture_output=True,
        text=True,
        env=_lint_env(),
        cwd=str(REPO_ROOT),
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert rule in proc.stdout


def test_every_registered_rule_has_fixtures():
    from repro.lint import known_rule_ids

    assert set(known_rule_ids()) == set(RULE_FIXTURES)


def test_true_positive_flags_only_its_own_rule():
    """Fixtures are minimal: no true positive trips an unrelated rule.

    ``tp_bare_suppression`` is the deliberate exception — its unjustified
    suppression is *not honoured*, so the underlying stable-sort finding
    surfaces alongside the meta-rule's.
    """
    for rule, (tp, _) in RULE_FIXTURES.items():
        result = lint_paths([str(FIXTURES / tp)])
        expected = {rule}
        if rule == "bare-suppression":
            expected = {"bare-suppression", "stable-sort"}
        assert {finding.rule for finding in result.findings} == expected


def test_wallclock_rule_is_inert_inside_repro_obs():
    """Scoping near miss: time.time() inside repro.obs is the obs layer's job."""
    result = lint_paths([str(FIXTURES / "obs" / "nm_wallclock_scoped.py")])
    assert result.exit_code == 0


def test_wallclock_flags_loop_time_outside_transport():
    """The loop clock is a wall clock too: loop.time() in runner/protocol
    code is flagged by the wallclock rule (RULE_FIXTURES holds the rule's
    canonical time.time fixture; loop.time has its own scoped pair)."""
    result = lint_paths([str(FIXTURES / "net" / "tp_wallclock_loop_time.py")])
    assert result.exit_code != 0
    assert {finding.rule for finding in result.findings} == {"wallclock"}


def test_wallclock_allows_loop_time_inside_net_transport():
    """Containment: repro.net.transport is the one module that may read
    loop.time() — per-RPC latency is a transport property."""
    result = lint_paths([str(FIXTURES / "net" / "transport.py")])
    assert result.exit_code == 0
    assert result.findings == []


def test_no_unawaited_send_flags_a_bare_rpc_wave():
    """A round's wave is a coroutine too: a bare ``rpc.call_all(...)``
    inside repro.net is flagged, and only that line."""
    result = lint_paths([str(FIXTURES / "net" / "tp_no_unawaited_send_wave.py")])
    assert result.exit_code != 0
    assert [(finding.rule, finding.line) for finding in result.findings] == [
        ("no-unawaited-send", 6)
    ]


def test_no_unawaited_send_passes_an_awaited_rpc_wave():
    result = lint_paths([str(FIXTURES / "net" / "nm_no_unawaited_send_wave.py")])
    assert result.exit_code == 0
    assert result.findings == []


def test_no_pickle_in_net_catches_dynamic_and_aliased_imports():
    """``importlib.import_module("marshal")`` and ``from shelve import
    open as ...`` are flagged, and so is each call through them."""
    result = lint_paths([str(FIXTURES / "net" / "tp_no_pickle_in_net_dynamic.py")])
    assert result.exit_code != 0
    flagged = [finding for finding in result.findings
               if finding.rule == "no-pickle-in-net"]
    assert len(flagged) == 3
    assert {finding.rule for finding in result.findings} == {"no-pickle-in-net"}


def test_no_pickle_in_net_is_inert_outside_repro_net():
    """Scoping near miss: pickle outside repro.net is not network input."""
    result = lint_paths([str(FIXTURES / "core" / "nm_no_pickle_outside_net.py")])
    assert result.exit_code == 0
    assert result.findings == []


def test_justified_suppression_is_recorded_not_dropped():
    result = lint_paths([str(FIXTURES / "core" / "nm_bare_suppression.py")])
    assert result.exit_code == 0
    assert [finding.rule for finding in result.suppressed] == ["stable-sort"]
    assert result.suppressed[0].suppressed is True
    assert "justified suppression" in (result.suppressed[0].justification or "")


def test_unjustified_suppression_is_not_honoured():
    result = lint_paths([str(FIXTURES / "core" / "tp_bare_suppression.py")])
    rules = [finding.rule for finding in result.findings]
    # The stable-sort finding survives, the meta-rule fires twice (bare
    # suppression + unknown rule name), nothing lands in .suppressed.
    assert rules.count("stable-sort") == 1
    assert rules.count("bare-suppression") == 2
    assert result.suppressed == []
