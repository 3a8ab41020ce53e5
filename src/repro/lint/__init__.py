"""repro.lint — AST-based determinism & contract linter.

Every replayability guarantee the reproduction advertises (asyncio ≡
vectorized engine equivalence, sha256 stream pins, bit-for-bit fault
replay) rests on coding conventions: seeded private RNG streams, stable
sorts, and read-only shared-memory views.  This package enforces those
conventions statically:

* a visitor/rule framework over :mod:`ast` with per-line suppression
  comments (``# repro-lint: disable=<rule> -- <justification>``);
* repo-specific rules: ``rng-discipline``, ``private-stream``,
  ``stable-sort``, ``shared-view-write``, ``wallclock``, the asyncio
  rules (``async-private-stream``, ``no-unawaited-send``,
  ``no-blocking-in-loop``) and the ``bare-suppression`` meta-rule;
* text and machine-diffable JSON reporters;
* a CLI (``python -m repro.lint src``) exiting non-zero on findings.

See the README's "Static analysis & invariants" section for the mapping
from each rule to the guarantee it protects.
"""

from __future__ import annotations

from repro.lint.findings import Finding
from repro.lint.registry import RULES, Rule, all_rules, get_rule, known_rule_ids
from repro.lint.reporters import (
    JSON_SCHEMA_VERSION,
    render_json,
    render_text,
    report_dict,
)
from repro.lint.runner import LintResult, iter_python_files, lint_paths, module_name_for
from repro.lint.suppressions import Suppression

__all__ = [
    "Finding",
    "JSON_SCHEMA_VERSION",
    "LintResult",
    "RULES",
    "Rule",
    "Suppression",
    "all_rules",
    "get_rule",
    "iter_python_files",
    "known_rule_ids",
    "lint_paths",
    "module_name_for",
    "render_json",
    "render_text",
    "report_dict",
]
