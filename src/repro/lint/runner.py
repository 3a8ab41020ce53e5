"""Orchestration: collect files, run rules, apply suppressions."""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, all_rules

#: Rule id attached to files that fail to parse.
SYNTAX_ERROR_RULE = "syntax-error"


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    rules_run: List[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted, de-duplicated .py file list."""
    seen: Dict[str, None] = {}
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in ("__pycache__", ".git")
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        seen[os.path.join(dirpath, name)] = None
        elif path.endswith(".py"):
            seen[path] = None
    return sorted(seen)


def module_name_for(path: str) -> str:
    """The dotted module name of ``path``, by walking ``__init__.py`` parents.

    Files outside any package resolve to their bare stem, which keeps the
    package-scoped rules (``stable-sort`` and friends) inert on loose
    scripts such as the benchmark drivers.
    """
    abspath = os.path.abspath(path)
    directory, filename = os.path.split(abspath)
    stem = os.path.splitext(filename)[0]
    parts: List[str] = [] if stem == "__init__" else [stem]
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, package = os.path.split(directory)
        parts.insert(0, package)
        if not package:
            break
    return ".".join(parts) if parts else stem


def _select_rules(
    select: Optional[Sequence[str]], ignore: Optional[Sequence[str]]
) -> List[Rule]:
    rules = all_rules()
    if select:
        wanted = set(select)
        unknown = wanted - {rule.id for rule in rules}
        if unknown:
            raise ValueError(f"unknown rule(s): {', '.join(sorted(unknown))}")
        rules = [rule for rule in rules if rule.id in wanted]
    if ignore:
        dropped = set(ignore)
        rules = [rule for rule in rules if rule.id not in dropped]
    return rules


def _parse_files(
    files: Sequence[str],
) -> Tuple[List[Tuple[str, str, str, ast.Module]], List[Finding]]:
    parsed: List[Tuple[str, str, str, ast.Module]] = []
    errors: List[Finding] = []
    for path in files:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            tree = ast.parse(source, filename=path)
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            line = getattr(exc, "lineno", None) or 1
            errors.append(
                Finding(
                    rule=SYNTAX_ERROR_RULE,
                    path=path,
                    line=int(line),
                    col=0,
                    message=f"could not parse file: {exc}",
                )
            )
            continue
        parsed.append((path, module_name_for(path), source, tree))
    return parsed, errors


def _apply_suppressions(
    ctx: ModuleContext, findings: Iterable[Finding]
) -> Tuple[List[Finding], List[Finding]]:
    by_line: Dict[int, List[int]] = {}
    for position, suppression in enumerate(ctx.suppressions):
        by_line.setdefault(suppression.applies_to, []).append(position)
    active: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in findings:
        matched = None
        if finding.rule != "bare-suppression":
            for position in by_line.get(finding.line, []):
                suppression = ctx.suppressions[position]
                if finding.rule in suppression.rules and suppression.justified:
                    matched = suppression
                    break
        if matched is None:
            active.append(finding)
        else:
            suppressed.append(finding.with_suppression(matched.justification))
    return active, suppressed


def lint_paths(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> LintResult:
    """Lint every Python file under ``paths`` and return a :class:`LintResult`."""
    files = iter_python_files(paths)
    parsed, errors = _parse_files(files)
    rules = _select_rules(select, ignore)
    result = LintResult(
        files_checked=len(files), rules_run=[rule.id for rule in rules]
    )
    result.findings.extend(errors)
    for path, module, source, tree in parsed:
        ctx = ModuleContext.build(path, module, source, tree)
        raw: List[Finding] = []
        for rule in rules:
            if rule.applies_to(ctx):
                raw.extend(rule.check(ctx))
        active, suppressed = _apply_suppressions(ctx, raw)
        result.findings.extend(active)
        result.suppressed.extend(suppressed)
    result.findings.sort(key=Finding.sort_key)
    result.suppressed.sort(key=Finding.sort_key)
    return result


__all__ = [
    "LintResult",
    "SYNTAX_ERROR_RULE",
    "iter_python_files",
    "lint_paths",
    "module_name_for",
]
