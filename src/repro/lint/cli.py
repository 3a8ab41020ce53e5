"""``python -m repro.lint`` command-line interface.

Exit codes: 0 clean, 1 findings, 2 usage error — so the linter can gate
CI the same way the test suite does.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.lint.registry import all_rules
from repro.lint.reporters import render_json, render_text
from repro.lint.runner import lint_paths


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "AST-based determinism & contract linter for the repro package: "
            "seeded-RNG discipline, private replayable streams, stable "
            "sorts, read-only shared views, wall-clock containment and "
            "asyncio hygiene."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (typically: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids to run exclusively",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also print findings silenced by justified suppressions",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    return parser


def _split(option: Optional[str]) -> Optional[List[str]]:
    if option is None:
        return None
    parts = [part.strip() for part in option.split(",") if part.strip()]
    return parts or None


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id:<20} {rule.description}")
        return 0

    if not args.paths:
        parser.print_usage(sys.stderr)
        print("error: no paths given (try: python -m repro.lint src)", file=sys.stderr)
        return 2

    try:
        result = lint_paths(
            args.paths, select=_split(args.select), ignore=_split(args.ignore)
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result, show_suppressed=args.show_suppressed))
    return result.exit_code


__all__ = ["build_parser", "main"]
