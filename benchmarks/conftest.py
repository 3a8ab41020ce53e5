"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the E1–E12 experiment tables (see the
README's "Layout"; reduced parameters so the whole suite stays fast) and
attaches the headline shape numbers to ``benchmark.extra_info`` so they are
recorded in pytest-benchmark's output alongside the timings.
"""

from __future__ import annotations

import sys
from pathlib import Path

# Allow running the benchmarks without installing the package first.
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:  # pragma: no cover - environment dependent
    sys.path.insert(0, str(SRC))


def record_rows(benchmark, rows, keys):
    """Attach selected columns of the experiment rows to the benchmark report."""
    for index, row in enumerate(rows):
        for key in keys:
            if key in row:
                benchmark.extra_info[f"row{index}_{key}"] = row[key]
