"""``wallclock``: wall-clock reads stay inside the observability layer.

``time.time()`` / ``datetime.now()`` in algorithm or driver code makes
results depend on when they ran, which breaks seeded replay and
machine-diffable experiment rows.  Only :mod:`repro.obs` (whose job is
timing) and the ``benchmarks/`` scripts may read the wall clock;
``time.perf_counter`` is always fine (a duration, not a timestamp, and
only ever observed — never fed back into algorithm state).

The event-loop clock (``loop.time()``) gets the same treatment with its
own containment: only :mod:`repro.net.transport` may read it (per-RPC
latency is a transport property).  Protocol, runner or detector code
timing itself off the loop clock would couple seeded behaviour to
scheduling jitter — a deadline is a loop timer (``loop.call_later``, as
the RPC client arms one per attempt), latency measurement belongs to the
transport.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.lint.callgraph import dotted_name
from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

#: Dotted-name suffixes that read the wall clock.
_WALLCLOCK_SUFFIXES = (
    "time.time",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
)


def _matches_suffix(dotted: str) -> bool:
    for suffix in _WALLCLOCK_SUFFIXES:
        if dotted == suffix or dotted.endswith("." + suffix):
            return True
    return False


@register
class WallclockRule(Rule):
    id = "wallclock"
    description = (
        "no time.time()/datetime.now() outside repro.obs and benchmarks/"
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        if ctx.in_package("repro.obs"):
            return False
        path_parts = ctx.path.replace("\\", "/").split("/")
        if "benchmarks" in path_parts:
            return False
        return True

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        findings: List[Finding] = []
        # Names bound directly to wall-clock callables by `from` imports.
        direct = {
            local
            for local, target in ctx.imports.items()
            if target in ("time.time", "datetime.datetime.now")
        }
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "time" and not node.level:
                    for alias in node.names:
                        if alias.name == "time":
                            findings.append(
                                self.finding(
                                    ctx,
                                    node,
                                    "importing time.time outside repro.obs: "
                                    "wall-clock reads break seeded replay "
                                    "(use time.perf_counter for durations)",
                                )
                            )
            elif isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if dotted is None:
                    if isinstance(node.func, ast.Name) and node.func.id in direct:
                        findings.append(self._finding_for(ctx, node, node.func.id))
                    continue
                if _matches_suffix(dotted):
                    findings.append(self._finding_for(ctx, node, dotted))
                elif (
                    (dotted == "loop.time" or dotted.endswith("loop.time"))
                    and ctx.module != "repro.net.transport"
                ):
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"{dotted}() reads the event-loop clock outside "
                            "repro.net.transport; RPC latency is measured "
                            "by the transport — arm a loop timer "
                            "(loop.call_later) for a deadline instead of "
                            "hand-rolled clock math",
                        )
                    )
        return iter(findings)

    def _finding_for(self, ctx: ModuleContext, node: ast.Call, name: str) -> Finding:
        return self.finding(
            ctx,
            node,
            f"{name}() reads the wall clock outside repro.obs/benchmarks; "
            "timestamps make seeded runs non-replayable (use "
            "time.perf_counter for durations, or route timing through "
            "repro.obs)",
        )


__all__ = ["WallclockRule"]
