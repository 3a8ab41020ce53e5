"""``no-unawaited-send``: coroutine sends must be awaited (or gathered).

A bare ``rpc.call(...)`` statement in asyncio code creates a coroutine
object and throws it away: nothing is sent, no error surfaces beyond a
"never awaited" warning that CI output swallows, and the protocol silently
loses a message.  Unlike a forgotten return value this is always a bug.

Two patterns are flagged, as *statements* whose value is discarded:

* anywhere in ``repro``: a bare call to a function defined with
  ``async def`` in the same module;
* inside :mod:`repro.net`: a bare method call whose name is one of the
  backend's coroutine send/serve verbs (``call``, ``call_all``,
  ``run_round``) — cross-module sends the first pattern cannot see.

Scheduling the coroutine on purpose (``asyncio.create_task``, ``gather``,
``await``) never matches: those consume the coroutine.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

#: Coroutine method names on the repro.net surfaces (RpcClient.call,
#: RpcClient.call_all — a round's wave —, Transport.call,
#: SwimFailureDetector.run_round).
_NET_SEND_METHODS = ("call", "call_all", "run_round")


def _local_async_defs(tree: ast.Module) -> Set[str]:
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.AsyncFunctionDef)
    }


@register
class NoUnawaitedSendRule(Rule):
    id = "no-unawaited-send"
    description = (
        "coroutine RPC/send calls must be awaited, gathered or scheduled — "
        "a bare call discards the coroutine and sends nothing"
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_package("repro")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        async_defs = _local_async_defs(ctx.tree)
        in_net = ctx.in_package("repro.net")
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            # A statement of the form `f(...)` whose result is discarded.
            if not isinstance(node, ast.Expr) or not isinstance(
                node.value, ast.Call
            ):
                continue
            call = node.value
            func = call.func
            if isinstance(func, ast.Name) and func.id in async_defs:
                findings.append(
                    self.finding(
                        ctx,
                        call,
                        f"{func.id}(...) is an async def; calling it without "
                        "await discards the coroutine and nothing runs",
                    )
                )
            elif (
                in_net
                and isinstance(func, ast.Attribute)
                and func.attr in _NET_SEND_METHODS
            ):
                findings.append(
                    self.finding(
                        ctx,
                        call,
                        f".{func.attr}(...) is a coroutine send on the net "
                        "surface; a bare call discards the coroutine — "
                        "await it, gather it, or create_task it",
                    )
                )
        return iter(findings)


__all__ = ["NoUnawaitedSendRule"]
