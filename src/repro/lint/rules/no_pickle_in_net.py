"""``no-pickle-in-net``: nothing in ``repro.net`` touches pickle.

Unpickling runs whatever code the bytes name, so one peer able to write
to a node's socket could run code in that node.  The TCP transport speaks
the fixed binary codec of :mod:`repro.net.codec`; this rule keeps
``pickle``, ``marshal`` and ``shelve`` out of the package altogether: no
import (static, or ``importlib.import_module`` / ``__import__`` by name)
and no call through a name bound to one of them.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

from repro.lint.callgraph import dotted_name
from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

#: Top-level modules that deserialize arbitrary objects.
_BANNED = frozenset({"pickle", "_pickle", "marshal", "shelve"})

#: Calls that import a module named by their first argument.
_DYNAMIC_IMPORTS = frozenset({"importlib.import_module", "__import__"})


def _banned_root(dotted: str) -> Optional[str]:
    root = dotted.split(".")[0]
    return root if root in _BANNED else None


@register
class NoPickleInNetRule(Rule):
    id = "no-pickle-in-net"
    description = (
        "no pickle / marshal / shelve import or call inside repro.net; "
        "network input is decoded by repro.net.codec, never unpickled"
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_package("repro.net")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    module = _banned_root(alias.name)
                    if module is not None:
                        findings.append(self._finding_for(ctx, node, module))
            elif isinstance(node, ast.ImportFrom):
                if not node.level and node.module:
                    module = _banned_root(node.module)
                    if module is not None:
                        findings.append(self._finding_for(ctx, node, module))
            elif isinstance(node, ast.Call):
                module = self._called_module(ctx, node)
                if module is not None:
                    findings.append(self._finding_for(ctx, node, module))
        return iter(findings)

    def _called_module(self, ctx: ModuleContext, node: ast.Call) -> Optional[str]:
        """The banned module a call goes through or imports, if any."""
        dotted = dotted_name(node.func)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        target = ctx.imports.get(head, head)
        resolved = f"{target}.{rest}" if rest else target
        if resolved in _DYNAMIC_IMPORTS:
            if node.args and isinstance(node.args[0], ast.Constant):
                name = node.args[0].value
                if isinstance(name, str):
                    return _banned_root(name)
            return None
        return _banned_root(resolved)

    def _finding_for(self, ctx: ModuleContext, node: ast.AST, module: str) -> Finding:
        return self.finding(
            ctx,
            node,
            f"{module} inside repro.net: deserializing network input with "
            f"{module} runs whatever code the bytes name; encode frames "
            "with repro.net.codec",
        )


__all__ = ["NoPickleInNetRule"]
