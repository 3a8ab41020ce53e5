"""``private-stream``: replayable subsystems must own their stream.

:class:`repro.faults.FaultInjector` and the
:class:`repro.topology.dynamic.TopologyProcess` subclasses document a
replay contract: ``begin()`` replays the identical schedule on every
run, which is what keeps vectorized and asyncio executions bit-identical
and seeded chaos replayable.  That only works if the subsystem derives a
private ``SeedSequence`` at construction time and rebuilds its generator
from it — storing the *caller's* generator (or drawing from it during
``__init__``) entangles the private schedule with the caller's stream
position, so the second run replays a different schedule.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

#: Classes bound by the private-stream contract, by their own name ...
_CONTRACT_CLASS_NAMES = frozenset({"FaultInjector"})
#: ... or by the base class they derive from.
_CONTRACT_BASE_NAMES = frozenset({"TopologyProcess"})

#: Constructor parameters that carry the caller's randomness.
_RNG_PARAM_NAMES = frozenset({"rng", "seed", "generator", "gen"})

#: ``self.<attr>`` names under which storing a raw generator is flagged.
_GENERATOR_ATTRS = frozenset(
    {"rng", "_rng", "gen", "_gen", "generator", "_generator"}
)

#: Draw methods: calling these on the caller's rng inside ``__init__``
#: consumes the caller's stream during construction.
_DRAW_METHODS = frozenset(
    {
        "random",
        "integers",
        "choice",
        "shuffle",
        "permutation",
        "normal",
        "uniform",
        "standard_normal",
        "exponential",
    }
)


def _base_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_contract_class(node: ast.ClassDef) -> bool:
    if node.name in _CONTRACT_CLASS_NAMES:
        return True
    for base in node.bases:
        if _base_name(base) in _CONTRACT_BASE_NAMES:
            return True
    return False


@register
class PrivateStreamRule(Rule):
    id = "private-stream"
    description = (
        "FaultInjector / TopologyProcess subclasses must spawn their private "
        "stream from a SeedSequence, never store a caller-passed generator"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef) and _is_contract_class(node):
                findings.extend(self._check_class(ctx, node))
        return iter(findings)

    def _check_class(
        self, ctx: ModuleContext, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        init = next(
            (
                item
                for item in cls.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name == "__init__"
            ),
            None,
        )
        if init is None:
            return iter(())
        rng_params: Set[str] = {
            arg.arg
            for arg in list(init.args.posonlyargs)
            + list(init.args.args)
            + list(init.args.kwonlyargs)
            if arg.arg in _RNG_PARAM_NAMES
        }
        if not rng_params:
            return iter(())
        findings: List[Finding] = []
        for node in ast.walk(init):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                value = node.value
                if value is None:
                    continue
                for target in targets:
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    findings.extend(
                        self._check_store(ctx, cls, node, target.attr, value, rng_params)
                    )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in rng_params
                    and func.attr in _DRAW_METHODS
                ):
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"'{cls.name}.__init__' draws from the caller's "
                            f"'{func.value.id}' stream; a private-stream "
                            "subsystem must derive a SeedSequence instead so "
                            "begin() replays the identical schedule",
                        )
                    )
        return iter(findings)

    def _check_store(
        self,
        ctx: ModuleContext,
        cls: ast.ClassDef,
        node: ast.AST,
        attr: str,
        value: ast.expr,
        rng_params: Set[str],
    ) -> Iterator[Finding]:
        if (
            isinstance(value, ast.Name)
            and value.id in rng_params
            and attr in _GENERATOR_ATTRS
        ):
            return iter(
                [
                    self.finding(
                        ctx,
                        node,
                        f"'{cls.name}' stores the caller-passed "
                        f"'{value.id}' as self.{attr}: the private replay "
                        "contract requires deriving a SeedSequence and "
                        "rebuilding the generator in begin()",
                    )
                ]
            )
        if (
            isinstance(value, ast.Attribute)
            and value.attr == "generator"
            and isinstance(value.value, ast.Name)
            and value.value.id in rng_params
        ):
            return iter(
                [
                    self.finding(
                        ctx,
                        node,
                        f"'{cls.name}' stores the caller's generator object "
                        f"(self.{attr} = {value.value.id}.generator); derive "
                        "a SeedSequence (e.g. rng.seed_sequence) instead",
                    )
                ]
            )
        return iter(())


__all__ = ["PrivateStreamRule"]
