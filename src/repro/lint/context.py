"""Per-module analysis context shared by every rule."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.lint.callgraph import build_import_map
from repro.lint.suppressions import Suppression, extract_comments, extract_suppressions


@dataclass
class ModuleContext:
    """Everything a rule may need to know about one source file.

    The context carries the parsed tree, raw source, comment/suppression
    tables and the module's import aliases.
    """

    path: str
    module: str
    tree: ast.Module
    source: str
    lines: List[str] = field(default_factory=list)
    comments: Dict[int, str] = field(default_factory=dict)
    suppressions: List[Suppression] = field(default_factory=list)
    imports: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def build(
        cls, path: str, module: str, source: str, tree: ast.Module
    ) -> "ModuleContext":
        lines = source.splitlines()
        return cls(
            path=path,
            module=module,
            tree=tree,
            source=source,
            lines=lines,
            comments=extract_comments(source),
            suppressions=extract_suppressions(source, lines),
            imports=build_import_map(module, tree),
        )

    @property
    def numpy_aliases(self) -> Set[str]:
        """Local names bound to the ``numpy`` module (``np`` by convention)."""
        return {
            local
            for local, target in self.imports.items()
            if target == "numpy"
        }

    @property
    def numpy_random_aliases(self) -> Set[str]:
        """Local names bound to the ``numpy.random`` module."""
        return {
            local
            for local, target in self.imports.items()
            if target == "numpy.random"
        }

    def in_package(self, *prefixes: str) -> bool:
        """Whether this module lives under any of the dotted ``prefixes``."""
        for prefix in prefixes:
            if self.module == prefix or self.module.startswith(prefix + "."):
                return True
        return False


__all__ = ["ModuleContext"]
