"""Name resolution helpers shared by the rules.

:func:`build_import_map` maps a module's local names to the dotted targets
they were imported as, and :func:`dotted_name` spells an attribute chain
as ``a.b.c`` — together enough for a rule to recognise e.g.
``np.random.default_rng`` under any import alias.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional


def build_import_map(module: str, tree: ast.Module) -> Dict[str, str]:
    """Map local names to the dotted targets they were imported as.

    ``import a.b as c``        -> ``c: a.b``
    ``import a.b``             -> ``a: a`` (attribute chains resolve onward)
    ``from a.b import f``      -> ``f: a.b.f``
    ``from a.b import f as g`` -> ``g: a.b.f``
    ``from . import x``        -> resolved against ``module``'s package.
    """
    package_parts = module.split(".")[:-1]
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    imports[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    imports.setdefault(head, head)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base_parts = package_parts
                if node.level > 1:
                    cut = node.level - 1
                    base_parts = package_parts[:-cut] if cut else package_parts
                base = ".".join(base_parts)
                if node.module:
                    base = f"{base}.{node.module}" if base else node.module
            else:
                base = node.module or ""
            if not base:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{base}.{alias.name}"
    return imports


def _dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def dotted_name(node: ast.AST) -> Optional[str]:
    """Public helper: the full ``a.b.c`` dotted name of an expression."""
    return _dotted(node)


__all__ = [
    "build_import_map",
    "dotted_name",
]
