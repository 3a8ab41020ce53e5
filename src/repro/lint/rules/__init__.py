"""Rule modules; importing this package registers every rule.

Each submodule defines one rule class decorated with
:func:`repro.lint.registry.register`, so ``import repro.lint.rules`` is
all the runner needs to populate the registry.
"""

from __future__ import annotations

from repro.lint.rules import (  # noqa: F401  (imports register the rules)
    async_private_stream,
    bare_suppression,
    no_blocking_in_loop,
    no_pickle_in_net,
    no_unawaited_send,
    private_stream,
    rng_discipline,
    shared_view_write,
    stable_sort,
    wallclock,
)

__all__ = [
    "async_private_stream",
    "bare_suppression",
    "no_blocking_in_loop",
    "no_pickle_in_net",
    "no_unawaited_send",
    "private_stream",
    "rng_discipline",
    "shared_view_write",
    "stable_sort",
    "wallclock",
]
