"""Shared low-level utilities: seeded randomness, math helpers, statistics."""

from repro.utils.inputs import node_values
from repro.utils.rand import (
    RandomSource,
    draw_targets_excluding,
    resample_forbidden_targets,
    spawn_rngs,
)
from repro.utils.mathutils import (
    ceil_log2,
    ceil_pow2,
    clamp,
    is_power_of_two,
    log_base,
    message_bits_for_value,
)
from repro.utils.stats import (
    empirical_quantile,
    quantile_of_value,
    rank_error,
    rank_of_value,
    value_at_rank,
)

__all__ = [
    "node_values",
    "RandomSource",
    "draw_targets_excluding",
    "resample_forbidden_targets",
    "spawn_rngs",
    "ceil_log2",
    "ceil_pow2",
    "clamp",
    "is_power_of_two",
    "log_base",
    "message_bits_for_value",
    "empirical_quantile",
    "quantile_of_value",
    "rank_error",
    "rank_of_value",
    "value_at_rank",
]
