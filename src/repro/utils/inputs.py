"""Validation of the per-node value arrays the quantile entry points take."""

from __future__ import annotations

import operator
from typing import Sequence, Union

import numpy as np

from repro.exceptions import ConfigurationError


def node_values(
    values: Union[Sequence[float], np.ndarray],
    min_nodes: int = 2,
    lanes: bool = False,
) -> np.ndarray:
    """One float value per node, checked: a 1-d float array.

    Raises :class:`~repro.exceptions.ConfigurationError` when ``values`` is
    not one-dimensional, has fewer than ``min_nodes`` entries, or holds a
    NaN or infinity — a non-finite value has no rank, so no quantile
    answer over it could be honest.  ``lanes=True`` also accepts an
    ``(n, L)`` matrix of ``L`` value lanes (the multi-lane tournaments).
    """
    array = np.asarray(values, dtype=float)
    if array.ndim != 1 and not (lanes and array.ndim == 2):
        shape = "a 1-d array or an (n, lanes) matrix" if lanes else "a 1-d array"
        raise ConfigurationError(f"values must be {shape}, got shape {array.shape}")
    if array.shape[0] < min_nodes:
        raise ConfigurationError(
            f"values must have at least {min_nodes} entries, got {array.shape[0]}"
        )
    if not np.isfinite(array).all():
        raise ConfigurationError("values must be finite (no NaN or infinity)")
    return array


def integral(value: object, name: str, kind: str = "an integer") -> int:
    """``value`` as an ``int``: integers and integral floats pass; bools,
    fractions and non-numbers raise :class:`ConfigurationError`."""
    if not isinstance(value, (bool, np.bool_)):
        if isinstance(value, (float, np.floating)) and float(value).is_integer():
            return int(value)
        try:
            return operator.index(value)  # type: ignore[arg-type]
        except TypeError:
            pass
    raise ConfigurationError(f"{name} must be {kind}, got {value!r}")
