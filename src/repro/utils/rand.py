"""Seeded randomness helpers.

All stochastic components of the library draw their randomness from a
:class:`RandomSource`, a thin wrapper around :class:`numpy.random.Generator`
that supports deterministic child-stream spawning.  Experiments that need
independent repetitions spawn one child per trial so that trials are
reproducible individually and insensitive to the order in which they run.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Union

import numpy as np

SeedLike = Union[int, np.random.SeedSequence, "RandomSource", None]


def resample_forbidden_targets(
    source: "RandomSource",
    targets: np.ndarray,
    forbidden: np.ndarray,
    n: int,
) -> np.ndarray:
    """Re-draw, in place, every entry of ``targets`` equal to ``forbidden``.

    The shared masked-re-draw kernel behind every "uniform partner that is
    not myself" draw in the library: an already-drawn uniform ``targets``
    array is compared against ``forbidden`` (same shape, or broadcastable to
    it) and colliding entries are re-drawn in vectorized batches until none
    remain.  Each pass re-draws only the colliding entries with a single
    ``integers`` call, so the expected number of passes is constant
    (collisions happen with probability ``1/n``).

    This replaces the scalar "re-draw while the target equals the node"
    rejection loops that used to be re-implemented at every call site.
    The draw order — one full-size draw by the caller, then masked
    re-draws — is byte-for-byte the historical partner stream, so seeded
    runs through :func:`repro.topology.sampler.draw_uniform_round_partners`
    and friends are unchanged.
    """
    if n < 2:
        raise ValueError("need at least 2 possible targets to exclude one")
    forbidden = np.broadcast_to(forbidden, targets.shape)
    # One full compare, then only the colliding flat (C-order) indices are
    # tracked between passes instead of re-comparing the whole block.
    # C order is the order a boolean-mask assignment visits, so every
    # re-draw lands on the same entry as the historical masked loop.
    bad = np.flatnonzero(targets == forbidden)
    while bad.size:
        targets.flat[bad] = source.integers(0, n, size=bad.size)
        bad = bad[targets.flat[bad] == forbidden.flat[bad]]
    return targets


def draw_targets_excluding(
    source: "RandomSource", n: int, forbidden: np.ndarray
) -> np.ndarray:
    """Uniform targets in ``[0, n)``, one per ``forbidden`` entry, avoiding it.

    Vectorized batch draw used by token pushes and partner selection: draws
    ``forbidden.shape`` uniform targets and rejection-resamples collisions
    via :func:`resample_forbidden_targets` (a masked re-draw, not a scalar
    ``while`` loop).
    """
    forbidden = np.asarray(forbidden)
    targets = source.integers(0, n, size=forbidden.shape)
    return resample_forbidden_targets(source, targets, forbidden, n)


class RandomSource:
    """A reproducible source of randomness with cheap child spawning.

    Parameters
    ----------
    seed:
        Any of ``None`` (non-deterministic), an integer, a numpy
        ``SeedSequence`` or another :class:`RandomSource` (in which case a
        child stream of that source is used).
    """

    def __init__(self, seed: SeedLike = None) -> None:
        if isinstance(seed, RandomSource):
            self._seq = seed._seq.spawn(1)[0]
        elif isinstance(seed, np.random.SeedSequence):
            self._seq = seed
        else:
            self._seq = np.random.SeedSequence(seed)
        self._generator = np.random.default_rng(self._seq)

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator."""
        return self._generator

    @property
    def seed_sequence(self) -> np.random.SeedSequence:
        """The seed sequence this source was built from.

        Re-creating a :class:`RandomSource` from this sequence replays the
        stream from its start — which is how stateful components (e.g.
        :class:`repro.topology.dynamic.TopologyProcess`) reproduce the same
        schedule across repeated runs.
        """
        return self._seq

    def spawn(self, count: int) -> List["RandomSource"]:
        """Return ``count`` independent child sources."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return [RandomSource(seq) for seq in self._seq.spawn(count)]

    def child(self) -> "RandomSource":
        """Return a single independent child source."""
        return self.spawn(1)[0]

    # -- convenience passthroughs -------------------------------------------------
    def integers(self, low: int, high: Optional[int] = None, size=None) -> np.ndarray:
        return self._generator.integers(low, high, size=size)

    def random(self, size=None):
        return self._generator.random(size)

    def choice(self, a, size=None, replace: bool = True, p=None):
        return self._generator.choice(a, size=size, replace=replace, p=p)

    def shuffle(self, x) -> None:
        self._generator.shuffle(x)

    def permutation(self, x) -> np.ndarray:
        return self._generator.permutation(x)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomSource(entropy={self._seq.entropy})"


def spawn_rngs(seed: SeedLike, count: int) -> List[RandomSource]:
    """Spawn ``count`` independent :class:`RandomSource` objects from ``seed``."""
    return RandomSource(seed).spawn(count)


def iter_trial_rngs(seed: SeedLike, trials: int) -> Iterator[RandomSource]:
    """Yield one independent source per trial, deterministically from ``seed``."""
    for rng in spawn_rngs(seed, trials):
        yield rng


def resolve_seed_sequence(seeds: Sequence[int]) -> RandomSource:
    """Build a :class:`RandomSource` from a sequence of integers.

    Useful when an experiment wants to derive a stream from a tuple of
    identifying parameters such as ``(experiment_id, n, trial)``.
    """
    return RandomSource(np.random.SeedSequence(list(seeds)))
