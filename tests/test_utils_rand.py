"""Tests for repro.utils.rand."""

import numpy as np
import pytest

from repro.utils.rand import RandomSource, iter_trial_rngs, resolve_seed_sequence, spawn_rngs


def test_same_seed_gives_same_stream():
    a = RandomSource(42)
    b = RandomSource(42)
    assert np.array_equal(a.integers(0, 100, size=10), b.integers(0, 100, size=10))


def test_different_seeds_give_different_streams():
    a = RandomSource(1)
    b = RandomSource(2)
    assert not np.array_equal(a.integers(0, 10**9, size=10), b.integers(0, 10**9, size=10))


def test_spawned_children_are_independent_and_deterministic():
    children_a = RandomSource(7).spawn(3)
    children_b = RandomSource(7).spawn(3)
    for ca, cb in zip(children_a, children_b):
        assert np.array_equal(ca.integers(0, 10**6, size=5), cb.integers(0, 10**6, size=5))
    draws = [tuple(c.integers(0, 10**9, size=4)) for c in RandomSource(7).spawn(3)]
    assert len(set(draws)) == 3


def test_child_of_random_source_seed():
    parent = RandomSource(3)
    child = RandomSource(parent)
    assert isinstance(child, RandomSource)


def test_spawn_negative_count_raises():
    with pytest.raises(ValueError):
        RandomSource(0).spawn(-1)


def test_spawn_rngs_and_iter_trial_rngs():
    rngs = spawn_rngs(9, 4)
    assert len(rngs) == 4
    assert len(list(iter_trial_rngs(9, 4))) == 4


def test_resolve_seed_sequence_deterministic():
    a = resolve_seed_sequence([1, 2, 3])
    b = resolve_seed_sequence([1, 2, 3])
    assert np.array_equal(a.integers(0, 1000, size=5), b.integers(0, 1000, size=5))


def test_permutation_and_choice():
    rng = RandomSource(11)
    perm = rng.permutation(np.arange(10))
    assert sorted(perm.tolist()) == list(range(10))
    picked = rng.choice(np.arange(10), size=3, replace=False)
    assert len(set(picked.tolist())) == 3


# ---- vectorized self-target rejection helpers -------------------------------


def test_draw_targets_excluding_never_returns_forbidden():
    from repro.utils.rand import draw_targets_excluding

    rng = RandomSource(3)
    forbidden = np.arange(200) % 7  # lots of repeated forbidden values
    targets = draw_targets_excluding(rng, 7, forbidden)
    assert targets.shape == forbidden.shape
    assert np.all(targets != forbidden)
    assert targets.min() >= 0 and targets.max() < 7


def test_draw_targets_excluding_empty_batch():
    from repro.utils.rand import draw_targets_excluding

    targets = draw_targets_excluding(RandomSource(0), 10, np.array([], dtype=int))
    assert targets.size == 0


@pytest.mark.parametrize(
    "n, k", [(64, None), (3, None), (64, 3), (2, 5), (3, 15)],
    ids=["1d", "1d-small-n", "block", "block-n2", "block-n3-k15"],
)
def test_resample_forbidden_targets_matches_historical_stream(n, k):
    """The shared helper must consume the RNG exactly like the inline
    masked-re-draw loop it replaced, so seeded partner draws are unchanged
    — for a per-round partner array and for an (n, k) block compared
    against a broadcast (n, 1) identity, over several re-draw passes."""
    from repro.utils.rand import resample_forbidden_targets

    shape = n if k is None else (n, k)
    own = np.arange(n) if k is None else np.arange(n)[:, None]
    a, b = RandomSource(17), RandomSource(17)

    partners = a.integers(0, n, size=shape)
    mask = partners == own
    while np.any(mask):
        partners[mask] = a.integers(0, n, size=int(mask.sum()))
        mask = partners == own

    helper = b.integers(0, n, size=shape)
    resample_forbidden_targets(b, helper, own, n)
    assert np.array_equal(partners, helper)
    assert a.integers(0, 2**32) == b.integers(0, 2**32)


def test_resample_forbidden_targets_rejects_degenerate_n():
    from repro.utils.rand import resample_forbidden_targets

    with pytest.raises(ValueError):
        resample_forbidden_targets(
            RandomSource(0), np.zeros(3, dtype=int), np.zeros(3, dtype=int), 1
        )


def test_scalar_rejection_pattern_is_gone_from_the_tree():
    """The scalar `while target == node` re-draw pattern must not reappear
    anywhere in the tree."""
    import pathlib

    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    offenders = []
    for path in src.rglob("*.py"):
        text = path.read_text()
        if "while target ==" in text:
            offenders.append(str(path))
    assert not offenders, offenders
