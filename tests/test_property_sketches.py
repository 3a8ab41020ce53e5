"""Property-based tests for the Appendix A compactor (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.sketches.compactor import CompactingBuffer, compact

float_lists = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=0,
    max_size=300,
)
nonempty_float_lists = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=300,
)


@settings(max_examples=60, deadline=None)
@given(values=float_lists)
def test_compact_halves_and_preserves_order(values):
    result = compact(values)
    assert len(result) == len(values) // 2
    assert result == sorted(result)
    assert set(result).issubset(set(values))


@settings(max_examples=60, deadline=None)
@given(values=float_lists, probe=st.floats(min_value=-1e6, max_value=1e6))
def test_compaction_rank_error_at_most_one_per_operation(values, probe):
    """Lemma A.3: one compaction moves any rank by at most the old weight."""
    exact_rank = sum(1 for v in values if v <= probe)
    compacted = compact(values)
    weighted_rank = 2 * sum(1 for v in compacted if v <= probe)
    assert abs(weighted_rank - exact_rank) <= 1 + 1  # parity slack of one item


@settings(max_examples=50, deadline=None)
@given(values=nonempty_float_lists, capacity=st.integers(min_value=4, max_value=64))
def test_compacting_buffer_preserves_sample_count(values, capacity):
    buffer = CompactingBuffer.from_samples(values, capacity=capacity)
    assert len(buffer) <= capacity
    # represented samples may only shrink below the input due to odd-size
    # truncation, never by more than one per compaction
    assert buffer.represented_samples <= len(values)
    assert buffer.represented_samples >= len(values) - buffer.weight * buffer.compactions
