"""The live quantile query: the simulated tournaments, then one count.

:func:`~repro.net.quantile.net_approximate_quantile` runs the pull-window
plan of :func:`~repro.core.approx_quantile.approximate_quantile` over a
live transport, counts the querier's answer with push-sum, and runs the
tournament again while the counted fraction misses φ by more than ε.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.net.quantile as net_quantile
from repro.aggregates.push_sum import PushSumProtocol
from repro.core.approx_quantile import approximate_quantile
from repro.net import net_approximate_quantile
from repro.obs.tracer import Tracer, use_tracer
from repro.utils.rand import RandomSource

N = 32


def _values(seed: int) -> np.ndarray:
    """A seeded permutation of 1..N, as the ``net-tcp`` benchmark queries."""
    return np.random.default_rng(seed).permutation(N).astype(float) + 1.0


@pytest.fixture
def tournament_rows(monkeypatch):
    """The final rows of each tournament the query runs, in order."""
    rows = []
    run = net_quantile.arun_windows

    async def spy(*args, **kwargs):
        final = await run(*args, **kwargs)
        rows.append(final.copy())
        return final

    monkeypatch.setattr(net_quantile, "arun_windows", spy)
    return rows


@pytest.mark.parametrize(
    "transport,seed",
    [("channel", 3), ("channel", 13), ("channel", 21), ("tcp", 3), ("tcp", 13)],
)
def test_first_attempt_matches_the_vectorized_approximation(
    tournament_rows, transport, seed
):
    values = _values(seed)
    net_approximate_quantile(values, 0.5, 0.1, rng=seed, transport=transport)
    simulated = approximate_quantile(values, 0.5, 0.1, rng=RandomSource(seed))
    assert tournament_rows[0][0].tobytes() == simulated.estimates.tobytes()


def test_a_missed_first_tournament_is_counted_and_run_again(tournament_rows):
    # At seed 1 the querier's first candidate has rank 23 of 32 (0.72).
    values = _values(1)
    answer = net_approximate_quantile(values, 0.5, 0.1, rng=1)
    first = tournament_rows[0][0, 0]
    assert abs(np.mean(values <= first) - 0.5) > 0.1
    assert answer.attempts == len(tournament_rows) == 2
    achieved = float(np.mean(values <= answer.value))
    assert abs(achieved - 0.5) <= 0.1
    assert answer.counted_rank == pytest.approx(achieved, abs=1e-3)
    assert answer.accuracy == pytest.approx(0.1)
    assert answer.degraded is False


def test_every_attempt_missing_widens_the_bound(monkeypatch):
    class CountsNothing(PushSumProtocol):
        """A count that reports no value at or below any candidate."""

        def __init__(self, values, **kwargs):
            super().__init__(np.zeros_like(values), **kwargs)

    monkeypatch.setattr(net_quantile, "PushSumProtocol", CountsNothing)
    values = _values(3)
    answer = net_approximate_quantile(values, 0.5, 0.1, rng=3)
    assert answer.attempts == net_quantile.ATTEMPTS
    assert answer.counted_rank == 0.0
    assert answer.accuracy == pytest.approx(0.5)
    assert answer.accuracy > answer.eps
    assert answer.degraded is True


def test_a_traced_query_splits_tournament_and_count_rounds():
    tracer = Tracer()
    with use_tracer(tracer):
        answer = net_approximate_quantile(_values(1), 0.5, 0.1, rng=1)
    counts = tracer.find_spans("counting")
    assert [span.meta["attempt"] for span in counts] == [1, 2]
    tournaments = tracer.find_spans("two_tournament") + tracer.find_spans(
        "three_tournament"
    )
    assert len(tournaments) == 4
    assert all(span.rounds > 0 for span in counts)
    assert sum(span.rounds for span in counts + tournaments) == answer.rounds
