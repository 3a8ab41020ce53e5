"""Hierarchical tracing and timing for the gossip stack.

A :class:`Tracer` records a tree of *spans* — named, nested timing windows
(``exact_quantile`` → ``sandwich`` → ``two_tournament`` → pull batches)
that capture wall time and, when bound to a
:class:`~repro.gossip.metrics.NetworkMetrics` object, the simulated
rounds, messages, payload bits and query counters that elapsed inside the
window.  Spans *read* the existing counters by snapshotting them at the
span boundaries; they never touch the metrics object, the RNG streams, or
any protocol state, so tracing a seeded run leaves it bit-identical.

The default tracer is :data:`NULL_TRACER`, a no-op whose ``span()`` call
returns one shared singleton span — no allocation, no clock read, no
counter snapshot on the hot path (``benchmarks/bench_obs.py`` guards the
overhead).  Instrumented call sites therefore stay enabled everywhere and
cost nothing until a real tracer is installed::

    from repro.obs import Tracer, use_tracer

    tracer = Tracer()
    with use_tracer(tracer):
        exact_quantile(values, phi=0.5)
    print(render_profile(tracer))

Per-round visibility comes from the engine hooks: both gossip engines
accept ``on_round(record, elapsed)`` callbacks (and fall back to the
active tracer's :meth:`Tracer.on_round`), so convergence traces and
rounds/sec throughput are observable live without paying
``keep_history=True``'s per-round record storage.
"""

from __future__ import annotations

import bisect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "LatencyHistogram",
    "NullTracer",
    "NULL_TRACER",
    "RoundSample",
    "Span",
    "SpanRecord",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
]


@dataclass
class SpanRecord:
    """One finished (or still-open) span.

    ``rounds`` / ``messages`` / ``bits`` / ``queries`` / ``query_bits`` /
    ``failed_node_rounds`` are the *deltas* of the bound metrics object
    between span entry and exit (all zero when the span was not bound to a
    metrics object).  Times are seconds relative to the tracer's epoch.
    """

    name: str
    index: int
    parent: Optional[int]
    depth: int
    start_s: float
    wall_s: float = 0.0
    rounds: int = 0
    messages: int = 0
    bits: int = 0
    queries: int = 0
    query_bits: int = 0
    failed_node_rounds: int = 0
    meta: Dict[str, Any] = field(default_factory=dict)
    done: bool = False


@dataclass(frozen=True)
class RoundSample:
    """One engine round as seen by :meth:`Tracer.on_round` (timeline mode)."""

    round_index: int
    label: str
    messages: int
    bits: int
    failed_nodes: int
    elapsed_s: float


class Span:
    """Context manager binding one :class:`SpanRecord` to a tracer.

    Entering snapshots the bound metrics counters; exiting stores the wall
    time and counter deltas.  ``annotate(**fields)`` attaches arbitrary
    metadata (lane counts, iteration numbers, ...) to the record.
    """

    __slots__ = ("_tracer", "_record", "_metrics", "_before", "_t0")

    def __init__(self, tracer: "Tracer", record: SpanRecord, metrics) -> None:
        self._tracer = tracer
        self._record = record
        self._metrics = metrics
        self._before: Optional[Tuple[int, ...]] = None
        self._t0 = 0.0

    @property
    def record(self) -> SpanRecord:
        return self._record

    def annotate(self, **fields) -> "Span":
        self._record.meta.update(fields)
        return self

    def __enter__(self) -> "Span":
        self._t0 = self._tracer._clock()
        if self._metrics is not None:
            self._before = self._metrics.counters()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        record = self._record
        record.wall_s = self._tracer._clock() - self._t0
        if self._before is not None:
            after = self._metrics.counters()
            before = self._before
            (
                record.rounds,
                record.messages,
                record.bits,
                record.queries,
                record.query_bits,
                record.failed_node_rounds,
            ) = (a - b for a, b in zip(after, before))
        record.done = True
        self._tracer._pop(record.index)
        return False


class _NullSpan:
    """The shared do-nothing span handed out by the null tracer."""

    __slots__ = ()

    record = None

    def annotate(self, **fields) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The default tracer: every operation is free and records nothing.

    ``span()`` returns one shared singleton, ``event()`` is a constant
    no-op, and ``on_round`` is ``None`` so the engines skip the per-round
    clock reads entirely.  ``active`` is the cheap guard call sites use
    before building event payloads.
    """

    __slots__ = ()

    active = False
    #: Engines read this attribute once per run; ``None`` disables the
    #: per-round hook (and its two clock reads) completely.
    on_round: Optional[Callable] = None

    def span(self, name: str, metrics=None) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **fields) -> None:
        return None


NULL_TRACER = NullTracer()


class Tracer:
    """Collects spans, point events, and per-round engine samples.

    Parameters
    ----------
    round_timeline:
        Keep one :class:`RoundSample` per engine round seen by
        :meth:`on_round` (bounded by the caller's run length; the CLI's
        ``--trace`` enables this so the JSONL dump carries a convergence
        trace).  Off by default: the hook then only *aggregates* rounds,
        wall time and per-label totals, which is O(1) memory.
    clock:
        Monotonic clock; injectable for deterministic tests.
    """

    active = True

    def __init__(
        self,
        round_timeline: bool = False,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self._clock = clock
        self.epoch = clock()
        self.spans: List[SpanRecord] = []
        self.events: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        # per-round aggregation (the engine hook)
        self.rounds_observed = 0
        self.round_wall_s = 0.0
        self._round_labels: Dict[str, List[float]] = {}
        self.timeline: Optional[List[RoundSample]] = (
            [] if round_timeline else None
        )

    # -- spans --------------------------------------------------------------------
    def span(self, name: str, metrics=None) -> Span:
        """Open a nested span; use as a context manager.

        ``metrics`` is an optional :class:`NetworkMetrics`-like object
        exposing ``counters()``; its deltas across the span are stored on
        the record.
        """
        parent = self._stack[-1] if self._stack else None
        record = SpanRecord(
            name=name,
            index=len(self.spans),
            parent=parent,
            depth=len(self._stack),
            start_s=self._clock() - self.epoch,
        )
        self.spans.append(record)
        self._stack.append(record.index)
        return Span(self, record, metrics)

    def _pop(self, index: int) -> None:
        # Spans exit LIFO under normal control flow; tolerate a stray exit
        # (e.g. a generator finalized late) rather than corrupting the tree.
        if self._stack and self._stack[-1] == index:
            self._stack.pop()
        elif index in self._stack:  # pragma: no cover - defensive
            self._stack.remove(index)

    # -- point events -------------------------------------------------------------
    def event(self, name: str, **fields) -> None:
        """Record a point-in-time event (e.g. one pull batch)."""
        fields["name"] = name
        fields["t_s"] = self._clock() - self.epoch
        if self._stack:
            fields["span"] = self._stack[-1]
        self.events.append(fields)

    # -- the engine round hook ----------------------------------------------------
    def on_round(self, record, elapsed: float) -> None:
        """Per-round engine hook: aggregate counts, wall time and labels.

        ``record`` is the round's :class:`~repro.gossip.metrics.RoundRecord`
        (read-only here) and ``elapsed`` the wall seconds the engine spent
        executing the round.
        """
        self.rounds_observed += 1
        self.round_wall_s += elapsed
        agg = self._round_labels.get(record.label)
        if agg is None:
            agg = self._round_labels[record.label] = [0, 0.0, 0, 0]
        agg[0] += 1
        agg[1] += elapsed
        agg[2] += record.messages
        agg[3] += record.bits
        if self.timeline is not None:
            self.timeline.append(
                RoundSample(
                    round_index=record.round_index,
                    label=record.label,
                    messages=record.messages,
                    bits=record.bits,
                    failed_nodes=record.failed_nodes,
                    elapsed_s=elapsed,
                )
            )

    @property
    def rounds_per_sec(self) -> float:
        """Observed engine throughput (0.0 before any hooked round ran)."""
        if self.round_wall_s <= 0.0:
            return 0.0
        return self.rounds_observed / self.round_wall_s

    def round_labels(self) -> Dict[str, Dict[str, float]]:
        """Per-label round aggregation from the engine hook."""
        return {
            label: {
                "rounds": int(agg[0]),
                "wall_s": agg[1],
                "messages": int(agg[2]),
                "bits": int(agg[3]),
            }
            for label, agg in self._round_labels.items()
        }

    # -- queries over the span tree -----------------------------------------------
    def find_spans(self, name: str) -> List[SpanRecord]:
        return [span for span in self.spans if span.name == name]

    def children(self, index: Optional[int]) -> Iterator[SpanRecord]:
        for span in self.spans:
            if span.parent == index:
                yield span

    def root_spans(self) -> List[SpanRecord]:
        return [span for span in self.spans if span.parent is None]

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per-name totals over all spans (calls, wall, rounds, bits, ...)."""
        totals: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            agg = totals.setdefault(
                span.name,
                {
                    "calls": 0,
                    "wall_s": 0.0,
                    "rounds": 0,
                    "messages": 0,
                    "bits": 0,
                    "queries": 0,
                    "query_bits": 0,
                },
            )
            agg["calls"] += 1
            agg["wall_s"] += span.wall_s
            agg["rounds"] += span.rounds
            agg["messages"] += span.messages
            agg["bits"] += span.bits
            agg["queries"] += span.queries
            agg["query_bits"] += span.query_bits
        return totals

    def totals(self) -> Dict[str, float]:
        """Whole-trace counters, summed over *root* spans only.

        Child spans are sub-windows of their parents, so summing every span
        would double-count; root spans are disjoint by construction.
        """
        keys = ("rounds", "messages", "bits", "queries", "query_bits")
        out = {key: 0 for key in keys}
        wall = 0.0
        for span in self.root_spans():
            wall += span.wall_s
            for key in keys:
                out[key] += getattr(span, key)
        out["wall_s"] = wall
        out["spans"] = len(self.spans)
        out["events"] = len(self.events)
        out["hook_rounds"] = self.rounds_observed
        return out


# -- the ambient tracer -------------------------------------------------------

_TRACER = NULL_TRACER


def get_tracer():
    """The ambient tracer (the :data:`NULL_TRACER` no-op by default)."""
    return _TRACER


def set_tracer(tracer) -> Any:
    """Install ``tracer`` globally; returns the previously installed one."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer if tracer is not None else NULL_TRACER
    return previous


@contextmanager
def use_tracer(tracer):
    """Install ``tracer`` for the duration of a ``with`` block."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


# -- latency histogram --------------------------------------------------------


class LatencyHistogram:
    """A fixed-bucket log₂ latency histogram (Prometheus-compatible).

    Buckets double from 1 µs to ~4 s (23 bounds) plus the implicit
    ``+Inf`` bucket; ``observe`` is one bisect + two adds, cheap enough to
    time every served query.  Counts are *non-cumulative* internally; the
    Prometheus renderer emits the cumulative form the text format requires.
    """

    #: Upper bounds in seconds: 1 µs · 2^i for i in 0..22 (~4.19 s).
    BOUNDS: Tuple[float, ...] = tuple(1e-6 * (2 ** i) for i in range(23))

    __slots__ = ("counts", "overflow", "count", "sum_s", "min_s", "max_s")

    def __init__(self) -> None:
        self.counts = [0] * len(self.BOUNDS)
        self.overflow = 0
        self.count = 0
        self.sum_s = 0.0
        self.min_s = float("inf")
        self.max_s = 0.0

    def observe(self, seconds: float) -> None:
        if seconds < 0.0:
            raise ValueError("latency must be non-negative")
        self.count += 1
        self.sum_s += seconds
        if seconds < self.min_s:
            self.min_s = seconds
        if seconds > self.max_s:
            self.max_s = seconds
        index = bisect.bisect_left(self.BOUNDS, seconds)
        if index >= len(self.BOUNDS):
            self.overflow += 1
        else:
            self.counts[index] += 1

    def quantile(self, q: float) -> float:
        """Approximate latency quantile: the upper bound of the bucket in
        which the ``q``-th observation falls (0.0 when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for bound, count in zip(self.BOUNDS, self.counts):
            seen += count
            if seen >= target:
                return bound
        return self.max_s

    def summary(self) -> Dict[str, float]:
        if self.count == 0:
            return {"count": 0, "mean_s": 0.0, "p50_s": 0.0, "p99_s": 0.0,
                    "max_s": 0.0}
        return {
            "count": self.count,
            "mean_s": self.sum_s / self.count,
            "p50_s": self.quantile(0.5),
            "p99_s": self.quantile(0.99),
            "max_s": self.max_s,
        }
