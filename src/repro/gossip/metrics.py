"""Round, message and bit accounting for gossip executions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple


@dataclass
class RoundRecord:
    """Statistics for one synchronous round."""

    round_index: int
    messages: int = 0
    bits: int = 0
    max_message_bits: int = 0
    failed_nodes: int = 0
    label: str = ""

    def merge_message(self, bits: int) -> None:
        self.messages += 1
        self.bits += bits
        if bits > self.max_message_bits:
            self.max_message_bits = bits


@dataclass
class NetworkMetrics:
    """Cumulative statistics for a gossip execution.

    Protocol implementations call :meth:`begin_round` once per synchronous
    round and :meth:`record_messages` for the traffic they generate.  The
    experiment harness reads ``rounds``, ``messages``, ``total_bits`` and
    ``max_message_bits`` and can break them down per labelled phase.
    """

    rounds: int = 0
    messages: int = 0
    total_bits: int = 0
    max_message_bits: int = 0
    failed_node_rounds: int = 0
    queries: int = 0
    query_bits: int = 0
    #: Faults injected by an attached :class:`~repro.faults.FaultInjector`
    #: (all kinds).  Deliberately *not* part of :meth:`summary` — injected
    #: faults are an experiment's independent variable, not a cost; the
    #: per-kind breakdown lives on the injector and the Prometheus export.
    faults_injected: int = 0
    history: List[RoundRecord] = field(default_factory=list)
    keep_history: bool = True
    _current: Optional[RoundRecord] = field(
        default=None, init=False, repr=False, compare=False
    )

    def begin_round(self, label: str = "") -> RoundRecord:
        """Start a new round and return its (mutable) record."""
        record = RoundRecord(round_index=self.rounds, label=label)
        self.rounds += 1
        if self.keep_history:
            self.history.append(record)
        self._current = record
        return record

    def record_messages(
        self, count: int, bits_each: int, record: Optional[RoundRecord] = None
    ) -> None:
        """Record ``count`` messages of ``bits_each`` bits in the current round."""
        if count < 0 or bits_each < 0:
            raise ValueError("counts and bits must be non-negative")
        record = record or getattr(self, "_current", None)
        self.messages += count
        self.total_bits += count * bits_each
        if bits_each > self.max_message_bits:
            self.max_message_bits = bits_each
        if record is not None:
            record.messages += count
            record.bits += count * bits_each
            if bits_each > record.max_message_bits:
                record.max_message_bits = bits_each

    def record_query(self, bits: int, count: int = 1) -> None:
        """Record ``count`` answered quantile queries of ``bits`` payload each.

        Queries are the serving layer's unit of work: each one ships an
        answer message but consumes *no* gossip round — the whole point of
        the one-pass construction is that round cost is fixed while query
        cost grows only in payload bits.  Totals land in ``messages`` /
        ``total_bits`` so rounds-vs-bandwidth comparisons stay honest, and
        the separate ``queries`` counter keeps them attributable.
        """
        if count < 0 or bits < 0:
            raise ValueError("counts and bits must be non-negative")
        self.queries += count
        self.query_bits += count * bits
        self.messages += count
        self.total_bits += count * bits
        if count and bits > self.max_message_bits:
            self.max_message_bits = bits

    def record_faults_injected(self, count: int) -> None:
        """Record ``count`` injected faults (drop/dup/delay/crash/corrupt)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self.faults_injected += count

    def record_failures(self, count: int, record: Optional[RoundRecord] = None) -> None:
        if count < 0:
            raise ValueError("count must be non-negative")
        self.failed_node_rounds += count
        record = record or getattr(self, "_current", None)
        if record is not None:
            record.failed_nodes += count

    def charge_rounds(self, count: int, label: str = "charged") -> None:
        """Charge ``count`` rounds without simulating them.

        For rounds in which no gossip runs but time still passes: explicit
        waits (the service's rebuild backoff) and the modelled costs of
        baseline steps that are not simulated (Kempe's pivot selection and
        answer broadcast).  The exact-quantile driver never charges rounds.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        for _ in range(count):
            self.begin_round(label=label)

    def merge(self, other: "NetworkMetrics") -> None:
        """Fold another metrics object into this one (rounds are additive)."""
        offset = self.rounds
        self.rounds += other.rounds
        self.messages += other.messages
        self.total_bits += other.total_bits
        self.failed_node_rounds += other.failed_node_rounds
        self.queries += other.queries
        self.query_bits += other.query_bits
        self.faults_injected += other.faults_injected
        if other.max_message_bits > self.max_message_bits:
            self.max_message_bits = other.max_message_bits
        if self.keep_history:
            for record in other.history:
                merged = RoundRecord(
                    round_index=record.round_index + offset,
                    messages=record.messages,
                    bits=record.bits,
                    max_message_bits=record.max_message_bits,
                    failed_nodes=record.failed_nodes,
                    label=record.label,
                )
                self.history.append(merged)

    def rounds_by_label(self) -> Dict[str, int]:
        """Number of rounds spent in each labelled phase."""
        counts: Dict[str, int] = {}
        for record in self.history:
            counts[record.label] = counts.get(record.label, 0) + 1
        return counts

    def counters(self) -> Tuple[int, int, int, int, int, int]:
        """The cumulative counters as one tuple, for span snapshotting.

        :class:`~repro.obs.tracer.Span` snapshots this at its boundaries
        and stores the deltas — observability *reads* the counters; it
        never mutates this object.
        """
        return (
            self.rounds,
            self.messages,
            self.total_bits,
            self.queries,
            self.query_bits,
            self.failed_node_rounds,
        )

    def summary(self) -> Dict[str, float]:
        """A flat dictionary convenient for experiment result rows.

        Includes the serving-layer query counters: rows derived from a
        metrics object that answered queries would otherwise silently drop
        the query cost (``queries`` / ``query_bits`` are also folded into
        ``messages`` / ``total_bits``, so the breakdown keeps the totals
        attributable).
        """
        return {
            "rounds": self.rounds,
            "messages": self.messages,
            "total_bits": self.total_bits,
            "max_message_bits": self.max_message_bits,
            "failed_node_rounds": self.failed_node_rounds,
            "queries": self.queries,
            "query_bits": self.query_bits,
        }


def total_rounds(metrics: Iterable[NetworkMetrics]) -> int:
    """Sum of rounds across several metric objects."""
    return sum(metric.rounds for metric in metrics)
