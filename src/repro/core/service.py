"""The quantile-serving layer: one gossip pass, arbitrarily many queries.

Corollary 1.5's fused grid (:func:`~repro.core.all_quantiles.estimate_all_ranks`)
computes an ε-spaced ladder of quantile estimates in max-of-lanes rounds.
A :class:`QuantileService` performs that pass once and then answers any
number of concurrent φ-quantile (and rank-of-value) queries from the grid
bracket — cost grows with *rounds* only at build time; serving a query is
a single answer message whose payload bits are accounted per query through
:meth:`~repro.gossip.metrics.NetworkMetrics.record_query`.  This is the
"millions of users" shape: 10⁶ queries against one pass cost the same
gossip rounds as one query.

The grid is the only answer store: a φ between two grid targets is served
from the nearer one, its bound widened by the distance.  Departures and
value updates are priced per lane as rank drift; a lane drifted past
``eps / 2`` answers degraded, and past ``eps`` an epoch rebuild re-runs
the stale lanes.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from time import perf_counter
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.core.all_quantiles import (
    DEFAULT_MAX_LANES,
    AllRanksResult,
    estimate_all_ranks,
    estimate_grid_subset,
)
from repro.exceptions import ConfigurationError
from repro.faults.injectors import FaultInjector
from repro.gossip.env import GossipEnv, resolve_env
from repro.gossip.messages import BITS_HEADER, BITS_PER_VALUE
from repro.gossip.metrics import NetworkMetrics
from repro.obs.tracer import LatencyHistogram, get_tracer
from repro.topology.dynamic import ChurnProcess
from repro.utils.inputs import integral, node_values
from repro.utils.rand import RandomSource

#: Payload bits of one answered query: the value plus framing.
ANSWER_BITS = BITS_HEADER + BITS_PER_VALUE

#: Gossip attempts per rebuild before it gives up and stays degraded.
REBUILD_ATTEMPTS = 3
#: Rounds charged after the first failed rebuild attempt; doubles per retry.
REBUILD_BACKOFF = 8


@dataclass(frozen=True)
class QueryAnswer:
    """One answered φ-quantile query.

    Attributes
    ----------
    phi:
        The requested quantile.
    value:
        The served estimate.
    accuracy:
        Additive rank-accuracy bound of the answer: grid distance plus the
        per-lane query accuracy.
    grid_index:
        Index of the serving grid lane (quantile answers only).
    """

    phi: float
    value: float
    accuracy: float
    grid_index: Optional[int] = None
    #: True when the answer comes from an estimate that has gone stale
    #: under churn / value updates: the reported ``accuracy`` is widened by
    #: the estimated rank drift, so a degraded answer is never reported
    #: tighter than the fault-free bound — degraded, but honest.
    degraded: bool = False
    #: The service epoch that produced the serving estimate.
    epoch: int = 0


@dataclass(frozen=True)
class RebuildReport:
    """Outcome of one :meth:`QuantileService.rebuild` call.

    Attributes
    ----------
    epoch:
        The epoch in force *after* the rebuild (unchanged if the rebuild
        could not validate and the service stayed degraded).
    mode:
        ``"incremental"`` (stale lanes only) or ``"full"``.
    lanes_rebuilt:
        Number of grid lanes whose answers were refreshed.
    chunks_run:
        Lane chunks (tournament runs) this rebuild executed — on an
        incremental rebuild strictly fewer than ``full_chunks`` whenever
        any lane was still fresh.
    full_chunks:
        Lane chunks a full rebuild would have run.
    attempts:
        Gossip attempts used (> 1 when injected faults broke validation and
        the rebuild retried after backoff).
    backoff_rounds:
        Rounds charged while backing off between failed attempts.
    rounds:
        Gossip rounds the rebuild consumed (including backoff).
    validated:
        Whether every rebuilt lane passed the rank self-check; ``False``
        means some lanes kept their stale answers and the service remains
        degraded for them.
    """

    epoch: int
    mode: str
    lanes_rebuilt: int
    chunks_run: int
    full_chunks: int
    attempts: int
    backoff_rounds: int
    rounds: int
    validated: bool


class QuantileService:
    """Serve arbitrary quantile queries from a single fused gossip pass.

    Parameters
    ----------
    values:
        One value per node.
    eps:
        Grid spacing of the underlying all-quantiles pass: answers from the
        grid carry at most ``eps / 2 + query_accuracy`` rank error inside
        the grid's coverage.
    max_lanes / query_accuracy / final_samples / keep_history:
        Forwarded to :func:`~repro.core.all_quantiles.estimate_all_ranks`.
    env:
        The :class:`~repro.gossip.env.GossipEnv` of the build pass *and*
        every rebuild.  Its optional ``faults`` injector is the
        chaos-testing hook: rebuilds whose answers fail the rank self-check
        under injected faults retry up to :data:`REBUILD_ATTEMPTS` times,
        backing off :data:`REBUILD_BACKOFF` rounds, doubled per retry.
    churn_process:
        Optional :class:`~repro.topology.dynamic.ChurnProcess` modelling
        node departures after the build.  :meth:`advance_churn` steps it;
        departed values then no longer back the served estimates, which the
        per-lane drift model turns into widened (degraded) answers and,
        past ``eps``, epoch rebuilds.  A rebuild under churn runs on the
        active subset, which an ``n``-node static topology cannot
        describe, so ``env.topology`` is rejected beside it.
    auto_rebuild:
        When True, :meth:`advance_churn` / :meth:`update_value` call
        :meth:`maybe_rebuild` themselves — the self-healing mode the CLI's
        ``serve --rebuild auto`` exposes.  Off by default so queries never
        surprise the caller with gossip rounds.
    """

    def __init__(
        self,
        values: Union[np.ndarray, list, tuple],
        eps: float = 0.1,
        rng: Union[None, int, RandomSource] = None,
        query_accuracy: Optional[float] = None,
        final_samples: int = 15,
        max_lanes: int = DEFAULT_MAX_LANES,
        keep_history: bool = False,
        env: Optional[GossipEnv] = None,
        churn_process: Optional[ChurnProcess] = None,
        auto_rebuild: bool = False,
    ) -> None:
        source = rng if isinstance(rng, RandomSource) else RandomSource(rng)
        self._source = source
        self._array = node_values(values, min_nodes=4)
        self._env = resolve_env(env)
        if churn_process is not None:
            if self._env.topology is not None:
                raise ConfigurationError(
                    "a churn process cannot be combined with a static "
                    "topology: rebuilds run on the active subset, which an "
                    "n-node topology cannot describe"
                )
            if not isinstance(churn_process, ChurnProcess):
                raise ConfigurationError(
                    f"churn_process must be a ChurnProcess, got {churn_process!r}"
                )
            if churn_process.n != self._array.size:
                raise ConfigurationError(
                    f"churn process has {churn_process.n} nodes but values "
                    f"has {self._array.size}"
                )
        build_metrics = NetworkMetrics(keep_history=keep_history)
        with get_tracer().span("service_build", build_metrics) as span:
            span.annotate(n=int(self._array.size), eps=float(eps))
            self._result = estimate_all_ranks(
                self._array,
                eps=eps,
                rng=source.child(),
                query_accuracy=query_accuracy,
                final_samples=final_samples,
                max_lanes=max_lanes,
                metrics=build_metrics,
                env=self._env,
            )
        self._eps = float(eps)
        self._query_accuracy = (
            eps / 2.0 if query_accuracy is None else float(query_accuracy)
        )
        self._final_samples = int(final_samples)
        self._max_lanes = int(max_lanes)
        self._churn = churn_process
        #: Per-lane rank drift above which a lane answers degraded.
        self._staleness_threshold = self._eps / 2.0
        self._auto_rebuild = bool(auto_rebuild)
        # One representative served value per grid lane: the median of the
        # per-node lane outputs (all nodes agree up to the ε guarantee, so
        # the median is a w.h.p.-correct network-level answer).
        self._grid_answers = self._lane_answers(self._result.grid_values)
        #: Per lane: the fraction of active values below its answer when that
        #: answer was committed — the baseline its drift is measured from.
        self._lane_baseline = self._fraction_below(
            self._sorted_active(), self._grid_answers
        )

        self.query_metrics = NetworkMetrics(keep_history=False)
        #: Serving-side latency histogram: one observation per answered
        #: query (quantile / rank_of), wall seconds.
        self.query_latency = LatencyHistogram()
        #: How many served answers carried ``degraded=True``.
        self.answers_degraded = 0
        #: Completed epoch rebuilds.
        self.rebuilds = 0

        # -- epoch baseline -------------------------------------------------
        self.epoch = 0
        #: Grid lanes whose last rebuild failed validation (kept degraded).
        self._suspect_lanes: set = set()
        self._drift_cache: Optional[np.ndarray] = None

    # -- build-time facts ---------------------------------------------------------
    @property
    def n(self) -> int:
        return self._array.size

    @property
    def eps(self) -> float:
        return self._eps

    @property
    def grid(self) -> np.ndarray:
        """The served grid of quantile targets."""
        return self._result.grid

    @property
    def grid_answers(self) -> np.ndarray:
        """The representative served value per grid target."""
        return self._grid_answers

    @property
    def rounds(self) -> int:
        """Gossip rounds of the build pass — fixed, query-count independent."""
        return self._result.rounds

    @property
    def gossip_metrics(self) -> NetworkMetrics:
        """Round/message/bit accounting of the build pass."""
        return self._result.metrics

    @property
    def result(self) -> AllRanksResult:
        """The underlying all-quantiles pass result."""
        return self._result

    @property
    def queries_answered(self) -> int:
        return self.query_metrics.queries

    # -- the staleness / epoch lifecycle -----------------------------------------
    @property
    def churn_process(self) -> Optional[ChurnProcess]:
        return self._churn

    @property
    def faults(self) -> Optional[FaultInjector]:
        return self._env.faults

    def attach_faults(self, faults: Optional[FaultInjector]) -> None:
        """Attach (or replace, or with ``None`` detach) the fault injector.

        Subsequent rebuild gossip runs under the new injector; the build
        already happened, so this is the chaos-starts-mid-life knob — e.g.
        build clean, then measure how epoch rebuilds behave under injected
        faults.  Round indices keep increasing through the service metrics,
        so a schedule wrapping the new injector's specs sees the service's
        true round clock, not zero.
        """
        self._env = dataclasses.replace(self._env, faults=faults)

    def _active_mask(self) -> np.ndarray:
        if self._churn is not None:
            return self._churn.active
        return np.ones(self._array.size, dtype=bool)

    def _sorted_active(self) -> np.ndarray:
        return np.sort(self._array[self._active_mask()], kind="stable")

    @staticmethod
    def _fraction_below(sorted_values: np.ndarray, answers: np.ndarray) -> np.ndarray:
        below = np.searchsorted(sorted_values, answers, side="left")
        return below / max(sorted_values.size, 1)

    def _commit_epoch(self) -> None:
        """Start a fresh epoch.

        Lane drift baselines are set per lane when its answer is committed,
        so a lane that was not rebuilt keeps its drift across epochs.
        """
        self.epoch += 1
        self._suspect_lanes.clear()
        self._drift_cache = None

    def advance_churn(self, rounds: int = 1) -> Optional[RebuildReport]:
        """Step the attached churn process ``rounds`` rounds forward.

        Departed nodes' values stop backing the served estimates, which
        shows up as per-lane rank drift (→ degraded answers) and, with
        ``auto_rebuild``, as an automatic :meth:`maybe_rebuild`.
        """
        if self._churn is None:
            raise ConfigurationError(
                "no churn process attached; construct the service with "
                "churn_process="
            )
        if rounds < 0:
            raise ConfigurationError("rounds must be non-negative")
        start = self._churn.rounds_generated
        for offset in range(rounds):
            self._churn.round_state(start + offset)
        self._drift_cache = None
        if self._auto_rebuild:
            return self.maybe_rebuild()
        return None

    def update_value(self, index: int, value: float) -> Optional[RebuildReport]:
        """Replace one node's value (a stream update at that node).

        The grid answers are *not* recomputed — the drift model prices the
        divergence and the epoch machinery decides when a rebuild pays.
        ``index`` must be an integer (an integral float is accepted); a
        fractional index is rejected rather than truncated to a node.
        """
        node = integral(index, "index", "an integer node index")
        if not 0 <= node < self._array.size:
            raise ConfigurationError(
                f"index must be in [0, {self._array.size}), got {index}"
            )
        value = float(value)
        if not math.isfinite(value):
            raise ConfigurationError(f"value must be finite, got {value}")
        self._array[node] = value
        self._drift_cache = None
        if self._auto_rebuild:
            return self.maybe_rebuild()
        return None

    def lane_drift(self) -> np.ndarray:
        """Estimated rank drift of each grid lane since its answer was committed.

        For lane ``j`` serving value ``v_j``: the absolute change in the
        fraction of *currently active* values below ``v_j`` versus the
        fraction when ``v_j`` was committed (at build or at the rebuild that
        last refreshed the lane) — how far the answer's rank has moved
        under departures and value updates.  Lanes whose answers are
        non-finite (a faulted build) or failed their last rebuild
        validation report infinite drift.
        """
        if self._drift_cache is not None:
            return self._drift_cache
        answers = self._grid_answers
        below_now = self._fraction_below(self._sorted_active(), answers)
        drift = np.abs(below_now - self._lane_baseline)
        drift[~np.isfinite(answers)] = np.inf
        for lane in self._suspect_lanes:
            drift[lane] = np.inf
        self._drift_cache = drift
        return drift

    def stale_lanes(self) -> np.ndarray:
        """Indices of grid lanes whose drift exceeds the staleness threshold."""
        return np.flatnonzero(self.lane_drift() > self._staleness_threshold)

    @property
    def degraded(self) -> bool:
        """Whether any grid lane is currently stale."""
        return bool(self.stale_lanes().size)

    def maybe_rebuild(self) -> Optional[RebuildReport]:
        """Rebuild incrementally iff some lane drifted past ``eps``."""
        drift = self.lane_drift()
        finite = drift[np.isfinite(drift)]
        worst = float(finite.max()) if finite.size else 0.0
        if np.any(np.isinf(drift)) or worst > self._eps:
            return self.rebuild(incremental=True)
        return None

    def rebuild(self, incremental: bool = True) -> RebuildReport:
        """Re-estimate stale grid lanes (or the full grid) as a new epoch.

        Incremental mode re-runs only the lane chunks whose brackets moved
        — strictly fewer tournament runs than a full build whenever any
        lane is still fresh.  Each attempt's answers must pass a rank
        self-check against the current active values; attempts broken by
        injected faults are retried after charging exponential-backoff
        rounds, and after :data:`REBUILD_ATTEMPTS` failures the old answers
        stay in place (degraded, but the service keeps answering).
        """
        grid = self._result.grid
        metrics = self.gossip_metrics
        full_chunks = int(math.ceil(grid.size / self._max_lanes))
        if incremental:
            lanes = self.stale_lanes()
            mode = "incremental"
        else:
            lanes = np.arange(grid.size)
            mode = "full"
        if lanes.size == 0:
            # Nothing stale: a free epoch commit (no lane is refreshed).
            self._commit_epoch()
            self.rebuilds += 1
            return RebuildReport(
                epoch=self.epoch, mode=mode, lanes_rebuilt=0, chunks_run=0,
                full_chunks=full_chunks, attempts=0, backoff_rounds=0,
                rounds=0, validated=True,
            )

        active = self._active_mask()
        array = self._array[active]
        targets = grid[lanes]
        sorted_now = np.sort(array, kind="stable")
        rounds_before = metrics.rounds
        chunks_run = 0
        backoff_rounds = 0
        attempts = 0
        answers = None
        valid = None
        tracer = get_tracer()
        while attempts < REBUILD_ATTEMPTS:
            attempts += 1
            with tracer.span("service_rebuild", metrics) as span:
                span.annotate(
                    epoch=self.epoch, mode=mode, lanes=int(lanes.size),
                    attempt=attempts,
                )
                grid_values, windows = estimate_grid_subset(
                    array, targets, self._query_accuracy,
                    self._final_samples, self._source.child(), metrics,
                    self._max_lanes, self._env,
                )
            chunks_run += len(windows)
            answers = self._lane_answers(grid_values)
            valid = self._validate_answers(sorted_now, targets, answers)
            if bool(valid.all()):
                break
            if attempts < REBUILD_ATTEMPTS:
                # Exponential backoff, charged as real rounds: the round
                # index advances deterministically past e.g. a Burst fault
                # window, so the retry meets a different fault schedule.
                wait = REBUILD_BACKOFF * (2 ** (attempts - 1))
                metrics.charge_rounds(wait, label="rebuild_backoff")
                backoff_rounds += wait

        refreshed = lanes[valid]
        self._grid_answers[refreshed] = answers[valid]
        self._lane_baseline[refreshed] = self._fraction_below(
            sorted_now, answers[valid]
        )
        validated = bool(valid.all())
        if validated:
            self._commit_epoch()
        else:
            # Partial: refreshed lanes serve the new answers, failed lanes
            # stay pinned stale so the degradation remains visible.
            self._suspect_lanes.update(int(lane) for lane in lanes[~valid])
            self._drift_cache = None
        self.rebuilds += 1
        return RebuildReport(
            epoch=self.epoch, mode=mode, lanes_rebuilt=int(valid.sum()),
            chunks_run=chunks_run, full_chunks=full_chunks,
            attempts=attempts, backoff_rounds=backoff_rounds,
            rounds=metrics.rounds - rounds_before, validated=validated,
        )

    @staticmethod
    def _lane_answers(grid_values: np.ndarray) -> np.ndarray:
        """Median-of-nodes representative answer per lane (NaN when empty).

        The lanes are increasing targets, so the finite answers are put in
        increasing order: sorting never raises the largest rank error
        against monotone true quantiles.
        """
        answers = np.empty(grid_values.shape[0], dtype=float)
        for row in range(grid_values.shape[0]):
            lane = grid_values[row]
            finite = lane[np.isfinite(lane)]
            answers[row] = float(np.median(finite)) if finite.size else float("nan")
        answered = np.isfinite(answers)
        answers[answered] = np.sort(answers[answered], kind="stable")
        return answers

    def _validate_answers(
        self, sorted_now: np.ndarray, targets: np.ndarray, answers: np.ndarray
    ) -> np.ndarray:
        """Rank self-check: does each answer sit near its target quantile?

        Tolerance ``eps + query_accuracy``: a clean tournament is accurate
        to ``query_accuracy`` w.h.p., so honest answers pass with slack
        while fault-corrupted or starved lanes (NaN / displaced values)
        fail and trigger the retry path.
        """
        n = max(sorted_now.size, 1)
        left = np.searchsorted(sorted_now, answers, side="left")
        right = np.searchsorted(sorted_now, answers, side="right")
        rank = (left + right) / (2.0 * n)
        tolerance = self._eps + self._query_accuracy
        with np.errstate(invalid="ignore"):
            ok = np.abs(rank - targets) <= tolerance
        return ok & np.isfinite(answers)

    # -- the serving surface ------------------------------------------------------
    def quantile(self, phi: float) -> QueryAnswer:
        """Answer one φ-quantile query (no gossip; one accounted message)."""
        started = perf_counter()
        if not 0.0 <= phi <= 1.0:
            raise ConfigurationError("phi must be in [0, 1]")
        return self._served(self._grid_bracket(phi), started)

    def batch_quantiles(self, phis: Sequence[float]) -> List[QueryAnswer]:
        """Answer many concurrent φ queries — zero additional gossip rounds."""
        return [self.quantile(phi) for phi in phis]

    def rank_of(self, value: float) -> QueryAnswer:
        """Estimate the quantile (rank / n) of an arbitrary value.

        Uses the Corollary-1.5 bracket: the midpoint implied by how many
        grid answers lie below ``value``, accurate to ``eps`` plus the
        per-lane query accuracy.  NaN has no rank and is rejected; ±inf
        are ordinary values, below or above every grid answer.
        """
        started = perf_counter()
        value = float(value)
        if math.isnan(value):
            raise ConfigurationError("value must not be NaN: it has no rank")
        below = int(np.count_nonzero(self._grid_answers < value))
        estimate = float(np.clip((below + 0.5) * self._eps, 0.0, 1.0))
        accuracy = self._eps + self._query_accuracy
        # Rank-of uses the whole ladder, so the *worst* lane drift widens
        # the bound (capped at 1: a rank error can't exceed the unit range).
        drift = self.lane_drift()
        worst = float(min(np.max(drift, initial=0.0), 1.0))
        stale = worst > self._staleness_threshold
        if stale:
            accuracy += worst
        answer = QueryAnswer(
            phi=estimate,
            value=value,
            accuracy=accuracy,
            degraded=stale,
            epoch=self.epoch,
        )
        return self._served(answer, started)

    def _served(self, answer: QueryAnswer, started: float) -> QueryAnswer:
        """Account one answered query: its message, degraded count, latency."""
        self.query_metrics.record_query(ANSWER_BITS)
        if answer.degraded:
            self.answers_degraded += 1
        self.query_latency.observe(perf_counter() - started)
        return answer

    def self_quantiles(self) -> np.ndarray:
        """Every node's own-rank estimate from the build pass (no message)."""
        return self._result.quantile_estimates

    def _grid_bracket(self, phi: float) -> QueryAnswer:
        grid = self._result.grid
        index = int(np.argmin(np.abs(grid - phi)))
        distance = float(abs(grid[index] - phi))
        accuracy = distance + self._query_accuracy
        # A stale lane answers with its bound widened by the estimated rank
        # drift (capped at 1), never tighter than the fault-free bound.
        lane_drift = float(min(self.lane_drift()[index], 1.0))
        stale = lane_drift > self._staleness_threshold
        if stale:
            accuracy += lane_drift
        return QueryAnswer(
            phi=float(phi),
            value=float(self._grid_answers[index]),
            accuracy=accuracy,
            grid_index=index,
            degraded=stale,
            epoch=self.epoch,
        )

    def summary(self) -> dict:
        """Flat build/serve accounting, convenient for the CLI and tests."""
        return {
            "n": self.n,
            "eps": self._eps,
            "grid_targets": int(self._result.grid.size),
            "chunks": self._result.chunks,
            "max_lanes": self._max_lanes,
            "rounds": self.rounds,
            "gossip_bits": self.gossip_metrics.total_bits,
            "queries_answered": self.queries_answered,
            "query_bits": self.query_metrics.total_bits,
            "epoch": self.epoch,
            "rebuilds": self.rebuilds,
            "answers_degraded": self.answers_degraded,
            "stale_lanes": int(self.stale_lanes().size),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QuantileService(n={self.n}, eps={self._eps}, "
            f"grid={self._result.grid.size}, rounds={self.rounds}, "
            f"queries={self.queries_answered})"
        )
