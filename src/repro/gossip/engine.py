"""Synchronous round engine for message-level gossip protocols.

:func:`run_protocol_vectorized` executes a whole round as numpy array
gathers/scatters for protocols implementing
:class:`~repro.gossip.protocol.BatchGossipProtocol`.  Its per-node
reference is the asyncio engine over the in-process
:class:`~repro.net.transport.ChannelTransport`
(:func:`repro.net.runner.run_protocol_asyncio`), which drives the same
protocol objects one ``act`` / ``serve_pull`` / ``on_receive`` call per
node per round; the equivalence suite holds the two bit-identical.

:func:`run_protocol` dispatches between them: ``env.engine="asyncio"``
runs the live backend, anything else the vectorized engine.  Both draw
their randomness (failure masks, then partners) through the shared
:func:`draw_round_inputs`, called from :func:`begin_round` or, one round
ahead, from the vectorized engine's prefetch thread, so a fixed seed
yields the same execution on either.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ThreadPoolExecutor, wait
from time import perf_counter
from typing import Any, Callable, List, Optional, Tuple, Union

import numpy as np

from repro.exceptions import ConvergenceError, ProtocolError
from repro.faults.injectors import FaultInjector, RoundFaults
from repro.gossip.env import GossipEnv, resolve_env
from repro.gossip.failures import FailureModel, NoFailures
from repro.gossip.metrics import NetworkMetrics, RoundRecord
from repro.gossip.protocol import BatchAction, BatchGossipProtocol, GossipProtocol
from repro.obs.tracer import get_tracer
from repro.topology.dynamic import RoundState, TopologyProcess, resolve_topology_process
from repro.utils.views import readonly
from repro.topology.sampler import PeerSampler, resolve_peer_sampler
from repro.utils.rand import RandomSource


def require_batch_protocol(protocol: GossipProtocol) -> None:
    """Raise unless ``protocol`` implements the batch contract.

    Every engine requires :class:`BatchGossipProtocol`: the vectorized
    engine calls its array methods, and the asyncio engine delivers
    concurrently, which is sound only under its delivery-order
    independence contract.
    """
    if not isinstance(protocol, BatchGossipProtocol):
        raise ProtocolError(
            f"protocol {protocol.name!r} does not implement BatchGossipProtocol "
            "(act_batch / receive_batch and delivery-order independence), "
            "which every gossip engine requires"
        )


class EngineResult:
    """Outcome of running a protocol to completion.

    ``outputs`` (the protocol's per-node Python-list output, the historical
    surface) is materialized lazily on first access; numeric wrappers read
    ``outputs_array`` instead, which asks the protocol for its native numpy
    array and never builds the ``O(n)`` list of Python floats — at
    n = 10⁶ that list dominated the cost of a whole substrate run.
    """

    def __init__(
        self,
        metrics: NetworkMetrics,
        rounds: int,
        completed: bool,
        protocol_name: str = "",
        outputs: Optional[List[Any]] = None,
        protocol: Optional[GossipProtocol] = None,
        extra: Optional[dict] = None,
    ) -> None:
        self.metrics = metrics
        self.rounds = rounds
        self.completed = completed
        self.protocol_name = protocol_name
        self.extra = extra if extra is not None else {}
        self._protocol = protocol
        self._outputs = outputs

    @property
    def outputs(self) -> List[Any]:
        if self._outputs is None and self._protocol is not None:
            self._outputs = self._protocol.outputs()
        return self._outputs

    @property
    def outputs_array(self) -> np.ndarray:
        """The outputs as a float array, bypassing the Python list."""
        native = getattr(self._protocol, "outputs_array", None)
        if native is not None:
            return native()
        return np.asarray(self.outputs, dtype=float)


#: Shared read-only boolean masks, one per (n, value) seen: the failure-free
#: fast path hands these out instead of allocating fresh masks every round.
_MASK_CACHE: dict = {}


def _cached_mask(n: int, value: bool) -> np.ndarray:
    key = (n, value)
    mask = _MASK_CACHE.get(key)
    if mask is None:
        mask = readonly(np.full(n, value, dtype=bool))
        if len(_MASK_CACHE) > 128:
            _MASK_CACHE.clear()
        _MASK_CACHE[key] = mask
    return mask


def begin_run(
    protocol: GossipProtocol,
    rng: Union[None, int, RandomSource],
    metrics: Optional[NetworkMetrics],
    env: Optional[GossipEnv],
) -> Tuple[RandomSource, GossipEnv, NetworkMetrics, Optional[PeerSampler]]:
    """Run prologue shared by every engine, the asyncio runner included.

    Returns the run's stream, its (resolved) environment, the metrics
    accumulator and the static peer sampler (``None`` under a topology
    process, which supplies a sampler per round), after
    :func:`start_schedules`.
    """
    env = resolve_env(env)
    source = rng if isinstance(rng, RandomSource) else RandomSource(rng)
    stats = metrics if metrics is not None else NetworkMetrics()
    sampler = start_schedules(env, protocol.n, stats)
    protocol.begin()
    return source, env, stats, sampler


def start_schedules(
    env: GossipEnv, n: int, stats: NetworkMetrics
) -> Optional[PeerSampler]:
    """Put an ``n``-node run on the round clock of ``stats``; return its
    static peer sampler (``None`` under a topology process).

    The env's injector, topology process and failure model see each round
    at the index of its ``stats`` record, so the runs that accumulate into
    one metrics object meet one schedule.  A run that begins at metrics
    round 0 restarts the injector and the process, which replay from their
    start; nothing else restarts them.
    """
    process = resolve_topology_process(env.topology_process, n)
    if stats.rounds == 0:
        if env.faults is not None:
            env.faults.begin()
        if process is not None:
            process.begin()
    if process is not None:
        return None
    return resolve_peer_sampler(env.topology, sampling=env.peer_sampling, n=n)


def finish_run(
    protocol: GossipProtocol,
    stats: NetworkMetrics,
    rounds: int,
    completed: bool,
    max_rounds: int,
    raise_on_budget: bool,
) -> EngineResult:
    if not completed and raise_on_budget:
        raise ConvergenceError(
            f"protocol {protocol.name!r} did not finish within {max_rounds} rounds"
        )
    return EngineResult(
        metrics=stats,
        rounds=rounds,
        completed=completed,
        protocol_name=protocol.name,
        protocol=protocol,
    )


#: A round's draws from the run's stream: failure mask, partners.
RoundInputs = Tuple[Optional[np.ndarray], np.ndarray]


def draw_round_inputs(
    round_index: int,
    n: int,
    source: RandomSource,
    failures: FailureModel,
    sampler: PeerSampler,
) -> RoundInputs:
    """A round's draws from the run's stream, in stream order.

    The failure model's mask (``None`` under :class:`NoFailures`, which
    draws nothing), then every node's partner.  Nothing else a round needs
    touches ``source``, so this is the one function that decides the run
    stream's layout: :func:`begin_round` calls it inline, and the prefetch
    worker of :func:`run_protocol_vectorized` calls it one round ahead.
    """
    mask = _draw_failure_mask(round_index, n, source, failures)
    return mask, sampler.draw_round(source)


def _draw_failure_mask(
    round_index: int, n: int, source: RandomSource, failures: FailureModel
) -> Optional[np.ndarray]:
    if isinstance(failures, NoFailures):
        return None
    return failures.failure_mask(round_index, n, source)


def _fold_outage(
    n: int,
    mask: Optional[np.ndarray],
    state: Optional[RoundState],
    round_faults: Optional[RoundFaults],
) -> np.ndarray:
    """The union of the failure mask, the departed and the suppressed."""
    failed = mask
    if state is not None:
        failed = ~state.active if failed is None else failed | ~state.active
    if round_faults is not None:
        suppressed = round_faults.suppressed
        failed = suppressed if failed is None else failed | suppressed
    return _cached_mask(n, False) if failed is None else failed


def round_outage(
    round_index: int,
    n: int,
    source: RandomSource,
    failures: FailureModel,
    process: Optional[TopologyProcess] = None,
    faults: Optional[FaultInjector] = None,
) -> Tuple[np.ndarray, Optional[PeerSampler], Optional[RoundFaults]]:
    """Which nodes sit out round ``round_index``, for every substrate.

    ``round_index`` is on the metrics clock (:func:`start_schedules`).  A
    node is out if the failure model fires, *or* the topology process has
    it departed, *or* the fault injector suppresses it (crash/drop).  The
    failure model draws from ``source``; process and injector from their
    own streams.  Returns the failed mask, the process's round sampler and
    the injector's :class:`~repro.faults.injectors.RoundFaults` (``None``
    without a process / an injector).
    """
    mask = _draw_failure_mask(round_index, n, source, failures)
    state = process.round_state(round_index) if process is not None else None
    round_faults = faults.draw(round_index, n) if faults is not None else None
    failed = _fold_outage(n, mask, state, round_faults)
    return failed, state.sampler if state is not None else None, round_faults


def begin_round(
    protocol: GossipProtocol,
    round_index: int,
    n: int,
    source: RandomSource,
    failures: FailureModel,
    stats: NetworkMetrics,
    sampler: Optional[PeerSampler],
    process: Optional[TopologyProcess] = None,
    faults: Optional[FaultInjector] = None,
    drawn: Optional[Callable[[], RoundInputs]] = None,
) -> Tuple[RoundRecord, np.ndarray, np.ndarray]:
    """Shared per-round prologue: accounting, the round's outage, partners.

    The outage composes as in :func:`round_outage`, at the index of the
    round's metrics record; ``round_index`` is the protocol's own.  A
    process's sampler only returns active targets, so departed nodes
    neither act nor receive.  The injector's decision for the round goes to
    :meth:`~repro.gossip.protocol.GossipProtocol.on_round_faults`, where a
    protocol applies the message-level kinds it can express (the pull
    windows of :mod:`repro.core.tournament` apply all of them).

    ``drawn`` hands over the round's :func:`draw_round_inputs` when they
    were drawn ahead (the prefetch of :func:`run_protocol_vectorized`);
    it is called where the inline draw would run.
    """
    record = stats.begin_round(label=protocol.name)
    clock = record.round_index
    state = process.round_state(clock) if process is not None else None
    if drawn is None:
        round_sampler = sampler if state is None else state.sampler
        assert round_sampler is not None  # only a process leaves no sampler
        mask, partners = draw_round_inputs(clock, n, source, failures, round_sampler)
    else:
        mask, partners = drawn()
    round_faults = faults.draw(clock, n) if faults is not None else None
    failed = _fold_outage(n, mask, state, round_faults)
    if round_faults is not None:
        stats.record_faults_injected(round_faults.injected)
        protocol.on_round_faults(round_index, round_faults)
    stats.record_failures(int(np.count_nonzero(failed)), record)
    return record, failed, partners


#: Smallest ``n`` whose run draws each round's inputs one round ahead on
#: the prefetch thread.  On two vCPUs a thread hand-off costs about 0.1 ms
#: per round and a draw about 4.6 ns per node, so the overlap pays from
#: about 2**16 nodes; smaller runs draw inline.
PREFETCH_MIN_NODES = 1 << 16

#: ``(pid, executor)`` of this process's prefetch thread.
_PREFETCHER: Optional[Tuple[int, ThreadPoolExecutor]] = None


def _prefetch_thread() -> ThreadPoolExecutor:
    """This process's one draw thread, started on first use.

    Keyed by pid: a forked child (a ``run_trials`` pool worker) inherits
    the parent's executor but not its thread, and a task queued there
    would never run, so the child starts its own.
    """
    global _PREFETCHER
    pid = os.getpid()
    if _PREFETCHER is None or _PREFETCHER[0] != pid:
        _PREFETCHER = (
            pid,
            ThreadPoolExecutor(max_workers=1, thread_name_prefix="gossip-prefetch"),
        )
    return _PREFETCHER[1]


def run_protocol_vectorized(
    protocol: GossipProtocol,
    rng: Union[None, int, RandomSource] = None,
    max_rounds: int = 10_000,
    metrics: Optional[NetworkMetrics] = None,
    raise_on_budget: bool = True,
    on_round: Optional[Callable[[RoundRecord, float], None]] = None,
    env: Optional[GossipEnv] = None,
) -> EngineResult:
    """Run a batch-capable protocol one whole round per numpy operation.

    Each round costs a handful of array operations instead of ``O(n)``
    Python calls, with the same random stream, accounting and outputs as
    the per-node asyncio engine over channels.  ``max_rounds`` is a safety
    budget: exceeding it raises :class:`ConvergenceError` (or returns
    ``completed=False`` when ``raise_on_budget`` is False).  ``on_round``
    observes each executed round as ``on_round(record, elapsed)`` after
    all of its RNG draws (default: the ambient tracer's hook), so seeded
    runs are bit-identical with or without it.  Under the env's
    ``topology_process`` departed nodes neither act nor receive, so
    conserved aggregates (push-sum mass/weight) are preserved; failure
    model, process and fault injector compose as in :func:`round_outage`.

    Prefetch: in uniform gossip who contacts whom never depends on node
    state, so while round ``r`` runs, one background thread draws round
    ``r + 1``'s :func:`draw_round_inputs` (failure mask, then partners)
    from the same stream, in the same order as the inline draw: every
    seeded run is byte-identical either way.  The compute-bound draw then
    overlaps the memory-bound gathers and scatters on the second core.
    A run prefetches when ``n >= PREFETCH_MIN_NODES`` (below it the
    hand-off costs more than the draw), it has no ``topology_process``
    (whose round state picks the round's sampler) and its sampler keeps no
    per-round state (uniform and neighbour do, round-robin does not).
    The bookkeeping stays on the calling thread in the inline order.  A
    draw still in flight is joined before ``on_round`` runs, so the hook
    never shares the machine with it.  The draw for the round after the
    last is speculative: when the run ends, raising or not, it is joined
    and the stream is rolled back to its state after the last draw a
    round used, so a caller reusing ``rng`` sees the sequential state.
    """
    require_batch_protocol(protocol)
    n = protocol.n
    source, env, stats, sampler = begin_run(protocol, rng, metrics, env)
    failures, process, faults = env.failure_model, env.topology_process, env.faults
    hook = on_round if on_round is not None else get_tracer().on_round
    prefetch = n >= PREFETCH_MIN_NODES and sampler is not None and sampler.stateless
    bit_generator = source.generator.bit_generator
    pending: Optional[Future] = None
    used_state: Any = None

    round_index = 0
    completed = protocol.is_done(round_index)
    try:
        while not completed and round_index < max_rounds:
            if hook is not None:
                round_started = perf_counter()
            # this round consumes the draw made ahead, so it is no longer
            # speculative
            drawn = pending.result if pending is not None else None
            pending = None
            record, failed, partners = begin_round(
                protocol, round_index, n, source, failures, stats, sampler,
                process, faults, drawn,
            )
            if prefetch and round_index + 1 < max_rounds:
                used_state = bit_generator.state
                pending = _prefetch_thread().submit(
                    draw_round_inputs, record.round_index + 1, n, source, failures,
                    sampler,
                )
            # rounds without failures reuse a shared all-True mask and skip
            # the negation and population-count passes
            alive = _cached_mask(n, True) if record.failed_nodes == 0 else ~failed

            action = protocol.act_batch(round_index, alive)
            if not isinstance(action, BatchAction):
                raise ProtocolError(
                    f"{protocol.name}: act_batch() must return a BatchAction, "
                    f"got {action!r}"
                )
            active = n - record.failed_nodes
            if action.kind == "mixed" and active > 0:
                if action.kinds is None or action.kinds.shape != (n,):
                    raise ProtocolError(
                        f"{protocol.name}: mixed act_batch() must set a length-n "
                        "kinds array"
                    )
                # Per-message sizes can depend on the partner (e.g. an empty
                # pull response), so accounting is delegated: receive_batch
                # returns the (count, bits_each) message groups it delivered.
                deliveries = protocol.receive_batch(round_index, alive, partners, action)
                if deliveries is None:
                    raise ProtocolError(
                        f"{protocol.name}: mixed receive_batch() must return "
                        "(count, bits) message groups"
                    )
                for count, bits in deliveries:
                    if count:
                        stats.record_messages(int(count), int(bits), record)
            elif action.kind != "idle" and active > 0:
                if action.kind in ("push", "pushpull"):
                    stats.record_messages(active, int(action.push_bits), record)
                if action.kind in ("pull", "pushpull"):
                    stats.record_messages(active, int(action.pull_bits), record)
                extra = protocol.receive_batch(round_index, alive, partners, action)
                for count, bits in extra or ():
                    if count:
                        stats.record_messages(int(count), int(bits), record)

            protocol.end_round(round_index)
            if hook is not None:
                if pending is not None:
                    wait((pending,))
                hook(record, perf_counter() - round_started)
            round_index += 1
            completed = protocol.is_done(round_index)
    finally:
        if pending is not None:
            # The draw for a round that never ran: wait for it, leave its
            # error (if any) unread with it, and roll the stream back.
            wait((pending,))
            bit_generator.state = used_state

    return finish_run(protocol, stats, round_index, completed, max_rounds, raise_on_budget)


def run_protocol(
    protocol: GossipProtocol,
    rng: Union[None, int, RandomSource] = None,
    max_rounds: int = 10_000,
    metrics: Optional[NetworkMetrics] = None,
    raise_on_budget: bool = True,
    on_round: Optional[Callable[[RoundRecord, float], None]] = None,
    env: Optional[GossipEnv] = None,
) -> EngineResult:
    """Run ``protocol`` until it reports completion.

    ``env.engine="asyncio"`` runs the protocol over a live transport
    (:func:`repro.net.run_protocol_asyncio`, in-process channel by
    default); ``None`` (and ``env=None``) or ``"vectorized"`` runs
    :func:`run_protocol_vectorized`.  The rest of the
    :class:`~repro.gossip.env.GossipEnv` is handed to the chosen engine
    whole (see :func:`run_protocol_vectorized`).

    A failure model, a topology process and a fault injector on one env
    compose as in :func:`round_outage`: a node sits out a round if *any* of
    them says so, so ``mu``-style guarantees apply to the union rate.
    """
    if env is not None and env.engine == "asyncio":
        # Imported lazily: repro.net imports this module for the round
        # scaffolding, so a top-level import would be a cycle.
        from repro.net.runner import run_protocol_asyncio

        runner: Callable[..., EngineResult] = run_protocol_asyncio
    else:
        runner = run_protocol_vectorized
    return runner(
        protocol,
        rng=rng,
        max_rounds=max_rounds,
        metrics=metrics,
        raise_on_budget=raise_on_budget,
        on_round=on_round,
        env=env,
    )
