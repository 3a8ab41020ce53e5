"""Experiment registry and uniform runner used by the CLI and benchmarks.

Besides the registry this module provides :func:`run_trials`, the parallel
multi-trial executor: every trial gets an independent child random stream
spawned deterministically from the master seed (see :mod:`repro.utils.rand`),
so results are identical whether trials run inline or across a process
pool, and are always returned in trial order.
"""

from __future__ import annotations

import atexit
import inspect
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.tables import format_table, rows_to_csv
from repro.exceptions import ConfigurationError
from repro.utils.rand import RandomSource, SeedLike, spawn_rngs
from repro.utils.views import readonly, readonly_view
from repro.experiments import (
    ablations,
    approx_rounds,
    baselines_compare,
    chaos,
    churn_sweep,
    exact_rounds,
    exact_scale,
    lower_bound,
    message_size,
    robustness,
    schedule_validation,
    self_rank,
    token_distribution,
    topology_sweep,
)


@dataclass(frozen=True)
class ExperimentSpec:
    """A named experiment: its run function, columns, and description."""

    name: str
    claim: str
    description: str
    run: Callable[..., List[Dict[str, object]]]
    columns: Sequence[str]


REGISTRY: Dict[str, ExperimentSpec] = {
    "exact-rounds": ExperimentSpec(
        name="exact-rounds",
        claim="Theorem 1.1",
        description="Exact quantile rounds: tournament Θ(log n) vs Kempe Θ(log² n)",
        run=exact_rounds.run,
        columns=exact_rounds.COLUMNS,
    ),
    "exact-scale": ExperimentSpec(
        name="exact-scale",
        claim="Theorem 1.1 at scale",
        description="Fully simulated exact quantiles at n ≥ 10⁴ on the vectorized substrates",
        run=exact_scale.run,
        columns=exact_scale.COLUMNS,
    ),
    "approx-rounds": ExperimentSpec(
        name="approx-rounds",
        claim="Theorem 1.2",
        description="Approximate quantile rounds: O(log log n + log 1/eps) and error ≤ eps",
        run=approx_rounds.run,
        columns=approx_rounds.COLUMNS,
    ),
    "lower-bound": ExperimentSpec(
        name="lower-bound",
        claim="Theorem 1.3",
        description="Information-spreading floor Ω(log log n + log 1/eps)",
        run=lower_bound.run,
        columns=lower_bound.COLUMNS,
    ),
    "robustness": ExperimentSpec(
        name="robustness",
        claim="Theorem 1.4",
        description="Robust approximate quantiles under per-round failures",
        run=robustness.run,
        columns=robustness.COLUMNS,
    ),
    "self-rank": ExperimentSpec(
        name="self-rank",
        claim="Corollary 1.5",
        description="Every node estimates its own quantile to within O(eps)",
        run=self_rank.run,
        columns=self_rank.COLUMNS,
    ),
    "schedules": ExperimentSpec(
        name="schedules",
        claim="Lemmas 2.2 / 2.12",
        description="Tournament schedule lengths and trajectory concentration",
        run=schedule_validation.run,
        columns=schedule_validation.COLUMNS,
    ),
    "baselines": ExperimentSpec(
        name="baselines",
        claim="Related work comparison",
        description="Tournament vs sampling vs doubling vs compacted doubling",
        run=baselines_compare.run,
        columns=baselines_compare.COLUMNS,
    ),
    "message-size": ExperimentSpec(
        name="message-size",
        claim="Appendix A",
        description="Per-message bit budgets across algorithms",
        run=message_size.run,
        columns=message_size.COLUMNS,
    ),
    "tokens": ExperimentSpec(
        name="tokens",
        claim="Algorithm 3, Step 7",
        description="Token split-and-distribute phases and per-node load",
        run=token_distribution.run,
        columns=token_distribution.COLUMNS,
    ),
    "ablations": ExperimentSpec(
        name="ablations",
        claim="Design-choice ablations",
        description="Truncated last iteration, Phase I, and final vote size K",
        run=ablations.run,
        columns=ablations.COLUMNS,
    ),
    "topology": ExperimentSpec(
        name="topology",
        claim="Beyond the complete graph",
        description="Gossip convergence across topologies vs the spectral gap",
        run=topology_sweep.run,
        columns=topology_sweep.COLUMNS,
    ),
    "churn": ExperimentSpec(
        name="churn",
        claim="Dynamic topologies",
        description="Convergence under churn and newscast-style edge resampling",
        run=churn_sweep.run,
        columns=churn_sweep.COLUMNS,
    ),
    "chaos": ExperimentSpec(
        name="chaos",
        claim="Graceful degradation",
        description="Degraded serving and epoch rebuilds under churn + injected faults",
        run=chaos.run,
        columns=chaos.COLUMNS,
    ),
}


#: Worker-process registry of attached shared arrays, keyed by kwarg name.
#: Populated by :func:`_worker_initializer`; the segments are kept referenced
#: for the worker's lifetime so the views stay valid.
_WORKER_SHARED_VIEWS: Dict[str, "np.ndarray"] = {}
_WORKER_SHARED_SEGMENTS: List[shared_memory.SharedMemory] = []

#: Spec describing one shared array: (kwarg name, shm name, shape, dtype str).
_SharedSpec = Tuple[str, str, Tuple[int, ...], str]

#: Parent-side registry of live shared segments, keyed by segment name.
#: Segments register here the moment they are created — before any copy or
#: pool work that could raise — and deregister when unlinked, so an
#: interpreter exit between creation and the ``finally`` cleanup (e.g. a
#: KeyboardInterrupt landing mid-copy, or a crashing worker tearing the
#: pool down) cannot leak ``/dev/shm`` segments.
_PARENT_SEGMENTS: Dict[str, shared_memory.SharedMemory] = {}


def _release_segment(segment: shared_memory.SharedMemory) -> None:
    """Close and unlink one parent-owned segment, tolerating re-entry."""
    _PARENT_SEGMENTS.pop(segment.name, None)
    try:
        segment.close()
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - already unlinked
        pass


def _cleanup_parent_segments() -> None:  # pragma: no cover - exit hook
    for segment in list(_PARENT_SEGMENTS.values()):
        _release_segment(segment)


atexit.register(_cleanup_parent_segments)


def _worker_initializer(specs: Tuple[_SharedSpec, ...] = ()) -> None:
    """Pool initializer: attach shared arrays.

    Shared arrays are attached once per worker and handed to every task as
    read-only keyword arguments, so large value arrays cross the process
    boundary through shared memory instead of being pickled per trial.
    """
    _WORKER_SHARED_VIEWS.clear()
    import multiprocessing

    own_tracker = multiprocessing.get_start_method(allow_none=False) != "fork"
    for name, shm_name, shape, dtype in specs:
        segment = shared_memory.SharedMemory(name=shm_name)
        if own_tracker:
            # The parent owns (and unlinks) the segment.  Under spawn /
            # forkserver the worker has its own resource tracker which
            # would claim the attached segment and emit spurious "leaked
            # shared_memory" warnings at exit; under fork the tracker is
            # shared with the parent and must keep its entry.
            try:
                from multiprocessing import resource_tracker

                resource_tracker.unregister(segment._name, "shared_memory")
            except Exception:  # pragma: no cover - CPython implementation detail
                pass
        _WORKER_SHARED_SEGMENTS.append(segment)
        view = readonly(np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf))
        _WORKER_SHARED_VIEWS[name] = view


def _run_task_with_shared(
    task: Callable[..., Any], index: int, rng: RandomSource
) -> Any:
    """Module-level trampoline: forwards the worker's shared views to the task."""
    return task(index, rng, **_WORKER_SHARED_VIEWS)


def run_trials(
    task: Callable[[int, RandomSource], Any],
    trials: int,
    seed: SeedLike = None,
    workers: Optional[int] = None,
    shared: Optional[Mapping[str, "np.ndarray"]] = None,
) -> List[Any]:
    """Run ``task(trial_index, rng)`` once per trial, optionally in parallel.

    Every trial receives an independent child :class:`RandomSource` spawned
    from ``seed`` in trial order, so the set of random streams — and hence
    every result — is the same for any worker count.  Results are returned
    ordered by trial index regardless of completion order.

    Parameters
    ----------
    task:
        A picklable callable (module-level function or
        :func:`functools.partial` of one) taking ``(trial_index, rng)``.
        When ``shared`` is given the task additionally receives each shared
        array as a keyword argument: ``task(index, rng, name=array, ...)``.
    trials:
        Number of trials to run.
    seed:
        Master seed; child streams are spawned deterministically from it.
    workers:
        ``None`` or ``<= 1`` runs inline; larger values use a
        ``concurrent.futures`` process pool of that size.
    shared:
        Optional mapping of keyword name to numpy array.  The arrays are
        published to the worker processes once, through POSIX shared memory
        (``multiprocessing.shared_memory``), instead of being pickled into
        every task submission — at large ``n`` this removes the dominant
        serialization cost of fan-out experiments.  Workers receive
        read-only views; tasks must copy before mutating.  The inline path
        passes the arrays through unchanged (also read-only, for parity).
    """
    if trials < 0:
        raise ConfigurationError("trials must be non-negative")
    shared_arrays: Dict[str, np.ndarray] = {}
    for name, array in (shared or {}).items():
        shared_arrays[name] = readonly_view(np.ascontiguousarray(array))
    rngs = spawn_rngs(seed, trials)
    if workers is None or workers <= 1 or trials <= 1:
        return [task(index, rng, **shared_arrays) for index, rng in enumerate(rngs)]

    segments: List[shared_memory.SharedMemory] = []
    specs: List[_SharedSpec] = []
    try:
        for name, arr in shared_arrays.items():
            segment = shared_memory.SharedMemory(
                create=True, size=max(int(arr.nbytes), 1)
            )
            # Register for cleanup *at creation time*: the copy below (or a
            # later submission) may raise, and the atexit hook covers hard
            # interpreter exits the ``finally`` block never sees.
            segments.append(segment)
            _PARENT_SEGMENTS[segment.name] = segment
            if arr.size:
                np.ndarray(arr.shape, dtype=arr.dtype, buffer=segment.buf)[...] = arr
            specs.append((name, segment.name, arr.shape, arr.dtype.str))
        with ProcessPoolExecutor(
            max_workers=min(workers, trials),
            initializer=_worker_initializer,
            initargs=(tuple(specs),),
        ) as pool:
            if specs:
                futures = [
                    pool.submit(_run_task_with_shared, task, index, rng)
                    for index, rng in enumerate(rngs)
                ]
            else:
                futures = [
                    pool.submit(task, index, rng) for index, rng in enumerate(rngs)
                ]
            return [future.result() for future in futures]
    finally:
        for segment in segments:
            _release_segment(segment)


def run_experiment(
    name: str,
    output: str = "table",
    workers: Optional[int] = None,
    **kwargs,
) -> str:
    """Run a registered experiment and render its result rows.

    Parameters
    ----------
    name:
        Key in :data:`REGISTRY`.
    output:
        ``"table"`` (aligned text), ``"csv"``, or ``"rows"`` (repr of the raw
        row dictionaries).
    workers:
        Optional process-pool size for experiments whose ``run`` function
        supports parallel trials; asking for parallelism from one that does
        not is an error (``workers=1`` is always accepted).
    kwargs:
        Forwarded to the experiment's ``run`` function (sizes, trials, ...).
    """
    try:
        spec = REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {name!r}; available: {sorted(REGISTRY)}"
        ) from None
    accepted = inspect.signature(spec.run).parameters
    if workers is not None:
        if "workers" in accepted:
            kwargs["workers"] = workers
        elif workers > 1:
            raise ConfigurationError(
                f"experiment {name!r} does not support parallel trials"
            )
    unknown = sorted(key for key in kwargs if key not in accepted)
    if unknown:
        raise ConfigurationError(
            f"experiment {name!r} does not accept parameter(s) {unknown}; "
            f"it takes {sorted(accepted)}"
        )
    rows = spec.run(**kwargs)
    if output == "rows":
        return repr(rows)
    if output == "csv":
        return rows_to_csv(rows, columns=spec.columns)
    if output == "table":
        title = f"[{spec.name}] {spec.claim}: {spec.description}"
        return format_table(rows, columns=spec.columns, title=title)
    raise ConfigurationError(f"unknown output format {output!r}")
