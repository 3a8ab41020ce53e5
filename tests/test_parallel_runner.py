"""Determinism and ordering tests for the parallel multi-trial executor."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.approx_rounds import run as run_approx
from repro.experiments.runner import run_experiment, run_trials


def _draw_task(trial_index, rng):
    """Module-level so the process pool can pickle it."""
    return (trial_index, int(rng.integers(0, 1_000_000)))


def _failing_task(trial_index, rng):
    if trial_index == 2:
        raise RuntimeError("boom")
    return trial_index


def test_run_trials_is_deterministic_across_worker_counts():
    inline = run_trials(_draw_task, 8, seed=13, workers=1)
    pooled = run_trials(_draw_task, 8, seed=13, workers=4)
    assert inline == pooled


def test_run_trials_preserves_trial_order():
    results = run_trials(_draw_task, 6, seed=0, workers=3)
    assert [index for index, _ in results] == list(range(6))


def test_run_trials_gives_each_trial_an_independent_stream():
    draws = [value for _, value in run_trials(_draw_task, 10, seed=5)]
    assert len(set(draws)) > 1


def test_run_trials_propagates_worker_exceptions():
    with pytest.raises(RuntimeError, match="boom"):
        run_trials(_failing_task, 4, seed=0, workers=2)


def test_run_trials_rejects_negative_trials():
    with pytest.raises(ConfigurationError):
        run_trials(_draw_task, -1, seed=0)


def test_approx_rounds_rows_identical_for_any_worker_count():
    kwargs = dict(
        sizes=(64, 128), eps_values=(0.2,), phis=(0.5,), trials=2, seed=9
    )
    serial = run_approx(workers=1, **kwargs)
    parallel = run_approx(workers=4, **kwargs)
    assert serial == parallel


def test_run_experiment_forwards_workers():
    kwargs = dict(sizes=[64], eps_values=(0.2,), phis=(0.5,), trials=2, seed=9)
    serial = run_experiment("approx-rounds", output="rows", workers=1, **kwargs)
    parallel = run_experiment("approx-rounds", output="rows", workers=2, **kwargs)
    assert serial == parallel


def test_run_experiment_rejects_parallelism_without_support():
    with pytest.raises(ConfigurationError):
        run_experiment("tokens", output="rows", workers=4)


# ---- shared-memory value arrays ---------------------------------------------


def _shared_sum_task(trial_index, rng, values=None, weights=None):
    """Module-level so the process pool can pickle it."""
    assert values is not None and weights is not None
    assert not values.flags.writeable  # read-only views on both paths
    return float(values[trial_index] * weights[trial_index]) + float(
        rng.integers(0, 1000)
    )


def _shared_mutation_task(trial_index, rng, values=None):
    values[0] = -1.0  # must raise: shared views are read-only
    return 0.0


def test_run_trials_shared_arrays_identical_inline_and_pooled():
    values = np.arange(16.0)
    weights = np.linspace(1.0, 2.0, 16)
    shared = {"values": values, "weights": weights}
    inline = run_trials(_shared_sum_task, 6, seed=4, shared=shared)
    pooled = run_trials(_shared_sum_task, 6, seed=4, workers=3, shared=shared)
    assert inline == pooled


def test_run_trials_shared_arrays_are_read_only():
    with pytest.raises(ValueError):
        run_trials(_shared_mutation_task, 2, seed=0, shared={"values": np.ones(4)})
    with pytest.raises(ValueError):
        run_trials(
            _shared_mutation_task, 2, seed=0, workers=2,
            shared={"values": np.ones(4)},
        )


def test_run_trials_shared_arrays_do_not_leak_segments():
    from multiprocessing import shared_memory

    values = np.arange(64.0)
    results = run_trials(
        _shared_sum_task, 4, seed=2, workers=2,
        shared={"values": values, "weights": values},
    )
    assert len(results) == 4
    # the parent unlinked its segments; re-attaching by a fresh name works,
    # proving the namespace is usable (a leak would eventually exhaust it)
    probe = shared_memory.SharedMemory(create=True, size=8)
    probe.close()
    probe.unlink()


def test_run_trials_shared_empty_mapping_matches_plain_path():
    plain = run_trials(_draw_task, 5, seed=8, workers=2)
    with_empty = run_trials(_draw_task, 5, seed=8, workers=2, shared={})
    assert plain == with_empty


def _crashing_shared_task(trial_index, rng, values=None):
    """Module-level so the process pool can pickle it."""
    if trial_index == 1:
        raise RuntimeError("shared boom")
    return float(values[trial_index])


def _dying_shared_task(trial_index, rng, values=None):
    import os

    os._exit(3)  # hard worker death -> BrokenProcessPool in the parent


def test_run_trials_failing_worker_does_not_leak_segments(monkeypatch):
    """Segments must be registered for cleanup at creation time, so a task
    exception (or any failure after creation) cannot leak /dev/shm."""
    from multiprocessing import shared_memory

    from repro.experiments import runner as runner_module

    created = []
    real = shared_memory.SharedMemory

    class Recording(real):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if kwargs.get("create"):
                created.append(self.name)

    monkeypatch.setattr(runner_module.shared_memory, "SharedMemory", Recording)
    values = np.arange(8.0)
    with pytest.raises(RuntimeError, match="shared boom"):
        run_trials(
            _crashing_shared_task, 4, seed=0, workers=2,
            shared={"values": values},
        )
    assert created
    for name in created:
        with pytest.raises(FileNotFoundError):
            real(name=name)  # unlinked: re-attach must fail
    assert not runner_module._PARENT_SEGMENTS


def test_run_trials_dead_worker_does_not_leak_segments(monkeypatch):
    from concurrent.futures.process import BrokenProcessPool
    from multiprocessing import shared_memory

    from repro.experiments import runner as runner_module

    created = []
    real = shared_memory.SharedMemory

    class Recording(real):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if kwargs.get("create"):
                created.append(self.name)

    monkeypatch.setattr(runner_module.shared_memory, "SharedMemory", Recording)
    with pytest.raises(BrokenProcessPool):
        run_trials(
            _dying_shared_task, 2, seed=0, workers=2,
            shared={"values": np.arange(4.0)},
        )
    assert created
    for name in created:
        with pytest.raises(FileNotFoundError):
            real(name=name)
    assert not runner_module._PARENT_SEGMENTS


def test_parent_segment_registry_survives_double_release():
    from repro.experiments.runner import _PARENT_SEGMENTS, _release_segment
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(create=True, size=8)
    _PARENT_SEGMENTS[segment.name] = segment
    _release_segment(segment)
    assert segment.name not in _PARENT_SEGMENTS
    _release_segment(segment)  # idempotent: already unlinked
