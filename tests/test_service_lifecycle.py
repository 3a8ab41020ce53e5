"""QuantileService lifecycle: churn staleness, degraded answers, epochs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.service import QuantileService
from repro.exceptions import ConfigurationError
from repro.faults import (
    CrashRestart,
    FaultInjector,
    MessageDrop,
    ValueCorruption,
)
from repro.gossip.env import GossipEnv
from repro.topology import ChurnProcess
from repro.utils.rand import RandomSource

seeds = st.integers(min_value=0, max_value=2_000)

EPS = 0.15


def _service(n=96, seed=7, churn_rate=0.03, faults=None, **kwargs):
    values = RandomSource(seed).random(n) * 100.0
    churn = (
        ChurnProcess(n, churn_rate=churn_rate, rng=seed + 1)
        if churn_rate is not None else None
    )
    service = QuantileService(
        values, eps=EPS, rng=seed, max_lanes=4,
        churn_process=churn, env=GossipEnv(faults=faults), **kwargs
    )
    return service, values, churn


def _shift_band(service, values, churn, seed, lo=0.4, hi=0.6, scale=2.0):
    """Move one quantile band of the active values far upward: a genuine
    distribution shift (uniform churn alone preserves ranks in
    expectation, so it barely moves lane drift by design)."""
    active = (
        churn.active if churn is not None
        else np.ones(values.size, dtype=bool)
    )
    low, high = np.quantile(values[active], [lo, hi])
    band = np.flatnonzero(active & (values >= low) & (values < high))
    top = float(values[active].max())
    rng = RandomSource(seed + 2)
    for index in band:
        new_value = top * scale + float(rng.random())
        values[index] = new_value
        service.update_value(int(index), new_value)
    return band


# ------------------------------------------------------------ plumbing


def test_ctor_validates_churn_process():
    values = RandomSource(0).random(32)
    with pytest.raises(ConfigurationError):
        QuantileService(values, churn_process="nope")
    with pytest.raises(ConfigurationError):
        QuantileService(
            values, churn_process=ChurnProcess(64, churn_rate=0.1, rng=0)
        )


def test_attach_faults_validates_and_replaces():
    service, _, _ = _service(n=48, churn_rate=None)
    with pytest.raises(ConfigurationError):
        service.attach_faults("nope")
    assert service.faults is None
    injector = FaultInjector(MessageDrop(0.1), rng=0)
    service.attach_faults(injector)
    assert service.faults is injector
    service.attach_faults(None)
    assert service.faults is None


def test_lifecycle_plumbing_alone_leaves_answers_untouched():
    """Attaching a churn process (without stepping it) must not perturb
    the build: the seeded gossip stream is byte-identical."""
    plain, _, _ = _service(n=64, churn_rate=None)
    wired, _, _ = _service(n=64, churn_rate=0.05)
    assert np.array_equal(plain.grid_answers, wired.grid_answers)
    assert wired.epoch == 0
    assert not wired.degraded
    assert wired.summary()["stale_lanes"] == 0


def test_fresh_service_answers_are_not_degraded():
    service, _, _ = _service(n=64)
    answer = service.quantile(0.5)
    assert not answer.degraded
    assert answer.epoch == 0
    # grid-bracket accuracy = query accuracy + bracket width; the fresh
    # bound is at least the fault-free query accuracy, with no widening
    assert answer.accuracy >= service._query_accuracy


# ---------------------------------------------- degradation properties


@settings(max_examples=12, deadline=None)
@given(seed=seeds, rounds=st.integers(min_value=1, max_value=40))
def test_degraded_answers_never_tighter_than_fault_free_bound(seed, rounds):
    """However stale the service gets, an answer's advertised accuracy is
    never tighter than the fault-free bound — and strictly wider once the
    degraded flag is set."""
    service, values, churn = _service(seed=seed, churn_rate=0.05)
    probes = (0.1, 0.5, 0.9)
    fresh = {phi: service.quantile(phi).accuracy for phi in probes}
    service.advance_churn(rounds)
    _shift_band(service, values, churn, seed)
    for phi in probes:
        answer = service.quantile(phi)
        assert answer.accuracy >= fresh[phi] - 1e-12
        if answer.degraded:
            assert answer.accuracy > fresh[phi]
        assert np.isfinite(answer.value)


@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_service_never_crashes_under_chaos(seed):
    """Churn + every fault kind at once: every query gets an answer —
    degraded or refined, never an exception."""
    injector = FaultInjector(
        [MessageDrop(0.3), CrashRestart(0.1, downtime=2),
         ValueCorruption(0.3, magnitude=2.0)],
        rng=seed,
    )
    service, values, churn = _service(
        seed=seed, churn_rate=0.08, faults=injector
    )
    service.advance_churn(20)
    _shift_band(service, values, churn, seed)
    service.maybe_rebuild()
    for phi in np.linspace(0.05, 0.95, 7):
        answer = service.quantile(float(phi))
        assert np.isfinite(answer.accuracy)
        assert answer.accuracy >= service._query_accuracy - 1e-12
    assert service.summary()["queries_answered"] >= 7


@settings(max_examples=8, deadline=None)
@given(seed=seeds)
def test_validated_rebuild_restores_fresh_answers(seed):
    """An epoch rebuild that passes validation clears the degraded state:
    the next answers carry the new epoch and the fault-free accuracy."""
    service, values, churn = _service(seed=seed, churn_rate=0.04)
    fresh_accuracy = service.quantile(0.5).accuracy
    service.advance_churn(15)
    _shift_band(service, values, churn, seed)
    report = service.rebuild(incremental=True)
    if report.validated:  # fault-free rebuilds validate w.h.p.
        assert service.epoch == report.epoch == 1
        assert not service.degraded
        answer = service.quantile(0.5)
        assert not answer.degraded
        assert answer.epoch == 1
        assert answer.accuracy == pytest.approx(fresh_accuracy)


# -------------------------------------------------- deterministic paths


def test_shift_degrades_then_rebuild_restores():
    service, values, churn = _service(seed=3, churn_rate=0.03)
    baseline = service.quantile(0.9).accuracy
    service.advance_churn(20)
    band = _shift_band(service, values, churn, seed=3)
    assert band.size > 0
    assert service.degraded
    stale_before = service.stale_lanes()
    assert stale_before.size > 0
    degraded_answer = service.quantile(0.9)
    assert degraded_answer.degraded
    assert degraded_answer.accuracy > baseline

    report = service.rebuild(incremental=True)
    assert report.validated
    assert report.mode == "incremental"
    assert service.epoch == 1
    assert not service.degraded
    assert service.stale_lanes().size == 0
    fresh = service.quantile(0.9)
    assert not fresh.degraded
    assert fresh.epoch == 1
    assert fresh.accuracy == pytest.approx(baseline)
    assert service.summary()["rebuilds"] == 1
    # the pre-churn probe was fresh; only the mid-shift one was degraded
    assert service.summary()["answers_degraded"] == 1


def test_incremental_rebuild_runs_strictly_fewer_chunks():
    """A shift confined to the upper half of the distribution leaves the
    low lanes fresh, so the incremental rebuild re-runs strictly fewer
    chunks than the full grid."""
    incr_service, incr_values, incr_churn = _service(seed=5, churn_rate=0.02)
    full_service, full_values, full_churn = _service(seed=5, churn_rate=0.02)
    for service, values, churn in (
        (incr_service, incr_values, incr_churn),
        (full_service, full_values, full_churn),
    ):
        service.advance_churn(10)
        _shift_band(service, values, churn, seed=5, lo=0.55, hi=0.75)

    incremental = incr_service.rebuild(incremental=True)
    full = full_service.rebuild(incremental=False)
    assert full.chunks_run == full.full_chunks * full.attempts
    assert incremental.chunks_run / incremental.attempts < full.full_chunks
    assert incremental.lanes_rebuilt < full.lanes_rebuilt


def test_rebuild_with_no_stale_lanes_is_a_free_epoch_commit():
    service, _, _ = _service(seed=9, churn_rate=0.02)
    rounds_before = service.gossip_metrics.rounds
    report = service.rebuild(incremental=True)
    assert report.chunks_run == 0
    assert report.rounds == 0
    assert service.epoch == 1
    assert service.gossip_metrics.rounds == rounds_before


def test_failed_rebuild_backs_off_and_keeps_serving_degraded():
    """Overwhelming corruption makes validation fail: the rebuild retries
    with exponential backoff (visible as charged rounds), marks the lanes
    suspect, and the service keeps answering — degraded, not crashed."""
    service, values, churn = _service(
        seed=13, churn_rate=0.03,
        faults=None,
        max_rebuild_retries=2, rebuild_backoff=4,
    )
    service.advance_churn(15)
    _shift_band(service, values, churn, seed=13)
    # drop everything: every rebuild lane answers NaN, so validation
    # fails deterministically on every attempt
    service.attach_faults(FaultInjector(MessageDrop(1.0), rng=1))
    rounds_before = service.gossip_metrics.rounds
    report = service.rebuild(incremental=True)
    assert not report.validated
    assert report.attempts == 2
    assert report.backoff_rounds == 4  # 4 * 2**0; the final attempt fails
    assert service.gossip_metrics.rounds > rounds_before
    assert service.degraded
    # probe above the shifted band: that lane's rank moved by the whole
    # band mass, so it is stale, failed its rebuild, and stays degraded
    answer = service.quantile(0.9)
    assert answer.degraded
    assert np.isfinite(answer.value)
    # epoch did not advance — the baseline stays the last good epoch
    assert service.epoch == 0


def test_seeded_lifecycle_replays_bit_for_bit():
    """Same seeds, fresh constructions: the whole chaotic lifecycle —
    build, churn, shift, faulted rebuild — replays identically."""
    def run():
        injector = FaultInjector(
            [MessageDrop(0.15), ValueCorruption(0.2)], rng=23
        )
        service, values, churn = _service(
            seed=17, churn_rate=0.05, faults=injector
        )
        service.advance_churn(12)
        _shift_band(service, values, churn, seed=17)
        report = service.rebuild(incremental=True)
        answers = [service.quantile(phi).value for phi in (0.25, 0.5, 0.75)]
        return (
            service.grid_answers.copy(), answers, report.rounds,
            dict(injector.counters), service.epoch,
        )

    first = run()
    second = run()
    assert np.array_equal(first[0], second[0])
    assert first[1:] == second[1:]


def test_sketch_staleness_widens_accuracy_across_epochs():
    """Departures fold into the sketch bound at the epoch commit: a KLL
    sketch has no deletions, so departed values stay in forever and the
    advertised accuracy must widen to stay honest."""
    service, values, churn = _service(seed=19, churn_rate=0.08, sketch_k=64)
    base = service.sketch_accuracy()
    service.advance_churn(25)
    band = _shift_band(service, values, churn, seed=19)
    count_before = service.sketch.count
    report = service.rebuild(incremental=True)
    assert report.validated
    assert int(np.sum(~churn.active)) > 0
    assert service.sketch_accuracy() > base
    # pending updates were folded into the sketch at the epoch commit
    assert service.sketch.count == count_before + band.size


def test_auto_rebuild_fires_from_advance_churn():
    service, values, churn = _service(
        seed=29, churn_rate=0.05, auto_rebuild=True
    )
    service.advance_churn(10)
    # update_value also checks the trigger under auto_rebuild, so the
    # rebuild may fire mid-shift — either way an epoch must have advanced
    # by the next churn step.
    _shift_band(service, values, churn, seed=29)
    service.advance_churn(1)
    assert service.epoch >= 1
    assert service.summary()["rebuilds"] >= 1


def test_unrebuilt_lanes_keep_their_drift_across_rebuilds():
    """Repeated upward shifts rebuild only the high lanes; the low lanes
    are never rebuilt, so their drift must keep accumulating from the rank
    their answer had when it was committed, not restart at every epoch.
    Otherwise their answers slip past the stated accuracy while still
    reported fresh."""
    n, eps = 20_000, 0.05
    rng = np.random.default_rng(31)
    values = rng.random(n)
    service = QuantileService(values.copy(), eps=eps, rng=31)
    phis = service.grid
    for step in range(12):
        moved = rng.choice(n, size=n // 10, replace=False)
        readings = rng.random(moved.size) + float(step + 1)
        values[moved] = readings
        for node, reading in zip(moved.tolist(), readings.tolist()):
            service.update_value(node, reading)
        service.maybe_rebuild()
        ordered = np.sort(values)
        answers = service.batch_quantiles(phis)
        served = np.array([answer.value for answer in answers])
        left = np.searchsorted(ordered, served, side="left")
        right = np.searchsorted(ordered, served, side="right")
        errors = np.abs((left + right) / (2.0 * n) - phis)
        bounds = np.array([answer.accuracy for answer in answers])
        # a lane served fresh may carry up to eps/2 (the staleness
        # threshold) of drift beyond its stated accuracy
        assert np.all(errors <= bounds + eps / 2.0 + 1.0 / n), step
    assert service.epoch >= 1
