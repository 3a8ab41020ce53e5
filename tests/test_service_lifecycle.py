"""QuantileService lifecycle: churn staleness, degraded answers, epochs."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.service import REBUILD_ATTEMPTS, QuantileService
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
    service, values, churn = _service(seed=13, churn_rate=0.03)
    service.advance_churn(15)
    _shift_band(service, values, churn, seed=13)
    # drop everything: every rebuild lane answers NaN, so validation
    # fails deterministically on every attempt
    service.attach_faults(FaultInjector(MessageDrop(1.0), rng=1))
    rounds_before = service.gossip_metrics.rounds
    report = service.rebuild(incremental=True)
    assert not report.validated
    assert report.attempts == REBUILD_ATTEMPTS == 3
    # 8 * 2**0 + 8 * 2**1; the final attempt fails without a backoff
    assert report.backoff_rounds == 24
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


#: sha256 prefix over ``(value, accuracy, degraded, epoch)`` of every answer
#: in :func:`_served_answers`: quantile queries and rank-of probes after
#: churn and a shift (some degraded), then again after a faulted
#: incremental rebuild.  The served answers of a seeded lifecycle must not move.
SERVICE_ANSWER_PIN = "b279778fc2ef367b"


def _served_answers():
    import hashlib

    injector = FaultInjector([MessageDrop(0.15), ValueCorruption(0.2)], rng=23)
    service, values, churn = _service(seed=17, churn_rate=0.05, faults=injector)
    service.advance_churn(12)
    _shift_band(service, values, churn, seed=17)
    phis = (0.0, 0.1, 0.25, 0.37, 0.5, 0.75, 0.9, 1.0)
    probes = (-1.0, 25.0, 50.0, 250.0)
    answers = service.batch_quantiles(phis)
    answers += [service.rank_of(value) for value in probes]
    service.rebuild(incremental=True)
    answers += service.batch_quantiles(phis)
    answers += [service.rank_of(value) for value in probes]
    digest = hashlib.sha256()
    for answer in answers:
        digest.update(np.array([answer.value, answer.accuracy]).tobytes())
        digest.update(np.array([answer.degraded, answer.epoch], dtype=np.int64).tobytes())
    return digest.hexdigest()[:16]


def test_seeded_lifecycle_answers_pinned():
    assert _served_answers() == SERVICE_ANSWER_PIN


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


# ------------------------------------------- derived staleness thresholds


def _lift_lowest(service, values, count):
    """Move the ``count`` lowest values above every other value: each
    lane's answer loses exactly ``count / n`` of the mass below it."""
    for index in np.argsort(values)[:count]:
        service.update_value(int(index), 1000.0 + float(index))
    return count / values.size


def _fresh(n=96, seed=7, **kwargs):
    values = RandomSource(seed).random(n) * 100.0
    service = QuantileService(
        values.copy(), eps=EPS, rng=seed, max_lanes=4, **kwargs
    )
    return service, values


def test_every_lane_drifts_by_the_moved_mass():
    service, values = _fresh()
    moved = _lift_lowest(service, values, 5)
    assert np.allclose(service.lane_drift(), moved)


def test_lanes_go_stale_just_past_half_eps():
    """The staleness threshold is eps / 2: 7/96 of moved mass keeps every
    lane fresh, 8/96 makes every lane stale."""
    for count, stale in ((7, False), (8, True)):
        service, values = _fresh()
        moved = _lift_lowest(service, values, count)
        assert (moved > EPS / 2) is stale
        assert service.degraded is stale
        assert service.stale_lanes().size == (service.grid.size if stale else 0)
        assert service.quantile(0.5).degraded is stale


def test_maybe_rebuild_waits_until_drift_passes_eps():
    """Between eps / 2 and eps the service answers degraded but does not
    rebuild; past eps it rebuilds the stale lanes as a new epoch."""
    service, values = _fresh()
    _lift_lowest(service, values, 14)   # 0.146 <= eps
    assert service.degraded
    assert service.maybe_rebuild() is None
    assert service.epoch == 0

    service, values = _fresh()
    _lift_lowest(service, values, 15)   # 0.156 > eps
    report = service.maybe_rebuild()
    assert report is not None and report.validated
    assert report.lanes_rebuilt == service.grid.size
    assert service.epoch == 1
    assert not service.degraded


def test_degraded_answer_widens_by_exactly_its_lane_drift():
    """A stale answer keeps its epoch and value; only its bound grows, by
    the estimated drift of the serving lane."""
    service, values = _fresh()
    fresh = {phi: service.quantile(phi) for phi in (0.1, 0.45, 0.9)}
    moved = _lift_lowest(service, values, 10)
    for phi, before in fresh.items():
        after = service.quantile(phi)
        assert after.degraded
        assert after.epoch == 0
        assert after.value == before.value
        assert after.accuracy == pytest.approx(before.accuracy + moved)
    assert service.summary()["answers_degraded"] == 3


def test_rank_of_widens_by_the_worst_lane_drift():
    service, values = _fresh()
    fresh = service.rank_of(50.0)
    assert fresh.accuracy == pytest.approx(EPS + EPS / 2)
    moved = _lift_lowest(service, values, 10)
    stale = service.rank_of(50.0)
    assert stale.degraded
    assert stale.accuracy == pytest.approx(fresh.accuracy + moved)


def test_auto_rebuild_from_update_value_fires_only_past_eps():
    service, values = _fresh(auto_rebuild=True)
    order = np.argsort(values)
    reports = [
        service.update_value(int(index), 1000.0 + float(index))
        for index in order[:15]
    ]
    # the 15th lifted value is the first to push the drift past eps
    assert all(report is None for report in reports[:14])
    assert reports[14] is not None and reports[14].validated
    assert service.epoch == 1


def test_failed_rebuild_charges_doubling_backoff_on_the_round_clock():
    """The backoff waits are real, labelled rounds on the service clock:
    8 rounds after the first failed attempt, 16 after the second."""
    service, values = _fresh(keep_history=True)
    _lift_lowest(service, values, 20)
    service.attach_faults(FaultInjector(MessageDrop(1.0), rng=1))
    start = service.gossip_metrics.rounds
    report = service.rebuild(incremental=True)
    history = service.gossip_metrics.history[start:]
    labels = [record.label == "rebuild_backoff" for record in history]
    runs = []
    for waiting, group in itertools.groupby(labels):
        if waiting:
            runs.append(len(list(group)))
    assert runs == [8, 16]
    assert report.rounds == len(history)


def test_suspect_lanes_widen_answers_by_at_most_one():
    """A lane whose rebuild failed has infinite drift; its answers stay
    finite, widened by the full unit rank range."""
    service, values = _fresh()
    _lift_lowest(service, values, 20)
    service.attach_faults(FaultInjector(MessageDrop(1.0), rng=1))
    report = service.rebuild(incremental=True)
    assert not report.validated
    suspect = np.flatnonzero(np.isinf(service.lane_drift()))
    assert 0 < suspect.size == service.grid.size - report.lanes_rebuilt
    for lane in suspect:
        answer = service.quantile(float(service.grid[lane]))
        assert answer.degraded
        assert np.isfinite(answer.value)
        assert answer.accuracy == pytest.approx(EPS / 2 + 1.0)
    assert service.rank_of(50.0).accuracy == pytest.approx(EPS + EPS / 2 + 1.0)


def test_advance_churn_needs_a_process_and_non_negative_rounds():
    plain, _ = _fresh()
    with pytest.raises(ConfigurationError, match="no churn process"):
        plain.advance_churn(1)
    churned, _, _ = _service(n=64)
    with pytest.raises(ConfigurationError, match="non-negative"):
        churned.advance_churn(-1)
