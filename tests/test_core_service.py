"""Tests for the quantile-serving layer (one gossip pass, many queries)."""

import numpy as np
import pytest

from repro.core import all_quantiles
from repro.core.service import ANSWER_BITS, QuantileService, QueryAnswer
from repro.exceptions import ConfigurationError
from repro.gossip.env import GossipEnv
from repro.topology import ChurnProcess, ring
from repro.utils.rand import RandomSource


@pytest.fixture
def service(small_values) -> QuantileService:
    return QuantileService(small_values, eps=0.1, rng=3)


def _true_quantile(values: np.ndarray, phi: float) -> float:
    return float(np.quantile(values, phi))


def test_build_runs_one_fused_pass(service, small_values):
    assert service.n == small_values.size
    assert service.grid.size == 9
    assert service.rounds == service.gossip_metrics.rounds
    assert service.grid_answers.shape == (9,)
    # grid answers are real data values in increasing quantile order
    assert np.all(np.isfinite(service.grid_answers))
    assert np.all(np.diff(service.grid_answers) >= 0)


def test_grid_answers_track_true_quantiles(service, small_values):
    for index, phi in enumerate(service.grid):
        target = _true_quantile(small_values, float(phi))
        # values are the permutation of 1..256: 0.2 of rank space ≈ 51 values
        assert abs(service.grid_answers[index] - target) <= 0.2 * small_values.size


def test_quantile_query_serves_from_grid(service, small_values):
    answer = service.quantile(0.5)
    assert isinstance(answer, QueryAnswer)
    assert answer.grid_index == 4
    assert answer.phi == 0.5
    assert abs(answer.value - _true_quantile(small_values, 0.5)) <= (
        0.2 * small_values.size
    )
    # on-grid φ: accuracy is just the per-lane query accuracy (eps/2 default)
    assert answer.accuracy == pytest.approx(0.05)


def test_off_grid_phi_widens_the_accuracy_bound(service):
    on_grid = service.quantile(0.3)
    off_grid = service.quantile(0.33)
    assert off_grid.grid_index == on_grid.grid_index  # nearest lane serves
    assert off_grid.accuracy == pytest.approx(on_grid.accuracy + 0.03)


def test_queries_cost_bits_not_rounds(service):
    rounds_before = service.rounds
    answers = service.batch_quantiles([0.1, 0.25, 0.5, 0.75, 0.9])
    assert len(answers) == 5
    assert service.rounds == rounds_before  # zero additional gossip
    assert service.queries_answered == 5
    assert service.query_metrics.messages == 5
    assert service.query_metrics.total_bits == 5 * ANSWER_BITS
    assert service.query_metrics.rounds == 0
    # the build pass accounting is untouched by serving
    assert service.gossip_metrics.queries == 0


def test_rank_of_inverts_the_grid(service, small_values):
    # small_values is a permutation of 1..256, so value v has rank v/256
    for value, expected in [(64.0, 0.25), (128.0, 0.5), (230.0, 0.9)]:
        answer = service.rank_of(value)
        assert answer.grid_index is None  # the whole ladder answers
        assert abs(answer.phi - expected) <= answer.accuracy
        assert answer.accuracy == pytest.approx(0.1 + 0.05)
    assert service.queries_answered == 3


def test_rank_of_clips_to_unit_interval(service):
    assert service.rank_of(-1e9).phi >= 0.0
    assert service.rank_of(1e9).phi <= 1.0


def test_self_quantiles_come_from_the_build_pass(service, small_values):
    estimates = service.self_quantiles()
    truth = np.argsort(np.argsort(small_values)) / small_values.size
    errors = np.abs(estimates - truth)
    assert float(np.mean(errors <= 0.2)) > 0.95
    assert service.queries_answered == 0  # reading estimates is free


def test_query_validation(service):
    with pytest.raises(ConfigurationError):
        service.quantile(1.5)


def test_summary_keys(service):
    service.quantile(0.5)
    summary = service.summary()
    assert summary == {
        "n": 256,
        "eps": 0.1,
        "grid_targets": 9,
        "chunks": 1,
        "max_lanes": 32,
        "rounds": service.rounds,
        "gossip_bits": service.gossip_metrics.total_bits,
        "queries_answered": 1,
        "query_bits": ANSWER_BITS,
        "epoch": 0,
        "rebuilds": 0,
        "answers_degraded": 0,
        "stale_lanes": 0,
    }


def test_service_threads_build_parameters(small_values):
    service = QuantileService(
        small_values,
        eps=0.2,
        rng=7,
        max_lanes=2,
        env=GossipEnv(topology=ring(small_values.size, k=8),
                      dtype="float32", engine="vectorized"),
    )
    assert service.result.chunks == 2
    assert service.result.grid_values.dtype == np.float32
    answer = service.quantile(0.5)
    assert np.isfinite(answer.value)


def test_service_rejects_bad_build_parameters(small_values):
    # An unknown engine never reaches the service: the env rejects it.
    with pytest.raises(ConfigurationError, match="unknown engine"):
        GossipEnv(engine="turbo")
    with pytest.raises(ConfigurationError):
        QuantileService(
            small_values, eps=0.2, rng=8, env=GossipEnv(topology=ring(32, k=2))
        )


def test_service_rejects_a_topology_beside_a_churn_process(small_values):
    churn = ChurnProcess(small_values.size, churn_rate=0.05, rng=1)
    with pytest.raises(ConfigurationError, match="churn process"):
        QuantileService(
            small_values, eps=0.2, rng=8, churn_process=churn,
            env=GossipEnv(topology=ring(small_values.size, k=4)),
        )


def test_rebuild_runs_on_the_build_topology(monkeypatch):
    """Every chunk of a full rebuild runs on the ring the service was
    built on, not on the complete graph."""
    n = 400
    values = RandomSource(21).random(n) * 100.0
    topology = ring(n, k=8)
    service = QuantileService(
        values, eps=0.1, rng=22, env=GossipEnv(topology=topology)
    )
    seen = []
    run_approximation = all_quantiles.run_approximation

    def spy(*args, env=None, **kwargs):
        seen.append(env.topology)
        return run_approximation(*args, env=env, **kwargs)

    monkeypatch.setattr(all_quantiles, "run_approximation", spy)
    shifted = RandomSource(23).choice(n, size=int(0.6 * n), replace=False)
    for index in shifted:
        service.update_value(int(index), float(values[index]) + 1000.0)
    report = service.rebuild(incremental=False)
    assert report.chunks_run >= 1
    assert len(seen) == report.chunks_run
    assert all(network_topology is topology for network_topology in seen)


def test_sequential_build_serves_identically_shaped_answers(small_values):
    service = QuantileService(small_values, eps=0.2, rng=9, max_lanes=1)
    assert service.result.chunks == service.grid.size
    answer = service.quantile(0.4)
    assert answer.grid_index == 1
    assert np.isfinite(answer.value)


def test_deterministic_given_seed(small_values):
    first = QuantileService(small_values, eps=0.2, rng=RandomSource(11))
    second = QuantileService(small_values, eps=0.2, rng=RandomSource(11))
    assert np.array_equal(first.grid_answers, second.grid_answers)


def test_rebuilds_meet_attached_faults_on_the_service_round_clock(small_values):
    """A rebuild's rounds continue the service's round count, so a burst
    scheduled right after the build hits the rebuild's first rounds."""
    from repro.faults import Burst, FaultInjector, MessageDrop

    service = QuantileService(small_values, eps=0.1, rng=3, keep_history=True)
    built = service.rounds
    service.attach_faults(FaultInjector(Burst(MessageDrop(1.0), built, built + 2), rng=1))
    service.rebuild(incremental=False)
    failed = [record.failed_nodes for record in service.gossip_metrics.history]
    assert [round_ for round_, count in enumerate(failed) if count] == [built, built + 1]


# ------------------------------------------- the grid as the only store


def test_every_phi_is_served_by_its_nearest_lane(service):
    """Any φ in [0, 1], on or between grid targets or beyond the outer
    ones, is answered by the nearest lane with the distance added."""
    for phi in np.linspace(0.0, 1.0, 101):
        answer = service.quantile(float(phi))
        index = int(np.argmin(np.abs(service.grid - phi)))
        distance = abs(float(service.grid[index]) - phi)
        assert answer.grid_index == index
        assert answer.value == service.grid_answers[index]
        assert answer.accuracy == pytest.approx(distance + 0.05)
        assert not answer.degraded
    assert service.queries_answered == 101


def test_grid_answers_pass_the_rebuild_self_check(medium_values):
    """The build's grid answers meet the tolerance a rebuild validates
    against: every lane's true rank is within eps + query_accuracy."""
    service = QuantileService(medium_values, eps=0.1, rng=5)
    ordered = np.sort(medium_values)
    valid = service._validate_answers(ordered, service.grid, service.grid_answers)
    assert valid.all()


@pytest.mark.parametrize("phi", [-0.01, float("nan"), float("inf")])
def test_quantile_rejects_phi_outside_unit_interval(service, phi):
    with pytest.raises(ConfigurationError, match="phi"):
        service.quantile(phi)
    assert service.queries_answered == 0


def test_batch_quantiles_answers_like_single_queries(small_values):
    phis = [0.0, 0.12, 0.5, 0.77, 1.0]
    batched = QuantileService(small_values, eps=0.1, rng=3)
    single = QuantileService(small_values, eps=0.1, rng=3)
    assert batched.batch_quantiles(phis) == [single.quantile(phi) for phi in phis]
    assert batched.queries_answered == single.queries_answered == len(phis)


def test_query_accuracy_sets_the_on_grid_bound(small_values):
    service = QuantileService(small_values, eps=0.1, rng=3, query_accuracy=0.02)
    assert service.quantile(0.5).accuracy == pytest.approx(0.02)
    assert service.rank_of(128.0).accuracy == pytest.approx(0.1 + 0.02)


def test_rank_of_is_monotone_in_value(service):
    probes = np.linspace(-10.0, 270.0, 57)
    ranks = [service.rank_of(float(value)).phi for value in probes]
    assert np.all(np.diff(ranks) >= 0)
    assert ranks[0] == pytest.approx(0.05)
    assert ranks[-1] == pytest.approx(0.95)


def test_service_surface_has_no_second_answer_source():
    """Ten constructor parameters, and answers carry no source tag: every
    answer comes from the grid."""
    import dataclasses
    import inspect

    parameters = list(inspect.signature(QuantileService.__init__).parameters)
    assert parameters[1:] == [
        "values", "eps", "rng", "query_accuracy", "final_samples",
        "max_lanes", "keep_history", "env", "churn_process", "auto_rebuild",
    ]
    fields = [field.name for field in dataclasses.fields(QueryAnswer)]
    assert fields == ["phi", "value", "accuracy", "grid_index", "degraded", "epoch"]
