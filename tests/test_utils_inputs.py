"""Per-node value validation shared by the quantile entry points."""

import numpy as np
import pytest

from repro.baselines.kempe_quantile import kempe_exact_quantile
from repro.baselines.median_rule import median_rule
from repro.core.all_quantiles import estimate_all_ranks
from repro.core.approx_quantile import approximate_quantile
from repro.core.exact_quantile import exact_quantile
from repro.core.robust import robust_approximate_quantile
from repro.core.service import QuantileService
from repro.exceptions import ConfigurationError
from repro.gossip.env import GossipEnv
from repro.net.quantile import net_approximate_quantile
from repro.utils import node_values

ENTRY_POINTS = {
    "exact_quantile": lambda values: exact_quantile(values, 0.5, rng=1),
    "kempe_exact_quantile": lambda values: kempe_exact_quantile(
        values, 0.5, rng=1
    ),
    "approximate_quantile": lambda values: approximate_quantile(values, rng=1),
    "robust_approximate_quantile": lambda values: robust_approximate_quantile(
        values, 0.5, 0.1, env=GossipEnv(failure_model=0.1), rng=1
    ),
    "estimate_all_ranks": lambda values: estimate_all_ranks(
        values, eps=0.2, rng=1
    ),
    "QuantileService": lambda values: QuantileService(values, eps=0.2, rng=1),
    "net_approximate_quantile": lambda values: net_approximate_quantile(
        values, rng=1
    ),
    "median_rule": lambda values: median_rule(values, rng=1),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_reject_non_finite_values(entry, bad):
    values = np.arange(1.0, 65.0)
    values[17] = bad
    with pytest.raises(ConfigurationError, match="finite"):
        ENTRY_POINTS[entry](values)


#: Integer inputs of the tournament entry points, each called with a bad
#: value: fractional, bool, or (where it must be at least 0 / odd) out of
#: range.  Every one must raise ConfigurationError, never TypeError or a
#: silent truncation.
INTEGER_INPUTS = {
    "median_rule(iterations)": lambda bad: median_rule(
        np.arange(64.0), rng=1, iterations=bad
    ),
    "approximate_quantile(final_samples)": lambda bad: approximate_quantile(
        np.arange(64.0), rng=1, final_samples=bad
    ),
    "robust(final_samples)": lambda bad: robust_approximate_quantile(
        np.arange(64.0), 0.5, 0.1, rng=1, final_samples=bad
    ),
    "robust(pulls_per_iteration)": lambda bad: robust_approximate_quantile(
        np.arange(64.0), 0.5, 0.1, rng=1, pulls_per_iteration=bad
    ),
    "robust(extra_spread_rounds)": lambda bad: robust_approximate_quantile(
        np.arange(64.0), 0.5, 0.1, rng=1, extra_spread_rounds=bad
    ),
}


@pytest.mark.parametrize("bad", [2.5, 3.5, np.float64(4.5), True, -1, "7"],
                         ids=["2.5", "3.5", "np-4.5", "bool", "-1", "str"])
@pytest.mark.parametrize("entry", sorted(INTEGER_INPUTS))
def test_tournament_integer_inputs_raise_configuration_errors(entry, bad):
    with pytest.raises(ConfigurationError):
        INTEGER_INPUTS[entry](bad)


def test_tournament_integer_inputs_accept_integral_numbers():
    values = np.arange(64.0)
    assert median_rule(values, rng=1, iterations=np.float64(3.0)).iterations == 3
    assert approximate_quantile(values, rng=1, final_samples=15.0).rounds == (
        approximate_quantile(values, rng=1).rounds
    )
    robust = robust_approximate_quantile(
        values, 0.5, 0.1, rng=1, pulls_per_iteration=np.int64(5),
        extra_spread_rounds=0.0,
    )
    assert robust.pulls_per_iteration == 5


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_service_update_rejects_non_finite_values(bad):
    service = QuantileService(np.arange(1.0, 65.0), eps=0.2, rng=1)
    with pytest.raises(ConfigurationError, match="finite"):
        service.update_value(3, bad)
    assert service.lane_drift().max() == 0.0


@pytest.mark.parametrize("index", [2.7, -0.5, np.float64(1.5), np.nan, "3", True],
                         ids=["2.7", "-0.5", "np-1.5", "nan", "str", "bool"])
def test_service_update_rejects_non_integral_indices(index):
    """A fractional index must not be truncated onto a real node."""
    values = np.arange(1.0, 65.0)
    service = QuantileService(values, eps=0.2, rng=1)
    with pytest.raises(ConfigurationError, match="integer node index"):
        service.update_value(index, 500.0)
    assert service.lane_drift().max() == 0.0
    assert np.array_equal(service._array, values)


def test_service_update_accepts_integral_indices():
    service = QuantileService(np.arange(1.0, 65.0), eps=0.2, rng=1)
    for index, value in ((2, 500.0), (np.int64(3), 600.0), (4.0, 700.0)):
        service.update_value(index, value)
    assert service._array[2:5].tolist() == [500.0, 600.0, 700.0]
    with pytest.raises(ConfigurationError, match="in \\[0, 64\\)"):
        service.update_value(64, 1.0)


def test_service_rank_of_rejects_nan_and_accepts_infinities():
    service = QuantileService(np.arange(1.0, 65.0), eps=0.2, rng=1)
    with pytest.raises(ConfigurationError, match="NaN"):
        service.rank_of(np.nan)
    # below every grid answer / above all four of them
    assert service.rank_of(-np.inf).phi == pytest.approx(0.1)
    assert service.rank_of(np.inf).phi == pytest.approx(0.9)
    assert not service.rank_of(np.inf).degraded


def test_node_values_shape_and_size():
    array = node_values([3, 1, 2])
    assert array.dtype == np.float64 and array.shape == (3,)
    with pytest.raises(ConfigurationError):
        node_values(np.ones((4, 2)))
    assert node_values(np.ones((4, 2)), lanes=True).shape == (4, 2)
    with pytest.raises(ConfigurationError):
        node_values(np.ones((2, 2, 2)), lanes=True)
    with pytest.raises(ConfigurationError):
        node_values([1.0, 2.0, 3.0], min_nodes=4)
