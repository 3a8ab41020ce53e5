"""Per-node value validation shared by the quantile entry points."""

import numpy as np
import pytest

from repro.baselines.kempe_quantile import kempe_exact_quantile
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
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_reject_non_finite_values(entry, bad):
    values = np.arange(1.0, 65.0)
    values[17] = bad
    with pytest.raises(ConfigurationError, match="finite"):
        ENTRY_POINTS[entry](values)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_service_update_rejects_non_finite_values(bad):
    service = QuantileService(np.arange(1.0, 65.0), eps=0.2, rng=1)
    with pytest.raises(ConfigurationError, match="finite"):
        service.update_value(3, bad)
    assert service.lane_drift().max() == 0.0


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
