"""A handle for timing the pull kernel on its own.

Every tournament runs as pull windows of
:class:`~repro.core.tournament.TournamentProtocol` on the gossip engines.
:class:`GossipNetwork` holds ``(n,)`` values or an ``(n, L)`` lane matrix,
and each :meth:`GossipNetwork.pull` runs one identity window of ``k``
rounds (every node pulls one partner per round; no value changes) on the
env's engine and returns what was pulled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.gossip.env import GossipEnv, resolve_env
from repro.gossip.metrics import NetworkMetrics
from repro.utils.rand import RandomSource


@dataclass
class PullBatch:
    """``k`` pull rounds: ``(n, k)`` ``partners`` (the puller itself where
    the pull did not happen), the pulled start-of-batch ``values`` —
    ``(n, k)``, or ``(n, k, L)`` for ``L`` lanes; a pull that did not
    happen reads the puller's own value — and the ``(n, k)`` ``ok`` mask."""

    partners: np.ndarray
    values: np.ndarray
    ok: np.ndarray


class GossipNetwork:
    """Values of ``n`` nodes that pull through :func:`run_protocol`.

    ``rng`` seeds the partner stream, ``metrics`` accumulates the rounds
    (a fresh object keeps ``keep_history``), and every pull runs in
    ``env``.
    """

    def __init__(
        self,
        values: Union[Sequence[float], np.ndarray],
        rng: Union[None, int, RandomSource] = None,
        metrics: Optional[NetworkMetrics] = None,
        keep_history: bool = True,
        env: Optional[GossipEnv] = None,
    ) -> None:
        from repro.core.tournament import lane_rows

        self._env = resolve_env(env)
        self._single_lane = np.ndim(values) == 1
        self._rows = lane_rows(values, self._env.dtype)
        self._rng = rng if isinstance(rng, RandomSource) else RandomSource(rng)
        self.metrics = (
            metrics if metrics is not None
            else NetworkMetrics(keep_history=keep_history)
        )

    @property
    def values(self) -> np.ndarray:
        """``(n,)`` or ``(n, L)`` view of every node's values."""
        view: np.ndarray = self._rows[0] if self._single_lane else self._rows.T
        return view

    def pull(self, k: int = 1, label: str = "pull") -> PullBatch:
        """Run ``k`` pull rounds and return the pulled snapshot values."""
        from repro.core.tournament import PullWindow, WindowPulls, run_windows

        delivered: List[WindowPulls] = []

        def keep(pulls: WindowPulls) -> np.ndarray:
            delivered.append(pulls)
            return pulls.snapshot

        window = PullWindow(k, keep, label)
        self._rows = run_windows(self._rows, [window], self._rng, self.metrics, self._env)
        (pulls,) = delivered
        pulled = pulls.rows()                               # (k, L, n)
        return PullBatch(
            partners=np.array(pulls.partners).T,
            values=pulled[:, 0].T if self._single_lane else pulled.transpose(2, 0, 1),
            ok=np.array(pulls.ok).T,
        )
