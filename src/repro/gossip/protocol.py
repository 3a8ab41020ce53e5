"""Protocol abstraction for the message-level gossip engine.

Protocols that need richer per-node state than a single value (push-sum,
extrema spreading, rumor broadcast) implement :class:`GossipProtocol` and
:class:`BatchGossipProtocol`.  The engines (:mod:`repro.gossip.engine`)
drive the synchronous rounds, select uniform partners, apply the failure
model and perform the accounting: the vectorized engine through the batch
methods, the asyncio engine (:mod:`repro.net`) through the per-node ones.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, List, Optional

import numpy as np

from repro.faults.injectors import RoundFaults
from repro.utils.views import ReadOnlyArray


@dataclass(frozen=True)
class Action:
    """What a node wants to do in one round.

    ``kind`` is ``"push"`` (send ``payload`` to a random node), ``"pull"``
    (request the partner's payload), ``"pushpull"`` (do both with the same
    partner, the classic anti-entropy exchange) or ``"idle"``.
    """

    kind: str
    payload: Any = None

    def __post_init__(self) -> None:
        if self.kind not in ("push", "pull", "pushpull", "idle"):
            raise ValueError(f"unknown action kind: {self.kind!r}")

    @staticmethod
    def push(payload: Any) -> "Action":
        return Action("push", payload)

    @staticmethod
    def pull() -> "Action":
        return Action("pull")

    @staticmethod
    def pushpull(payload: Any) -> "Action":
        return Action("pushpull", payload)

    @staticmethod
    def idle() -> "Action":
        return Action("idle")


class GossipProtocol(abc.ABC):
    """Base class for message-level gossip protocols.

    The per-node engine (asyncio, :mod:`repro.net.runner`) calls, in order
    and once per round:

    1. :meth:`act` for every node that did not fail, collecting actions;
    2. delivery: pushes are delivered via :meth:`on_receive`; pulls are
       answered by :meth:`serve_pull` on the contacted node and delivered to
       the puller via :meth:`on_receive`;
    3. :meth:`end_round`.

    The engine stops when :meth:`is_done` returns True or the round budget
    is exhausted.
    """

    #: Human-readable protocol name used for metrics labels.
    name: str = "protocol"

    def __init__(self, n: int) -> None:
        if n < 2:
            raise ValueError("a gossip protocol needs at least 2 nodes")
        self.n = n

    # -- lifecycle ------------------------------------------------------------
    def begin(self) -> None:
        """Called once before the first round."""

    @abc.abstractmethod
    def act(self, node: int, round_index: int) -> Action:
        """Return the action node ``node`` takes this round."""

    def serve_pull(self, node: int, requester: int, round_index: int) -> Any:
        """Payload node ``node`` returns when pulled by ``requester``.

        Default: ``None``.  Protocols that support pulls override this.
        """
        return None

    @abc.abstractmethod
    def on_receive(
        self, node: int, payload: Any, sender: int, kind: str, round_index: int
    ) -> None:
        """Deliver ``payload`` (from a push or a pull response) to ``node``."""

    def on_send_success(self, node: int, round_index: int) -> None:
        """Called after a node's push was delivered (it did not fail)."""

    def on_send_failure(self, node: int, payload: Any, round_index: int) -> None:
        """A node's push could not be delivered (dead peer, lost frame).

        Only the live backend (:mod:`repro.net`) can observe this — on the
        vectorized engine a push either happens or the node sat the round
        out.  The default is the Section-5 "keep your half" rule: the
        undeliverable payload is re-merged into the sender itself, so
        conserved quantities (push-sum mass and weight) survive peers dying
        mid-run and a degraded run still converges to an honest value over
        the surviving nodes.  Idempotent-merge protocols (extrema) are
        unaffected by the self-delivery.  Override to drop the payload (and
        the mass) instead, or to trigger protocol-specific recovery.
        """
        self.on_receive(node, payload, node, "push", round_index)

    def on_round_faults(self, round_index: int, faults: RoundFaults) -> None:
        """The injector's decision for this round, before any act, on
        either engine.  The engine applies crash and drop (the vectorized
        one in the failure mask, the asyncio one at its transport); a
        protocol may apply the message-level kinds too.  Default: ignore."""

    def end_round(self, round_index: int) -> None:
        """Called after all deliveries of a round."""

    @abc.abstractmethod
    def is_done(self, round_index: int) -> bool:
        """Whether the protocol has terminated after ``round_index`` rounds."""

    @abc.abstractmethod
    def outputs(self) -> List[Any]:
        """Per-node outputs after termination."""

    # -- accounting -----------------------------------------------------------
    def message_bits(self, payload: Any) -> Optional[int]:
        """Bit size of a payload; ``None`` means "use the default estimator"."""
        return None


#: Per-node kind codes for ``BatchAction(kind="mixed")``.
KIND_IDLE = 0
KIND_PUSH = 1
KIND_PULL = 2
KIND_PUSHPULL = 3


@dataclass(frozen=True)
class BatchAction:
    """What *all alive nodes* do in one vectorized round.

    The vectorized engine (:func:`repro.gossip.engine.run_protocol_vectorized`)
    executes a whole synchronous round as array operations, so instead of one
    :class:`Action` per node a protocol returns a single :class:`BatchAction`
    describing the behaviour of every node that did not fail.

    Attributes
    ----------
    kind:
        ``"push"``, ``"pull"``, ``"pushpull"`` or ``"idle"`` — the same
        vocabulary as :class:`Action`, applied to every alive node — or
        ``"mixed"``, in which case ``kinds`` gives a per-node action kind
        (rumor broadcast, where informed nodes push-pull while uninformed
        nodes only pull, is the canonical mixed protocol).
    kinds:
        For ``"mixed"`` only: a length-``n`` integer array of
        :data:`KIND_IDLE` / :data:`KIND_PUSH` / :data:`KIND_PULL` /
        :data:`KIND_PUSHPULL` codes.  Entries of failed nodes are ignored.
    payload:
        Protocol-specific array data for the alive nodes (e.g. the
        ``(s_half, w_half)`` arrays of push-sum).  The engine never inspects
        it; it is handed back verbatim to :meth:`BatchGossipProtocol.receive_batch`.
    push_bits:
        Accounted size of each pushed message.  Required for ``push`` and
        ``pushpull`` actions.
    pull_bits:
        Accounted size of each pull response.  Required for ``pull`` and
        ``pushpull`` actions.

    For ``"mixed"`` actions message accounting is delegated to the
    protocol: :meth:`BatchGossipProtocol.receive_batch` returns
    ``(count, bits_each)`` groups (per-message bit sizes may depend on the
    partner, e.g. an empty pull response), which the engine records.
    """

    kind: str
    payload: Any = None
    push_bits: Optional[int] = None
    pull_bits: Optional[int] = None
    kinds: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.kind not in ("push", "pull", "pushpull", "idle", "mixed"):
            raise ValueError(f"unknown batch action kind: {self.kind!r}")
        if self.kind in ("push", "pushpull") and self.push_bits is None:
            raise ValueError(f"{self.kind!r} batch actions must declare push_bits")
        if self.kind in ("pull", "pushpull") and self.pull_bits is None:
            raise ValueError(f"{self.kind!r} batch actions must declare pull_bits")
        if self.kind == "mixed" and self.kinds is None:
            raise ValueError("'mixed' batch actions must declare per-node kinds")


class BatchGossipProtocol:
    """The batch contract every engine requires of a :class:`GossipProtocol`.

    A batch-capable protocol implements one synchronous round as two array
    operations:

    1. :meth:`act_batch` applies the act-phase state transition for every
       alive node (e.g. push-sum halves its pairs) and returns a
       :class:`BatchAction` describing what the alive nodes send;
    2. :meth:`receive_batch` applies all deliveries at once — pushes as a
       scatter onto ``partners[alive]``, pull responses as a gather from the
       round-start snapshot.

    Implementations must be *delivery-order independent* so that the
    vectorized round is bit-identical to the per-node asyncio engine over
    in-process channels (:func:`repro.net.runner.run_protocol_asyncio`),
    which delivers concurrently: merge operators must be exact and
    commutative (min/max), or the protocol must scatter with
    :func:`numpy.ufunc.at`, which accumulates in index order.  Every engine
    requires this contract; the equivalence suite
    (``tests/test_engine_equivalence.py``) locks it down.
    """

    def act_batch(self, round_index: int, alive: ReadOnlyArray) -> BatchAction:
        """Vectorized :meth:`GossipProtocol.act` over all alive nodes.

        ``alive`` is a length-``n`` boolean mask (True = the node acts this
        round).  Must perform exactly the state mutation the per-node
        ``act`` calls would, restricted to the alive nodes.  On the
        failure-free fast path the mask is a *cached view shared across
        rounds and runs* (:data:`repro.utils.views.ReadOnlyArray`):
        implementations must never write to it.
        """
        raise NotImplementedError

    def receive_batch(
        self,
        round_index: int,
        alive: ReadOnlyArray,
        partners: np.ndarray,
        action: BatchAction,
    ):
        """Vectorized delivery of one round's messages.

        ``partners`` is the length-``n`` partner array drawn by the engine
        (entries for failed nodes are present but must be ignored).  The
        protocol applies pushes to ``partners[alive]`` and pull responses to
        the alive nodes themselves.

        For uniform-kind actions the engine accounts ``push_bits`` /
        ``pull_bits`` itself, and charges any ``(count, bits_each)`` groups
        returned on top (duplicate deliveries).  For ``"mixed"`` actions the
        method must return an iterable of ``(count, bits_each)`` message
        groups covering every message the round delivered; the engine
        records them (zero-count groups are skipped).
        """
        raise NotImplementedError
