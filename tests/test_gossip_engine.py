"""Tests for the message-level engine and the protocol abstraction."""

from typing import Any, List

import numpy as np
import pytest

from repro.exceptions import ConvergenceError, ProtocolError
from repro.gossip.engine import run_protocol
from repro.gossip.env import GossipEnv
from repro.gossip.messages import payload_bits
from repro.gossip.protocol import (
    Action,
    BatchAction,
    BatchGossipProtocol,
    GossipProtocol,
)


class CountingProtocol(GossipProtocol, BatchGossipProtocol):
    """Every node pushes '1' each round; nodes count what they receive."""

    name = "counting-test"

    def __init__(self, n: int, rounds: int) -> None:
        super().__init__(n)
        self.rounds_budget = rounds
        self.received = np.zeros(n, dtype=int)
        self.sent = np.zeros(n, dtype=int)

    def act(self, node: int, round_index: int) -> Action:
        return Action.push(1)

    def on_receive(self, node, payload, sender, kind, round_index) -> None:
        self.received[node] += payload

    def on_send_success(self, node, round_index) -> None:
        self.sent[node] += 1

    def act_batch(self, round_index, alive) -> BatchAction:
        return BatchAction("push", push_bits=self.message_bits(1))

    def receive_batch(self, round_index, alive, partners, action) -> None:
        np.add.at(self.received, partners[alive], 1)
        self.sent[alive] += 1

    def is_done(self, round_index: int) -> bool:
        return round_index >= self.rounds_budget

    def outputs(self) -> List[Any]:
        return self.received.tolist()

    def message_bits(self, payload) -> int:
        return payload_bits(1, n=self.n)


class PullEchoProtocol(GossipProtocol, BatchGossipProtocol):
    """Nodes pull their partner's id; used to exercise the pull path."""

    name = "pull-echo"

    def __init__(self, n: int) -> None:
        super().__init__(n)
        self.seen = [[] for _ in range(n)]

    def act(self, node: int, round_index: int) -> Action:
        return Action.pull()

    def serve_pull(self, node: int, requester: int, round_index: int):
        return node

    def on_receive(self, node, payload, sender, kind, round_index) -> None:
        assert kind == "pull"
        assert payload == sender
        self.seen[node].append(payload)

    def act_batch(self, round_index, alive) -> BatchAction:
        return BatchAction("pull", pull_bits=self.message_bits(None))

    def receive_batch(self, round_index, alive, partners, action) -> None:
        for node in np.flatnonzero(alive):
            self.seen[node].append(int(partners[node]))

    def is_done(self, round_index: int) -> bool:
        return round_index >= 3

    def outputs(self):
        return self.seen

    def message_bits(self, payload) -> int:
        return payload_bits(self.n - 1, n=self.n)


ENGINES = [None, "asyncio"]


@pytest.mark.parametrize("engine", ENGINES)
def test_push_protocol_conserves_messages(engine):
    protocol = CountingProtocol(50, rounds=10)
    result = run_protocol(protocol, rng=1, env=GossipEnv(engine=engine))
    assert result.completed
    assert result.rounds == 10
    # every round every node pushes exactly one message
    assert result.metrics.messages == 50 * 10
    assert protocol.sent.sum() == 50 * 10
    assert protocol.received.sum() == 50 * 10


@pytest.mark.parametrize("engine", ENGINES)
def test_pull_protocol_receives_partner_payloads(engine):
    protocol = PullEchoProtocol(20)
    result = run_protocol(protocol, rng=2, env=GossipEnv(engine=engine))
    assert result.completed
    total = sum(len(seen) for seen in protocol.seen)
    assert total == 20 * 3
    assert result.metrics.messages == 20 * 3
    # a node never pulls from itself
    for node, seen in enumerate(protocol.seen):
        assert node not in seen


def test_failures_reduce_message_count():
    protocol = CountingProtocol(200, rounds=10)
    result = run_protocol(protocol, rng=3, env=GossipEnv(failure_model=0.5))
    assert result.metrics.messages < 200 * 10
    assert result.metrics.failed_node_rounds > 200 * 10 * 0.3


def test_round_budget_exhaustion_raises_or_reports():
    class NeverDone(CountingProtocol):
        def is_done(self, round_index: int) -> bool:
            return False

    with pytest.raises(ConvergenceError):
        run_protocol(NeverDone(10, rounds=1), rng=4, max_rounds=5)
    result = run_protocol(
        NeverDone(10, rounds=1), rng=4, max_rounds=5, raise_on_budget=False
    )
    assert not result.completed
    assert result.rounds == 5


@pytest.mark.parametrize("engine", ENGINES)
def test_invalid_action_type_raises(engine):
    class BadProtocol(CountingProtocol):
        def act(self, node, round_index):
            return "push"

        def act_batch(self, round_index, alive):
            return "push"

    with pytest.raises(ProtocolError):
        run_protocol(BadProtocol(8, rounds=2), rng=5, env=GossipEnv(engine=engine))


def test_action_validation():
    with pytest.raises(ValueError):
        Action("teleport")
    assert Action.idle().kind == "idle"
    assert Action.push(1).payload == 1
    assert Action.pushpull(2.0).kind == "pushpull"


def test_protocol_requires_two_nodes():
    with pytest.raises(ValueError):
        CountingProtocol(1, rounds=1)


def test_engine_determinism():
    a = CountingProtocol(30, rounds=5)
    b = CountingProtocol(30, rounds=5)
    run_protocol(a, rng=7)
    run_protocol(b, rng=7)
    assert np.array_equal(a.received, b.received)


def test_completion_exactly_at_budget_reports_completed():
    # The protocol becomes done exactly when the budget runs out; the engine
    # must report completion instead of raising (the old post-loop
    # double-check existed to catch this boundary — the restructured loop
    # covers it by evaluating is_done after the final round).
    protocol = CountingProtocol(10, rounds=5)
    result = run_protocol(protocol, rng=1, max_rounds=5)
    assert result.completed
    assert result.rounds == 5


def test_budget_zero_rounds():
    protocol = CountingProtocol(10, rounds=0)
    result = run_protocol(protocol, rng=1, max_rounds=5)
    assert result.completed
    assert result.rounds == 0
    assert result.metrics.messages == 0


def test_raise_on_budget_false_returns_partial_result():
    class NeverDone(CountingProtocol):
        def is_done(self, round_index: int) -> bool:
            return False

    protocol = NeverDone(12, rounds=1)
    result = run_protocol(
        protocol, rng=6, max_rounds=4, raise_on_budget=False
    )
    assert not result.completed
    assert result.rounds == 4
    # the partial run still did real work and accounted for it
    assert result.metrics.messages == 12 * 4
    assert result.outputs == protocol.received.tolist()


def test_raise_on_budget_false_on_vectorized_engine():
    from repro.aggregates.push_sum import PushSumProtocol
    from repro.gossip.engine import run_protocol_vectorized

    protocol = PushSumProtocol(np.arange(1.0, 17.0), rounds=50)
    result = run_protocol_vectorized(
        protocol, rng=3, max_rounds=10, raise_on_budget=False
    )
    assert not result.completed
    assert result.rounds == 10

    with pytest.raises(ConvergenceError):
        run_protocol_vectorized(
            PushSumProtocol(np.arange(1.0, 17.0), rounds=50), rng=3, max_rounds=10
        )


def test_engine_selection_validates_name():
    from repro.exceptions import ConfigurationError

    with pytest.raises(ConfigurationError):
        run_protocol(CountingProtocol(8, rounds=1), rng=1, env=GossipEnv(engine="warp"))


def test_asyncio_engine_matches_default_for_counting_protocol():
    a = CountingProtocol(30, rounds=5)
    b = CountingProtocol(30, rounds=5)
    ra = run_protocol(a, rng=7, env=GossipEnv(engine="asyncio"))
    rb = run_protocol(b, rng=7)
    assert np.array_equal(a.received, b.received)
    assert np.array_equal(a.sent, b.sent)
    assert ra.metrics.summary() == rb.metrics.summary()
