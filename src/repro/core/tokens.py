"""Step 7 of Algorithm 3: token split-and-distribute.

Each valued node creates one token ``(item, m_i)`` whose weight ``m_i`` is a
power of two.  The process has two stages, both made of phases that cost
O(1) rounds w.h.p.:

1. **Splitting** — every token of weight > 1 is split into two tokens of
   half the weight; one stays, the other is pushed to a uniformly random
   node.  After ``lg m_i = O(log n)`` phases all tokens have weight 1.
2. **Spreading** — a node holding more than one token keeps one and pushes
   every other token to a uniformly random node, until every node holds at
   most one token.  Because at most ``n^{0.99}`` tokens exist, a pushed
   token fails to land alone with probability ``O(n^{-0.01})`` and
   ``O(log n)`` phases suffice w.h.p.

Under the Section-5 failure model a failed push simply merges the two
halves back (splitting stage) or keeps the token where it is (spreading
stage), costing only a constant-factor slowdown (§5.2).

Two engines implement the process, mirroring the gossip engine convention
(:mod:`repro.gossip.engine`):

* :func:`distribute_tokens_loop` — the reference implementation: token
  state as per-node Python lists, one scalar RNG draw per push.  Its random
  stream and outputs are bit-for-bit the historical (pre-vectorization)
  behaviour under a fixed seed.
* :func:`distribute_tokens_vectorized` — token state as flat numpy columns
  ``(item, weight, holder)``; splitting halves weights with array ops, push
  targets are drawn in vectorized batches (self-targets rejection-resampled
  as a masked re-draw via :func:`repro.utils.rand.draw_targets_excluding`),
  per-node token counts come from ``np.bincount`` and failure-model merges
  are boolean-mask updates.  One to two orders of magnitude faster at large
  ``n``.

Both engines execute the same phase/round structure, charge the same
per-message bits, and satisfy the same invariants (weight conservation,
exact multiplicities, ≤ 1 token per node at the end) — the invariant suite
in ``tests/test_core_tokens.py`` runs identically against both.  They are
*not* bit-identical to each other: the vectorized engine draws push targets
in batches (one array draw per round plus masked re-draws) while the loop
engine draws them one scalar at a time, so a fixed seed yields different —
equally valid — ``owners`` placements.  This is the same class of
documented RNG-stream deviation as PR 1's extrema snapshots and PR 2's
broadcast snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.exceptions import ConfigurationError, ConvergenceError
from repro.gossip.engine import get_default_engine
from repro.gossip.env import GossipEnv, resolve_env
from repro.gossip.failures import FailureModel
from repro.gossip.messages import BITS_HEADER, BITS_PER_VALUE, id_bits
from repro.gossip.metrics import NetworkMetrics
from repro.utils.mathutils import is_power_of_two
from repro.utils.rand import RandomSource, draw_targets_excluding

#: Engines :func:`distribute_tokens` accepts (``env.engine``; no asyncio).
TOKEN_ENGINE_CHOICES = ("auto", "loop", "vectorized")


@dataclass
class TokenDistributionResult:
    """Outcome of the split-and-distribute process.

    ``owners`` maps each node to the item id of the token it ends up holding
    (-1 for nodes without a token).  Each item id appears exactly
    ``multiplicity`` times across ``owners``.
    """

    owners: np.ndarray
    multiplicity: int
    phases: int
    rounds: int
    metrics: NetworkMetrics
    max_tokens_per_node: int
    failed_pushes: int = 0
    engine: str = "loop"

    def copies_of(self, item: int) -> int:
        return int(np.count_nonzero(self.owners == item))


def _validate_inputs(
    item_nodes: Union[Sequence[int], np.ndarray], multiplicity: int, n: int
) -> np.ndarray:
    item_nodes = np.asarray(item_nodes, dtype=int)
    if item_nodes.ndim != 1 or item_nodes.size == 0:
        raise ConfigurationError("item_nodes must be a non-empty 1-d sequence")
    if np.any(item_nodes < 0) or np.any(item_nodes >= n):
        raise ConfigurationError("item_nodes must be valid node indices")
    if not is_power_of_two(multiplicity):
        raise ConfigurationError("multiplicity must be a power of two")
    total_tokens = item_nodes.size * multiplicity
    if total_tokens > n:
        raise ConfigurationError(
            f"cannot place {total_tokens} unit tokens on {n} nodes"
        )
    return item_nodes


def _token_failures(env: Optional[GossipEnv]) -> FailureModel:
    """The failure model of a token run.

    Pushes go to uniformly random nodes, so a topology, topology process
    or fault injector on the env would be silently ignored: reject it.
    """
    env = resolve_env(env)
    env.reject("token distribution", "topology", "topology_process", "faults")
    return env.failure_model


def _default_max_phases(n: int) -> int:
    return int(40 + 30 * np.log2(max(n, 2)))


def distribute_tokens(
    item_nodes: Union[Sequence[int], np.ndarray],
    multiplicity: int,
    n: int,
    rng: Union[None, int, RandomSource] = None,
    metrics: Optional[NetworkMetrics] = None,
    max_phases: Optional[int] = None,
    env: Optional[GossipEnv] = None,
) -> TokenDistributionResult:
    """Duplicate each item ``multiplicity`` times across distinct nodes.

    Parameters
    ----------
    item_nodes:
        The node index currently holding each item (one entry per item; the
        item's id is its position in this sequence).
    multiplicity:
        The power-of-two number of copies each item must end up with.
    n:
        Total number of nodes.
    env:
        The :class:`~repro.gossip.env.GossipEnv`.  Pushes fail under its
        ``failure_model``; its ``engine`` picks ``"loop"`` (the reference
        implementation, bit-identical to the historical behaviour under a
        fixed seed), ``"vectorized"`` (flat array columns, batched RNG
        draws — a different but equally valid random stream) or ``"auto"``
        (the vectorized engine).  ``None`` defers to
        :func:`repro.gossip.engine.get_default_engine`, so the CLI's
        ``--engine`` flag selects the token engine too.  Pushes go to
        uniformly random nodes, so a topology, topology process or fault
        injector on the env is rejected.
    """
    requested = env.engine if env is not None else None
    choice = requested if requested is not None else get_default_engine()
    if choice not in TOKEN_ENGINE_CHOICES:
        raise ConfigurationError(
            f"unknown token engine {choice!r}; choose from {TOKEN_ENGINE_CHOICES}"
        )
    if choice == "auto":
        choice = "vectorized"
    impl = (
        distribute_tokens_vectorized
        if choice == "vectorized"
        else distribute_tokens_loop
    )
    return impl(
        item_nodes,
        multiplicity=multiplicity,
        n=n,
        rng=rng,
        metrics=metrics,
        max_phases=max_phases,
        env=env,
    )


def distribute_tokens_loop(
    item_nodes: Union[Sequence[int], np.ndarray],
    multiplicity: int,
    n: int,
    rng: Union[None, int, RandomSource] = None,
    metrics: Optional[NetworkMetrics] = None,
    max_phases: Optional[int] = None,
    env: Optional[GossipEnv] = None,
) -> TokenDistributionResult:
    """Reference engine: per-node token lists, one scalar RNG draw per push.

    Kept verbatim as the semantic reference for the vectorized engine; its
    outputs under a fixed seed are bit-identical to the pre-vectorization
    implementation.
    """
    item_nodes = _validate_inputs(item_nodes, multiplicity, n)

    source = rng if isinstance(rng, RandomSource) else RandomSource(rng)
    failures = _token_failures(env)
    stats = metrics if metrics is not None else NetworkMetrics(keep_history=False)
    rounds_before = stats.rounds
    if max_phases is None:
        max_phases = _default_max_phases(n)

    message_bits = BITS_HEADER + BITS_PER_VALUE + id_bits(n)

    # tokens[node] is a list of (item, weight) pairs held by that node.
    tokens: List[List[List[int]]] = [[] for _ in range(n)]
    for item, node in enumerate(item_nodes):
        tokens[node].append([item, multiplicity])

    phases = 0
    failed_pushes = 0
    max_tokens_seen = 1

    def run_phase(push_plan: Dict[int, List[List[int]]]) -> int:
        """Execute one phase: each node pushes its planned tokens, one per round.

        Returns the number of rounds the phase costs (the maximum number of
        pushes any single node performs).  A node that fails in a round
        keeps the token it would have pushed.
        """
        nonlocal failed_pushes
        if not push_plan:
            return 0
        rounds_needed = max(len(plan) for plan in push_plan.values())
        for round_slot in range(rounds_needed):
            record = stats.begin_round(label="token-distribution")
            failed = failures.failure_mask(stats.rounds - 1, n, source)
            stats.record_failures(int(failed.sum()), record)
            for node, plan in push_plan.items():
                if round_slot >= len(plan):
                    continue
                token = plan[round_slot]
                if failed[node]:
                    failed_pushes += 1
                    tokens[node].append(token)
                    continue
                target = int(source.integers(0, n))
                while target == node:
                    target = int(source.integers(0, n))
                stats.record_messages(1, message_bits, record)
                tokens[target].append(token)
        return rounds_needed

    # ---- stage 1: split until every token has weight 1 ------------------------
    while True:
        if phases >= max_phases:
            raise ConvergenceError("token splitting did not finish within its budget")
        heavy_exists = any(
            weight > 1 for node_tokens in tokens for _, weight in node_tokens
        )
        if not heavy_exists:
            break
        push_plan: Dict[int, List[List[int]]] = {}
        for node in range(n):
            keep: List[List[int]] = []
            outgoing: List[List[int]] = []
            for item, weight in tokens[node]:
                if weight > 1:
                    half = weight // 2
                    keep.append([item, half])
                    outgoing.append([item, half])
                else:
                    keep.append([item, weight])
            tokens[node] = keep
            if outgoing:
                push_plan[node] = outgoing
        max_tokens_seen = max(
            max_tokens_seen, max(len(t) for t in tokens) if tokens else 0
        )
        run_phase(push_plan)
        phases += 1

    # ---- stage 2: spread until every node holds at most one token -------------
    while True:
        if phases >= max_phases:
            raise ConvergenceError("token spreading did not finish within its budget")
        overloaded = [node for node in range(n) if len(tokens[node]) > 1]
        if not overloaded:
            break
        push_plan = {}
        for node in overloaded:
            extra = tokens[node][1:]
            tokens[node] = tokens[node][:1]
            push_plan[node] = extra
        max_tokens_seen = max(max_tokens_seen, max(len(t) for t in tokens))
        run_phase(push_plan)
        phases += 1

    owners = np.full(n, -1, dtype=int)
    for node in range(n):
        if tokens[node]:
            owners[node] = tokens[node][0][0]

    # Post-condition: every item has exactly `multiplicity` copies.
    counts = np.bincount(owners[owners >= 0], minlength=item_nodes.size)
    if not np.all(counts == multiplicity):
        raise ConvergenceError("token distribution lost or duplicated tokens")

    return TokenDistributionResult(
        owners=owners,
        multiplicity=multiplicity,
        phases=phases,
        rounds=stats.rounds - rounds_before,
        metrics=stats,
        max_tokens_per_node=max_tokens_seen,
        failed_pushes=failed_pushes,
        engine="loop",
    )


def distribute_tokens_vectorized(
    item_nodes: Union[Sequence[int], np.ndarray],
    multiplicity: int,
    n: int,
    rng: Union[None, int, RandomSource] = None,
    metrics: Optional[NetworkMetrics] = None,
    max_phases: Optional[int] = None,
    env: Optional[GossipEnv] = None,
) -> TokenDistributionResult:
    """Vectorized engine: flat ``(item, weight, holder)`` token columns.

    Executes the same phase/round structure as the loop engine — one
    failure-mask draw per round, one message per successful push, the same
    phase budget — but every round is a handful of array operations over
    all tokens at once.  Push targets are drawn in vectorized batches with
    self-targets rejection-resampled as a masked re-draw, so the random
    stream (and hence the seeded ``owners`` placement) differs from the
    loop engine while all invariants are preserved.
    """
    item_nodes = _validate_inputs(item_nodes, multiplicity, n)

    source = rng if isinstance(rng, RandomSource) else RandomSource(rng)
    failures = _token_failures(env)
    stats = metrics if metrics is not None else NetworkMetrics(keep_history=False)
    rounds_before = stats.rounds
    if max_phases is None:
        max_phases = _default_max_phases(n)

    message_bits = BITS_HEADER + BITS_PER_VALUE + id_bits(n)

    # Flat token state: one entry per live token.  32-bit columns halve the
    # radix-sort passes of the per-phase stable argsorts (n always fits).
    index_dtype = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    token_item = np.arange(item_nodes.size, dtype=index_dtype)
    token_weight = np.full(item_nodes.size, multiplicity, dtype=np.int64)
    token_holder = item_nodes.astype(index_dtype)

    phases = 0
    failed_pushes = 0
    max_tokens_seen = 1

    def observe_load() -> None:
        nonlocal max_tokens_seen
        counts = np.bincount(token_holder, minlength=n)
        load = int(counts.max())
        if load > max_tokens_seen:
            max_tokens_seen = load

    def run_phase(sorted_index: np.ndarray, sorted_origins: np.ndarray) -> None:
        """Push the given tokens (pre-grouped by origin) from their holders.

        ``sorted_index`` / ``sorted_origins`` must be ordered so that equal
        origins are contiguous (callers already have that grouping from
        their own bookkeeping, so no re-sort happens here).  Each origin
        node pushes one of its planned tokens per round, so the phase costs
        rounds equal to the largest per-node plan — exactly the loop
        engine's schedule.  A failed origin keeps its token that round (the
        Section-5 merge semantics as a no-op holder update).
        """
        nonlocal failed_pushes
        if sorted_index.size == 0:
            return
        # Rank of each pushed token within its origin's queue: positions
        # since the start of the origin's (contiguous) group.
        new_group = np.ones(sorted_origins.size, dtype=bool)
        new_group[1:] = sorted_origins[1:] != sorted_origins[:-1]
        boundaries = np.flatnonzero(new_group)
        group_sizes = np.diff(np.append(boundaries, sorted_origins.size))
        slots = np.arange(sorted_origins.size) - np.repeat(boundaries, group_sizes)
        rounds_needed = int(slots.max()) + 1
        for round_slot in range(rounds_needed):
            record = stats.begin_round(label="token-distribution")
            failed = failures.failure_mask(stats.rounds - 1, n, source)
            stats.record_failures(int(failed.sum()), record)
            in_slot = slots == round_slot
            index = sorted_index[in_slot]
            origin = sorted_origins[in_slot]
            ok = ~failed[origin]
            failed_pushes += int(index.size - int(ok.sum()))
            pushes = int(ok.sum())
            if pushes == 0:
                continue
            targets = draw_targets_excluding(source, n, origin[ok])
            token_holder[index[ok]] = targets
            stats.record_messages(pushes, message_bits, record)

    # ---- stage 1: split until every token has weight 1 ------------------------
    while True:
        if phases >= max_phases:
            raise ConvergenceError("token splitting did not finish within its budget")
        heavy = np.flatnonzero(token_weight > 1)
        if heavy.size == 0:
            break
        observe_load()
        # Halve the kept tokens in place and append the pushed halves.
        token_weight[heavy] >>= 1
        first_new = token_item.size
        token_item = np.concatenate([token_item, token_item[heavy]])
        token_weight = np.concatenate([token_weight, token_weight[heavy]])
        token_holder = np.concatenate([token_holder, token_holder[heavy]])
        push_index = np.arange(first_new, token_item.size, dtype=index_dtype)
        order = np.argsort(token_holder[push_index], kind="stable")
        run_phase(push_index[order], token_holder[push_index][order])
        phases += 1

    # ---- stage 2: spread until every node holds at most one token -------------
    # A node that holds a token at the start of a spreading phase keeps its
    # earliest-arrived one, and keeps it in every later phase too (arrivals
    # append behind it) — so keepers are settled permanently and only the
    # shrinking set of *floating* tokens needs per-phase grouping.
    claimed = np.zeros(n, dtype=bool)
    floating = np.argsort(token_holder, kind="stable")
    while True:
        if phases >= max_phases:
            raise ConvergenceError("token spreading did not finish within its budget")
        # Claim pass: among the floats on each unclaimed node, the first
        # (in stable arrival order) settles as that node's keeper.
        float_holders = token_holder[floating]
        first_of_group = np.ones(floating.size, dtype=bool)
        first_of_group[1:] = float_holders[1:] != float_holders[:-1]
        settles = first_of_group & ~claimed[float_holders]
        claimed[float_holders[settles]] = True
        floating = floating[~settles]
        if floating.size == 0:
            break
        # Per-node load from the sorted float groups (O(floats), no full
        # bincount): floats on the node plus its settled keeper, if any.
        float_holders = token_holder[floating]
        first_of_group = np.ones(floating.size, dtype=bool)
        first_of_group[1:] = float_holders[1:] != float_holders[:-1]
        boundaries = np.flatnonzero(first_of_group)
        sizes = np.diff(np.append(boundaries, floating.size))
        load = int((sizes + claimed[float_holders[boundaries]]).max())
        if load > max_tokens_seen:
            max_tokens_seen = load
        run_phase(floating, float_holders)
        phases += 1
        # Re-group the floats by their (new) holders for the next claim pass.
        float_holders = token_holder[floating]
        floating = floating[np.argsort(float_holders, kind="stable")]

    if np.any(token_weight != 1):  # pragma: no cover - guarded by stage 1
        raise ConvergenceError("token distribution left a token of weight > 1")
    owners = np.full(n, -1, dtype=int)
    owners[token_holder] = token_item

    # Post-condition: every item has exactly `multiplicity` copies.
    counts = np.bincount(owners[owners >= 0], minlength=item_nodes.size)
    if not np.all(counts == multiplicity):
        raise ConvergenceError("token distribution lost or duplicated tokens")

    return TokenDistributionResult(
        owners=owners,
        multiplicity=multiplicity,
        phases=phases,
        rounds=stats.rounds - rounds_before,
        metrics=stats,
        max_tokens_per_node=max_tokens_seen,
        failed_pushes=failed_pushes,
        engine="vectorized",
    )
