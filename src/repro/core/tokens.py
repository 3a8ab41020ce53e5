"""Step 7 of Algorithm 3: token split-and-distribute.

Each valued node creates one token ``(item, m_i)`` whose weight ``m_i`` is a
power of two.  The process has two stages, both made of phases that cost
O(1) rounds w.h.p.:

1. **Splitting** — every token of weight > 1 is split into two tokens of
   half the weight; one stays, the other is pushed to a random partner
   (a uniformly random node in the paper's model).  After
   ``lg m_i = O(log n)`` phases all tokens have weight 1.
2. **Spreading** — a node holding more than one token keeps one and pushes
   every other token to a random partner, until every node holds at
   most one token.  Because at most ``n^{0.99}`` tokens exist, a pushed
   token fails to land alone with probability ``O(n^{-0.01})`` and
   ``O(log n)`` phases suffice w.h.p.

Under the Section-5 failure model a failed push simply merges the two
halves back (splitting stage) or keeps the token where it is (spreading
stage), costing only a constant-factor slowdown (§5.2).  Each round's
outage (failures, churn, crash/drop) comes from
:func:`repro.gossip.engine.round_outage`, as on every other substrate.

Token state is three flat numpy columns ``(item, weight, holder)``:
splitting halves weights with array ops, per-node token counts come from
``np.bincount`` and failure merges are boolean-mask updates.  Only a
round's pushers draw targets
(:meth:`~repro.topology.sampler.PeerSampler.draw_for`).  An engine round
would draw a partner for all n nodes, which costs about as much as a
whole token round, so tokens are not an engine protocol; like the pull
surface they ignore ``env.engine``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError, ConvergenceError
from repro.gossip.engine import round_outage, start_schedules
from repro.gossip.env import GossipEnv, resolve_env
from repro.gossip.messages import BITS_HEADER, BITS_PER_VALUE, id_bits
from repro.gossip.metrics import NetworkMetrics
from repro.utils.inputs import integral
from repro.utils.mathutils import is_power_of_two
from repro.utils.rand import RandomSource


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

    def copies_of(self, item: int) -> int:
        return int(np.count_nonzero(self.owners == item))


def _validate_inputs(
    item_nodes: Union[Sequence[int], np.ndarray], multiplicity: int, n: int
) -> Tuple[np.ndarray, int, int]:
    n = integral(n, "n")
    multiplicity = integral(multiplicity, "multiplicity")
    raw = np.asarray(item_nodes)
    if raw.ndim != 1 or raw.size == 0:
        raise ConfigurationError("item_nodes must be a non-empty 1-d sequence")
    if raw.dtype.kind not in "iu" and not (
        raw.dtype.kind == "f" and np.all(np.isfinite(raw) & (raw == np.floor(raw)))
    ):
        raise ConfigurationError("item_nodes must be integer node indices")
    item_nodes = raw.astype(int)
    if np.any(item_nodes < 0) or np.any(item_nodes >= n):
        raise ConfigurationError("item_nodes must be valid node indices")
    if not is_power_of_two(multiplicity):
        raise ConfigurationError("multiplicity must be a power of two")
    total_tokens = item_nodes.size * multiplicity
    if total_tokens > n:
        raise ConfigurationError(
            f"cannot place {total_tokens} unit tokens on {n} nodes"
        )
    return item_nodes, multiplicity, n


def distribute_tokens(
    item_nodes: Union[Sequence[int], np.ndarray],
    multiplicity: int,
    n: int,
    rng: Union[None, int, RandomSource] = None,
    metrics: Optional[NetworkMetrics] = None,
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
        The :class:`~repro.gossip.env.GossipEnv`.  A pusher sits out a
        round when :func:`~repro.gossip.engine.round_outage` says so
        (failure model, topology process, fault injector), and a push goes
        to a partner drawn from the env's topology or the process's round
        sampler.  Its schedules see the rounds on the clock of ``metrics``
        (:func:`~repro.gossip.engine.start_schedules`).  ``env.engine``
        does not apply: the token columns are the one implementation.

    Each round takes one outage and charges one message per successful
    push; more than O(log n) phases raise
    :class:`~repro.exceptions.ConvergenceError`.
    """
    item_nodes, multiplicity, n = _validate_inputs(item_nodes, multiplicity, n)

    env = resolve_env(env)
    source = rng if isinstance(rng, RandomSource) else RandomSource(rng)
    stats = metrics if metrics is not None else NetworkMetrics(keep_history=False)
    sampler = start_schedules(env, n, stats)
    failures, process, faults = env.failure_model, env.topology_process, env.faults
    rounds_before = stats.rounds
    max_phases = int(40 + 30 * np.log2(max(n, 2)))

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
        rounds equal to the largest per-node plan.  A failed origin keeps
        its token that round (the Section-5 merge semantics as a no-op
        holder update).
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
            failed, round_sampler, round_faults = round_outage(
                record.round_index, n, source, failures, process, faults
            )
            if round_faults is not None:
                stats.record_faults_injected(round_faults.injected)
            stats.record_failures(int(np.count_nonzero(failed)), record)
            in_slot = slots == round_slot
            index = sorted_index[in_slot]
            origin = sorted_origins[in_slot]
            ok = ~failed[origin]
            failed_pushes += int(index.size - int(ok.sum()))
            pushes = int(ok.sum())
            if pushes == 0:
                continue
            targets = (round_sampler or sampler).draw_for(source, origin[ok])
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
    )
