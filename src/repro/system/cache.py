"""Expert caching in GPU memory (Section VI-D, Figure 15).

Prior work (Huang et al.) observed that a few "hot" experts dominate
activations and proposed buffering them in GPU memory.  The paper evaluates
LIFO (the policy proposed there), LFU (SE-MoE) and LRU replacement on top of
both Pre-gated MoE and MoE-OnDemand.  This module implements all three
policies behind a common :class:`ExpertCache` interface keyed by
``(moe_block_index, expert_id)`` — each MoE block has its own experts, so
cache entries are per-block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Dict, List, Optional, Tuple

ExpertKey = Tuple[int, int]  # (moe_block_index, expert_id)


@dataclass
class CacheStats:
    """Hit/miss counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class EvictionPolicy:
    """Interface for cache replacement policies."""

    name = "base"

    def on_insert(self, key: ExpertKey) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def on_access(self, key: ExpertKey) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def on_evict(self, key: ExpertKey) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def choose_victim(self, candidates: Collection[ExpertKey]) -> ExpertKey:  # pragma: no cover
        """Pick the key to evict among ``candidates``.

        ``candidates`` is the owner's evictable set: a dict or live view
        with O(1) ``in``, iterating in the owner's insertion order.  Order
        policies walk their own order from the victim end and return the
        first candidate, so a victim costs one step per skipped key.
        """
        raise NotImplementedError

    # -- round-replay protocol ------------------------------------------
    # Steady-state round replay skips scheduling rounds analytically, so a
    # policy must be able to (1) snapshot the state that decides future
    # evictions, (2) certify that one skipped round would change that state
    # in a way that is exactly repeatable, and (3) apply n rounds' worth of
    # that change in one step.  Order-based policies (LIFO/LRU) only qualify
    # when the per-round state change is a fixed point (no change at all);
    # count-based policies (LFU) additionally qualify when every key's count
    # grows by the same amount each round (the n*delta fast-forward).

    def replay_state(self) -> Tuple:
        """Hashable snapshot of the eviction-deciding state."""
        return ()

    def replay_delta(self, prev: Tuple, cur: Tuple) -> Optional[Tuple]:
        """Per-round state change between two snapshots; ``None`` if a
        window of such rounds cannot be fast-forwarded exactly."""
        return () if prev == cur else None

    def replay_fast_forward(self, num_rounds: int, delta: Tuple) -> None:
        """Apply ``num_rounds`` rounds' worth of a verified ``delta``."""


class LIFOPolicy(EvictionPolicy):
    """Last-in-first-out replacement (the expert-buffering proposal of [14])."""

    name = "lifo"

    def __init__(self) -> None:
        # Insertion-ordered dict as a stack: O(1) push, removal and top.
        self._stack: Dict[ExpertKey, None] = {}

    def on_insert(self, key: ExpertKey) -> None:
        self._stack.pop(key, None)
        self._stack[key] = None

    def on_access(self, key: ExpertKey) -> None:
        pass  # insertion order alone decides eviction

    def on_evict(self, key: ExpertKey) -> None:
        self._stack.pop(key, None)

    def choose_victim(self, candidates: Collection[ExpertKey]) -> ExpertKey:
        for key in reversed(self._stack):
            if key in candidates:
                return key
        return list(candidates)[-1]

    def replay_state(self) -> Tuple:
        return tuple(self._stack)


class LRUPolicy(EvictionPolicy):
    """Least-recently-used replacement."""

    name = "lru"

    def __init__(self) -> None:
        # Oldest first.  A plain dict re-inserts as fast as OrderedDict
        # moves, and snapshots (replay_state) copy several times faster.
        self._order: Dict[ExpertKey, None] = {}

    def on_insert(self, key: ExpertKey) -> None:
        self._order.pop(key, None)
        self._order[key] = None

    def on_access(self, key: ExpertKey) -> None:
        order = self._order
        if key in order:
            del order[key]
            order[key] = None

    def on_evict(self, key: ExpertKey) -> None:
        self._order.pop(key, None)

    def choose_victim(self, candidates: Collection[ExpertKey]) -> ExpertKey:
        for key in self._order:
            if key in candidates:
                return key
        return next(iter(candidates))

    def replay_state(self) -> Tuple:
        return tuple(self._order)


class LFUPolicy(EvictionPolicy):
    """Least-frequently-used replacement (SE-MoE's expert buffer)."""

    name = "lfu"

    def __init__(self) -> None:
        self._counts: Dict[ExpertKey, int] = {}

    def on_insert(self, key: ExpertKey) -> None:
        self._counts.setdefault(key, 0)

    def on_access(self, key: ExpertKey) -> None:
        self._counts[key] = self._counts.get(key, 0) + 1

    def on_evict(self, key: ExpertKey) -> None:
        self._counts.pop(key, None)

    def choose_victim(self, candidates: Collection[ExpertKey]) -> ExpertKey:
        # A scan, but only per eviction; ties go to the earliest candidate.
        counts = self._counts
        return min(candidates, key=lambda k: counts.get(k, 0))

    def replay_state(self) -> Tuple:
        return tuple(sorted(self._counts.items()))

    def replay_delta(self, prev: Tuple, cur: Tuple) -> Optional[Tuple]:
        # Access counts grow monotonically, so a fixed point is the rare
        # case — but a steady round bumps every key by a constant amount,
        # which extrapolates exactly as long as the key set is stable.
        if tuple(k for k, _ in prev) != tuple(k for k, _ in cur):
            return None
        return tuple((key, after - before)
                     for (key, before), (_, after) in zip(prev, cur))

    def replay_fast_forward(self, num_rounds: int, delta: Tuple) -> None:
        for key, per_round in delta:
            if per_round and key in self._counts:
                self._counts[key] += num_rounds * per_round


_POLICIES = {
    "lifo": LIFOPolicy,
    "lru": LRUPolicy,
    "lfu": LFUPolicy,
}


def make_policy(name: str) -> EvictionPolicy:
    """Instantiate a replacement policy by name (``lifo`` / ``lru`` / ``lfu``)."""
    try:
        return _POLICIES[name.lower()]()
    except KeyError:
        raise ValueError(f"unknown cache policy {name!r}; known: {sorted(_POLICIES)}") from None


class ExpertCache:
    """A fixed-capacity cache of expert parameters resident in GPU memory.

    Parameters
    ----------
    capacity_experts:
        Maximum number of experts kept resident (0 disables caching).
    policy:
        Replacement policy name or instance.
    """

    def __init__(self, capacity_experts: int, policy: "str | EvictionPolicy" = "lru") -> None:
        if capacity_experts < 0:
            raise ValueError("capacity_experts must be non-negative")
        self.capacity = capacity_experts
        self.policy = make_policy(policy) if isinstance(policy, str) else policy
        self._resident: Dict[ExpertKey, None] = {}
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._resident)

    def __contains__(self, key: ExpertKey) -> bool:
        return key in self._resident

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def resident_keys(self) -> List[ExpertKey]:
        return list(self._resident.keys())

    def resident_for_block(self, block_index: int) -> List[int]:
        """Expert ids of ``block_index`` currently resident."""
        return [e for (b, e) in self._resident if b == block_index]

    # ------------------------------------------------------------------
    def lookup(self, key: ExpertKey) -> bool:
        """Check residency of an expert; updates hit/miss statistics."""
        if not self.enabled:
            self.stats.misses += 1
            return False
        if key in self._resident:
            self.stats.hits += 1
            self.policy.on_access(key)
            return True
        self.stats.misses += 1
        return False

    def insert(self, key: ExpertKey) -> Optional[ExpertKey]:
        """Insert an expert after it has been migrated to GPU memory.

        Returns the evicted key, if an eviction was required.
        """
        if not self.enabled:
            return None
        evicted = None
        if key in self._resident:
            self.policy.on_access(key)
            return None
        if len(self._resident) >= self.capacity:
            victim = self.policy.choose_victim(self._resident)
            del self._resident[victim]
            self.policy.on_evict(victim)
            self.stats.evictions += 1
            evicted = victim
        self._resident[key] = None
        self.policy.on_insert(key)
        return evicted

    def clear(self) -> None:
        for key in list(self._resident):
            self.policy.on_evict(key)
        self._resident.clear()


def cache_capacity_from_fraction(num_moe_blocks: int, num_experts: int, fraction: float) -> int:
    """Number of cacheable experts corresponding to a fraction of all experts.

    Figure 15 sweeps the cache size as 1%, 10% and 20% of the model's total
    expert count (blocks x experts-per-block).
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    return int(round(fraction * num_moe_blocks * num_experts))
