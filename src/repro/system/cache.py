"""Expert-cache replacement policies (Section VI-D, Figure 15).

Prior work (Huang et al.) observed that a few "hot" experts dominate
activations and proposed buffering them in GPU memory.  The paper evaluates
LIFO (the policy proposed there), LFU (SE-MoE) and LRU replacement on top of
both Pre-gated MoE and MoE-OnDemand.  This module implements all three
policies behind a common :class:`EvictionPolicy` interface keyed by
``(moe_block_index, expert_id)`` — each MoE block has its own experts, so
cache entries are per-block.  The cache is
:class:`~repro.system.residency.ExpertResidency`.

A policy is only its four hooks: the scheduler's round replay stands down on
any placement with a cache, so every round that touches a policy runs for
real and no policy state is ever snapshotted or fast-forwarded.
"""

from __future__ import annotations

from typing import Collection, Dict, Tuple

ExpertKey = Tuple[int, int]  # (moe_block_index, expert_id)


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


class LRUPolicy(EvictionPolicy):
    """Least-recently-used replacement."""

    name = "lru"

    def __init__(self) -> None:
        # Oldest first; a plain dict re-inserts as fast as OrderedDict moves.
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


def cache_capacity_from_fraction(num_moe_blocks: int, num_experts: int, fraction: float) -> int:
    """Number of cacheable experts corresponding to a fraction of all experts.

    Figure 15 sweeps the cache size as 1%, 10% and 20% of the model's total
    expert count (blocks x experts-per-block).
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    return int(round(fraction * num_moe_blocks * num_experts))
