"""Shared expert-residency map: refcounted, tier-aware GPU caching.

The Figure 15 study caches hot experts in GPU memory.  :class:`ExpertResidency`
is the repo's one expert cache: the single-request engine and the
continuous-batching scheduler both cache through it.  Concurrent in-flight
requests *share* residency: an expert fetched for one request must stay in
HBM until every request computing with it has executed, and only then may a
replacement policy decide whether to keep it warm for future rounds or give
the bytes back.

The map is keyed by ``(global_moe_block_index, expert_id)`` and chooses
victims through the LIFO/LRU/LFU
:class:`~repro.system.cache.EvictionPolicy` implementations.  It has the two
properties a multi-request scheduler needs:

* **refcounted pinning** — :meth:`pin` marks an expert in use by one
  in-flight round member; a pinned entry can never be evicted, so a round's
  working set is stable from planning through execution;
* **byte accounting** — every resident expert holds a tagged allocation in
  the owning :class:`~repro.system.memory.MemoryPool` (GPU HBM), so
  residency can never silently exceed the device capacity: a miss first
  evicts unpinned entries (policy order) to make room, and still raises
  :class:`~repro.system.memory.OutOfMemoryError` if the pinned working set
  alone does not fit.

``capacity_experts`` bounds the number of *retained* (unpinned, kept-warm)
entries — the cache size of the Figure 15 sweep.  With capacity 0 nothing
outlives its pins: every expert is freed the moment its last user releases
it, which reproduces the uncached scheduler byte-for-byte (the parity
contract the tests pin down).

The map is *tier-aware* in that it records which offload tier
(``dram``/``ssd``) backs the misses it charges, so reports can attribute
saved bytes to the link they would have crossed.

The map has no round-replay hooks: the scheduler's closed-form replay stands
down up front on any placement with a GPU residency map or DRAM stage (even
at capacity 0), so every pin and release is executed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterator, List

from .cache import EvictionPolicy, ExpertKey, make_policy
from .memory import MemoryPool
from .tiers import merged_source_tier


@dataclass
class ResidencyStats:
    """Counters for one residency map (cumulative since construction).

    ``hits``/``misses`` count *unique expert uses*: one per expert per
    scheduling round (intra-round sharing between requests is free with or
    without a cache, so it is deliberately not counted as a hit).
    ``bytes_saved`` is the transfer volume avoided by hits — what an
    uncached scheduler would have migrated over the offload link.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    bytes_transferred: int = 0
    bytes_saved: int = 0
    peak_resident_experts: int = 0
    source_tier: str = "dram"

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def snapshot(self) -> "ResidencyStats":
        return replace(self)

    def since(self, earlier: "ResidencyStats") -> "ResidencyStats":
        """Counter deltas relative to an earlier :meth:`snapshot`."""
        return ResidencyStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            evictions=self.evictions - earlier.evictions,
            bytes_transferred=self.bytes_transferred - earlier.bytes_transferred,
            bytes_saved=self.bytes_saved - earlier.bytes_saved,
            peak_resident_experts=self.peak_resident_experts,
            source_tier=self.source_tier)

    def merged_with(self, other: "ResidencyStats") -> "ResidencyStats":
        """Pooled counters across replicas (peaks are per-GPU, so take max)."""
        tier = merged_source_tier(self.source_tier, other.source_tier)
        return ResidencyStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
            bytes_transferred=self.bytes_transferred + other.bytes_transferred,
            bytes_saved=self.bytes_saved + other.bytes_saved,
            peak_resident_experts=max(self.peak_resident_experts,
                                      other.peak_resident_experts),
            source_tier=tier)

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits, "misses": self.misses,
            "hit_rate": self.hit_rate, "evictions": self.evictions,
            "bytes_transferred": self.bytes_transferred,
            "bytes_saved": self.bytes_saved,
            "peak_resident_experts": self.peak_resident_experts,
            "source_tier": self.source_tier,
        }


class _UnpinnedView:
    """Live view of a map's unpinned keys, handed to the eviction policy.

    O(1) ``in``; iterates in residency insertion order (LFU's tie-break).
    """

    __slots__ = ("_tags", "_pins")

    def __init__(self, tags: Dict[ExpertKey, str],
                 pins: Dict[ExpertKey, int]) -> None:
        self._tags = tags
        self._pins = pins

    def __contains__(self, key: object) -> bool:
        return key in self._tags and key not in self._pins

    def __iter__(self) -> Iterator[ExpertKey]:
        pins = self._pins
        return (key for key in self._tags if key not in pins)


class ExpertResidency:
    """Refcounted residency map over one GPU memory pool.

    Parameters
    ----------
    pool:
        The GPU :class:`~repro.system.memory.MemoryPool` residency charges
        its bytes to (the placement's HBM pool).
    expert_bytes:
        Size of one expert's parameters.
    capacity_experts:
        Maximum number of retained (unpinned) entries kept warm between
        rounds; 0 retains nothing (pure refcounted sharing).
    policy:
        Replacement policy name or instance (``lifo`` / ``lru`` / ``lfu``).
    source_tier:
        Offload tier the misses are fetched from (reporting only).
    allow_oversubscription:
        Mirror of the engine knob: let the pool exceed capacity instead of
        raising, for analyses that measure the overshoot.
    tag_prefix / category:
        Allocation naming in the pool; the DRAM staging cache uses
        ``staged_expert`` / ``staged_experts`` so its bytes stay separately
        attributable from GPU-resident experts in peak breakdowns.
    """

    def __init__(self, pool: MemoryPool, expert_bytes: int,
                 capacity_experts: int = 0,
                 policy: "str | EvictionPolicy" = "lru",
                 source_tier: str = "dram",
                 allow_oversubscription: bool = False,
                 tag_prefix: str = "resident_expert",
                 category: str = "experts") -> None:
        if expert_bytes <= 0:
            raise ValueError("expert_bytes must be positive")
        if capacity_experts < 0:
            raise ValueError("capacity_experts must be non-negative")
        self.pool = pool
        self.expert_bytes = int(expert_bytes)
        self.capacity = int(capacity_experts)
        self.policy = make_policy(policy) if isinstance(policy, str) else policy
        self.allow_oversubscription = allow_oversubscription
        self.tag_prefix = tag_prefix
        self.category = category
        self.stats = ResidencyStats(source_tier=source_tier)
        # Every pin and release is O(1): resident keys map to their pool
        # tags in insertion order, the pin table holds only pinned keys (so
        # the retained count is the length difference), a
        # {block: {expert: None}} index answers per-block queries, and
        # policies pick victims by walking their own order over a live view
        # of the unpinned keys.
        self._tags: Dict[ExpertKey, str] = {}
        self._pins: Dict[ExpertKey, int] = {}
        self._by_block: Dict[int, Dict[int, None]] = {}
        self._unpinned = _UnpinnedView(self._tags, self._pins)
        self._seq = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._tags)

    def __contains__(self, key: ExpertKey) -> bool:
        return key in self._tags

    def is_resident(self, key: ExpertKey) -> bool:
        return key in self._tags

    def pins(self, key: ExpertKey) -> int:
        return self._pins.get(key, 0)

    def resident_keys(self) -> List[ExpertKey]:
        return list(self._tags)

    def resident_for_block(self, block_index: int) -> List[int]:
        """Expert ids of ``block_index`` currently resident (pinned or retained)."""
        return list(self._by_block.get(block_index, ()))

    @property
    def retained_count(self) -> int:
        """Number of unpinned entries kept warm (bounded by ``capacity``)."""
        return len(self._tags) - len(self._pins)

    @property
    def pinned_count(self) -> int:
        return len(self._pins)

    @property
    def resident_bytes(self) -> int:
        return len(self._tags) * self.expert_bytes

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def pin(self, key: ExpertKey) -> bool:
        """Pin ``key`` for one user; returns whether it was already resident.

        A ``True`` return is a hit: the expert's bytes are already on the
        GPU and no transfer is needed.  ``False`` is a miss: the bytes were
        reserved in the pool (evicting unpinned entries if the pool needed
        room) and the caller must issue the CPU→GPU migration.
        """
        if key in self._tags:
            self._pins[key] = self._pins.get(key, 0) + 1
            self.policy.on_access(key)
            self.stats.hits += 1
            self.stats.bytes_saved += self.expert_bytes
            return True
        self._make_room()
        self._seq += 1
        tag = f"{self.tag_prefix}:{key[0]}:{key[1]}:{self._seq}"
        self.pool.allocate(tag, self.expert_bytes, category=self.category,
                           allow_oversubscribe=self.allow_oversubscription)
        self._tags[key] = tag
        self._pins[key] = 1
        self._by_block.setdefault(key[0], {})[key[1]] = None
        self.policy.on_insert(key)
        self.stats.misses += 1
        self.stats.bytes_transferred += self.expert_bytes
        self.stats.peak_resident_experts = max(self.stats.peak_resident_experts,
                                               len(self._tags))
        return False

    def release(self, key: ExpertKey) -> None:
        """Drop one pin; at refcount zero the entry is retained or freed.

        Retention is capacity-bounded: if keeping this entry would put the
        number of unpinned entries over ``capacity_experts``, the policy
        chooses a victim among the unpinned entries (possibly this one).
        With capacity 0 the entry is freed immediately.
        """
        pins = self._pins.get(key)
        if pins is None:
            if key in self._tags:
                raise ValueError(f"expert {key!r} is not pinned")
            raise KeyError(f"expert {key!r} is not resident")
        if pins > 1:
            self._pins[key] = pins - 1
            return
        del self._pins[key]
        if self.capacity <= 0:
            self._drop(key, count_eviction=False)
            return
        while self.retained_count > self.capacity:
            if not self._evict_one():  # pragma: no cover - defensive
                break

    def evict_unpinned(self) -> int:
        """Drop every retained entry (cold-start a warm cache); returns count."""
        dropped = 0
        while self._evict_one():
            dropped += 1
        return dropped

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _evict_one(self) -> bool:
        if not self.retained_count:
            return False
        victim = self.policy.choose_victim(self._unpinned)
        self._drop(victim, count_eviction=True)
        return True

    def _drop(self, key: ExpertKey, count_eviction: bool) -> None:
        tag = self._tags.pop(key)
        del self._by_block[key[0]][key[1]]
        self.policy.on_evict(key)
        if self.pool.has(tag):
            self.pool.free(tag)
        if count_eviction:
            self.stats.evictions += 1

    def _make_room(self) -> None:
        """Evict unpinned entries until the pool can take one more expert."""
        if self.allow_oversubscription:
            return
        while self.pool.free_bytes < self.expert_bytes:
            if not self._evict_one():
                return  # pinned working set fills the pool: allocate() raises
