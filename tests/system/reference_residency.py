"""A naive refcounted residency map: the oracle for ``ExpertResidency``.

Test-only and deliberately independent of :mod:`repro.system.residency` and
:mod:`repro.system.cache`.  It imports nothing from ``repro`` but the memory
pool it charges bytes to, keeps its entries in one insertion-ordered list,
answers every query by a brute-force scan of that list, and carries its own
list-based LIFO / LRU / LFU policies.  No count, index or order is kept
incrementally beside the entry list, so a bug in the real map's O(1)
bookkeeping has no shared code to hide behind.

The rules are the map's contract: a pin on a resident key is a hit; a miss
first evicts unpinned entries in policy order until the pool has room; the
last release of a key either frees it (capacity 0) or retains it, evicting
policy victims among the unpinned entries while more than ``capacity`` are
retained.  LIFO victimises the newest insertion, LRU the least recent use,
LFU the fewest uses (ties to the earliest resident entry).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.system.memory import MemoryPool

Key = Tuple[int, int]  # (moe_block_index, expert_id)


@dataclass
class ReferenceEntry:
    key: Key
    tag: str
    pins: int


class ReferencePolicy:
    """One list-based replacement policy, selected by name."""

    def __init__(self, name: str) -> None:
        if name not in ("lifo", "lru", "lfu"):
            raise ValueError(f"unknown policy {name!r}")
        self.name = name
        self.order: List[Key] = []         # insertion (LIFO) or use (LRU) order
        self.counts: Dict[Key, int] = {}   # LFU use counts

    def on_insert(self, key: Key) -> None:
        if key in self.order:
            self.order.remove(key)
        self.order.append(key)
        self.counts.setdefault(key, 0)

    def on_access(self, key: Key) -> None:
        if self.name == "lru" and key in self.order:
            self.order.remove(key)
            self.order.append(key)
        self.counts[key] = self.counts.get(key, 0) + 1

    def on_evict(self, key: Key) -> None:
        if key in self.order:
            self.order.remove(key)
        self.counts.pop(key, None)

    def choose_victim(self, candidates: List[Key]) -> Key:
        if self.name == "lfu":
            return min(candidates, key=lambda k: self.counts.get(k, 0))
        walk = self.order[::-1] if self.name == "lifo" else self.order
        for key in walk:
            if key in candidates:
                return key
        raise AssertionError("policy order lost a resident key")

    def state(self) -> Tuple:
        if self.name == "lfu":
            return tuple(sorted(self.counts.items()))
        return tuple(self.order)


class ReferenceResidency:
    """Brute-force twin of ``ExpertResidency`` over its own memory pool."""

    def __init__(self, pool: MemoryPool, expert_bytes: int,
                 capacity_experts: int, policy: str,
                 allow_oversubscription: bool = False) -> None:
        self.pool = pool
        self.expert_bytes = expert_bytes
        self.capacity = capacity_experts
        self.policy = ReferencePolicy(policy)
        self.allow_oversubscription = allow_oversubscription
        self.entries: List[ReferenceEntry] = []
        self.hits = self.misses = self.evictions = 0
        self.bytes_transferred = self.bytes_saved = 0
        self.peak_resident_experts = 0
        self._seq = 0

    # -- queries (every one a scan) -------------------------------------
    def _find(self, key: Key):
        for entry in self.entries:
            if entry.key == key:
                return entry
        return None

    def resident_keys(self) -> List[Key]:
        return [entry.key for entry in self.entries]

    def resident_for_block(self, block_index: int) -> List[int]:
        return [entry.key[1] for entry in self.entries
                if entry.key[0] == block_index]

    def pins(self, key: Key) -> int:
        entry = self._find(key)
        return entry.pins if entry is not None else 0

    @property
    def retained_count(self) -> int:
        return sum(1 for entry in self.entries if entry.pins == 0)

    @property
    def pinned_count(self) -> int:
        return sum(1 for entry in self.entries if entry.pins > 0)

    def stats(self) -> Tuple[int, ...]:
        return (self.hits, self.misses, self.evictions, self.bytes_transferred,
                self.bytes_saved, self.peak_resident_experts)

    # -- lifecycle --------------------------------------------------------
    def pin(self, key: Key) -> bool:
        entry = self._find(key)
        if entry is not None:
            entry.pins += 1
            self.policy.on_access(key)
            self.hits += 1
            self.bytes_saved += self.expert_bytes
            return True
        if not self.allow_oversubscription:
            while self.pool.free_bytes < self.expert_bytes:
                if not self._evict_one():
                    break
        self._seq += 1
        tag = f"reference:{key[0]}:{key[1]}:{self._seq}"
        self.pool.allocate(tag, self.expert_bytes,
                           allow_oversubscribe=self.allow_oversubscription)
        self.entries.append(ReferenceEntry(key, tag, 1))
        self.policy.on_insert(key)
        self.misses += 1
        self.bytes_transferred += self.expert_bytes
        self.peak_resident_experts = max(self.peak_resident_experts,
                                         len(self.entries))
        return False

    def release(self, key: Key) -> None:
        entry = self._find(key)
        if entry is None:
            raise KeyError(key)
        if entry.pins <= 0:
            raise ValueError(key)
        entry.pins -= 1
        if entry.pins > 0:
            return
        if self.capacity <= 0:
            self._drop(entry, count_eviction=False)
            return
        while self.retained_count > self.capacity:
            if not self._evict_one():
                break

    def evict_unpinned(self) -> int:
        dropped = 0
        while self._evict_one():
            dropped += 1
        return dropped

    def _evict_one(self) -> bool:
        candidates = [entry.key for entry in self.entries if entry.pins == 0]
        if not candidates:
            return False
        self._drop(self._find(self.policy.choose_victim(candidates)),
                   count_eviction=True)
        return True

    def _drop(self, entry: ReferenceEntry, count_eviction: bool) -> None:
        self.entries.remove(entry)
        self.policy.on_evict(entry.key)
        self.pool.free(entry.tag)
        if count_eviction:
            self.evictions += 1
