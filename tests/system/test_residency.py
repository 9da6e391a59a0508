"""Tests for the shared refcounted expert-residency map."""

import pytest

from repro.system import ExpertResidency, MemoryPool, OutOfMemoryError, ResidencyStats

EXPERT = 10  # bytes per expert: tiny numbers keep the arithmetic obvious


def make_residency(capacity=4, policy="lru", pool_experts=100, **kwargs):
    pool = MemoryPool("gpu", pool_experts * EXPERT)
    return ExpertResidency(pool, EXPERT, capacity_experts=capacity,
                           policy=policy, **kwargs)


class TestPinRelease:
    def test_miss_allocates_hit_does_not(self):
        res = make_residency()
        assert res.pin((0, 1)) is False           # miss: caller must transfer
        assert res.pool.in_use == EXPERT
        assert res.pin((0, 1)) is True            # hit: already resident
        assert res.pool.in_use == EXPERT
        assert res.pins((0, 1)) == 2

    def test_refcount_keeps_entry_resident(self):
        res = make_residency()
        res.pin((0, 1))
        res.pin((0, 1))
        res.release((0, 1))
        assert res.is_resident((0, 1))
        assert res.pins((0, 1)) == 1

    def test_zero_capacity_frees_on_last_release(self):
        res = make_residency(capacity=0)
        res.pin((0, 1))
        res.release((0, 1))
        assert not res.is_resident((0, 1))
        assert res.pool.in_use == 0

    def test_capacity_retains_unpinned(self):
        res = make_residency(capacity=2)
        res.pin((0, 1))
        res.release((0, 1))
        assert res.is_resident((0, 1))
        assert res.retained_count == 1
        assert res.pool.in_use == EXPERT          # bytes stay charged

    def test_release_unknown_or_unpinned_rejected(self):
        res = make_residency()
        with pytest.raises(KeyError):
            res.release((9, 9))
        res.pin((0, 1))
        res.release((0, 1))
        with pytest.raises(ValueError):
            res.release((0, 1))                   # retained but not pinned

    def test_resident_for_block(self):
        res = make_residency()
        res.pin((0, 1))
        res.pin((0, 2))
        res.pin((3, 1))
        assert sorted(res.resident_for_block(0)) == [1, 2]
        assert res.resident_for_block(3) == [1]
        assert res.resident_for_block(7) == []

    def test_validation(self):
        pool = MemoryPool("gpu", 100)
        with pytest.raises(ValueError):
            ExpertResidency(pool, 0)
        with pytest.raises(ValueError):
            ExpertResidency(pool, 10, capacity_experts=-1)


class TestEviction:
    def test_retained_count_never_exceeds_capacity(self):
        res = make_residency(capacity=2, policy="lru")
        for i in range(5):
            res.pin((0, i))
            res.release((0, i))
            assert res.retained_count <= 2

    def test_lru_evicts_least_recent(self):
        res = make_residency(capacity=2, policy="lru")
        for i in (0, 1):
            res.pin((0, i))
            res.release((0, i))
        res.pin((0, 0))                           # touch 0: now 1 is LRU
        res.release((0, 0))
        res.pin((0, 2))
        res.release((0, 2))                       # over capacity: evict 1
        assert res.is_resident((0, 0)) and res.is_resident((0, 2))
        assert not res.is_resident((0, 1))

    def test_lifo_evicts_last_inserted(self):
        res = make_residency(capacity=2, policy="lifo")
        for i in (0, 1, 2):
            res.pin((0, i))
            res.release((0, i))
        # Inserting 2 overflows; LIFO victimises the most recent unpinned
        # insertion (2 itself once unpinned, per Huang et al.'s stack).
        assert res.retained_count == 2
        assert res.is_resident((0, 0))

    def test_lfu_evicts_least_frequent(self):
        res = make_residency(capacity=2, policy="lfu")
        res.pin((0, 0))
        res.release((0, 0))
        for _ in range(3):                        # heat up expert 1
            res.pin((0, 1))
            res.release((0, 1))
        res.pin((0, 2))
        res.release((0, 2))
        assert res.is_resident((0, 1))
        assert not res.is_resident((0, 0))        # cold entry went first

    @pytest.mark.parametrize("policy", ["lifo", "lru", "lfu"])
    def test_pinned_entries_never_evicted(self, policy):
        res = make_residency(capacity=1, policy=policy, pool_experts=2)
        res.pin((0, 0))                           # pinned: must survive everything
        res.pin((0, 1))
        res.release((0, 1))                       # retained
        res.pin((0, 2))                           # pool full: must evict (0,1) not (0,0)
        assert res.is_resident((0, 0))
        assert res.pins((0, 0)) == 1
        assert not res.is_resident((0, 1))
        assert res.stats.evictions == 1

    def test_pool_pressure_evicts_unpinned(self):
        res = make_residency(capacity=10, policy="lru", pool_experts=2)
        res.pin((0, 0))
        res.release((0, 0))
        res.pin((0, 1))
        res.release((0, 1))
        assert res.pool.free_bytes == 0
        res.pin((0, 2))                           # evicts LRU (0,0) for room
        assert not res.is_resident((0, 0))
        assert res.is_resident((0, 1)) and res.is_resident((0, 2))

    def test_oom_when_pinned_working_set_fills_pool(self):
        res = make_residency(capacity=4, pool_experts=2)
        res.pin((0, 0))
        res.pin((0, 1))
        with pytest.raises(OutOfMemoryError):
            res.pin((0, 2))

    def test_evict_unpinned_cold_starts(self):
        res = make_residency(capacity=4)
        for i in range(3):
            res.pin((0, i))
            res.release((0, i))
        res.pin((0, 99))
        assert res.evict_unpinned() == 3
        assert res.resident_keys() == [(0, 99)]   # pinned entry survives


class TestStats:
    def test_counters(self):
        res = make_residency(capacity=1)
        res.pin((0, 0))          # miss
        res.pin((0, 0))          # hit
        res.release((0, 0))
        res.release((0, 0))      # retained
        res.pin((0, 0))          # hit from retention
        res.release((0, 0))
        assert res.stats.misses == 1
        assert res.stats.hits == 2
        assert res.stats.hit_rate == pytest.approx(2 / 3)
        assert res.stats.bytes_transferred == EXPERT
        assert res.stats.bytes_saved == 2 * EXPERT
        assert res.stats.peak_resident_experts == 1

    def test_snapshot_and_since(self):
        res = make_residency(capacity=1)
        res.pin((0, 0))
        before = res.stats.snapshot()
        res.pin((0, 0))
        delta = res.stats.since(before)
        assert delta.hits == 1 and delta.misses == 0
        assert delta.bytes_saved == EXPERT

    def test_merged_with_pools_counters(self):
        a = ResidencyStats(hits=2, misses=2, evictions=1, bytes_transferred=20,
                           bytes_saved=20, peak_resident_experts=3)
        b = ResidencyStats(hits=1, misses=3, evictions=0, bytes_transferred=30,
                           bytes_saved=10, peak_resident_experts=5)
        merged = a.merged_with(b)
        assert merged.hits == 3 and merged.misses == 5
        assert merged.hit_rate == pytest.approx(3 / 8)
        assert merged.peak_resident_experts == 5   # per-GPU peak: max, not sum

    def test_as_dict(self):
        stats = make_residency().stats
        d = stats.as_dict()
        assert set(d) >= {"hits", "misses", "hit_rate", "evictions",
                          "bytes_transferred", "bytes_saved"}


@pytest.mark.parametrize("policy", ["lifo", "lru", "lfu"])
def test_random_workload_invariants(policy):
    """Property-style check: under random pin/release traffic the map never
    evicts a pinned entry, never retains more than its capacity, and its
    pool charge always equals resident-count × expert-size."""
    import random

    rng = random.Random(1234 + hash(policy) % 1000)
    capacity = 3
    res = make_residency(capacity=capacity, policy=policy, pool_experts=8)
    live_pins = {}  # key -> our own refcount mirror

    for step in range(2000):
        key = (rng.randrange(3), rng.randrange(6))
        if key in live_pins and rng.random() < 0.55:
            res.release(key)
            live_pins[key] -= 1
            if live_pins[key] == 0:
                del live_pins[key]
        else:
            try:
                res.pin(key)
            except OutOfMemoryError:
                continue  # pinned working set filled the pool: legal outcome
            live_pins[key] = live_pins.get(key, 0) + 1

        # Invariants after every step.
        for pinned_key, count in live_pins.items():
            assert res.is_resident(pinned_key), (step, pinned_key)
            assert res.pins(pinned_key) == count
        assert res.retained_count <= capacity
        assert res.pool.in_use == len(res) * EXPERT
        assert res.pool.in_use <= res.pool.capacity
