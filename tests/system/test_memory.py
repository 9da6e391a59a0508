"""Tests for memory pools, peak tracking and the memory hierarchy."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.system.hardware import PAPER_SYSTEM
from repro.system.memory import MemoryHierarchy, MemoryPool, OutOfMemoryError, TieredMemory


class TestMemoryPool:
    def test_allocate_and_free(self):
        pool = MemoryPool("gpu", 100)
        pool.allocate("a", 40)
        assert pool.in_use == 40
        pool.free("a")
        assert pool.in_use == 0
        assert pool.free_bytes == 100

    def test_peak_tracks_high_water_mark(self):
        pool = MemoryPool("gpu", 100)
        pool.allocate("a", 60)
        pool.free("a")
        pool.allocate("b", 30)
        assert pool.peak == 60
        assert pool.in_use == 30

    def test_oom_raised_with_details(self):
        pool = MemoryPool("gpu", 100)
        pool.allocate("a", 90)
        with pytest.raises(OutOfMemoryError) as excinfo:
            pool.allocate("b", 20)
        assert excinfo.value.requested == 20
        assert excinfo.value.capacity == 100

    def test_oversubscription_allowed_when_requested(self):
        pool = MemoryPool("gpu", 100)
        pool.allocate("a", 150, allow_oversubscribe=True)
        assert pool.peak == 150

    def test_duplicate_tag_rejected(self):
        pool = MemoryPool("gpu", 100)
        pool.allocate("a", 10)
        with pytest.raises(ValueError):
            pool.allocate("a", 10)

    def test_free_unknown_tag(self):
        with pytest.raises(KeyError):
            MemoryPool("gpu", 100).free("nope")

    def test_category_usage_and_peak(self):
        pool = MemoryPool("gpu", 1000)
        pool.allocate("w1", 100, category="weights")
        pool.allocate("e1", 200, category="experts")
        pool.allocate("e2", 300, category="experts")
        assert pool.category_usage("experts") == 500
        pool.free("e2")
        assert pool.category_usage("experts") == 200
        assert pool.category_peak("experts") == 500

    def test_free_category(self):
        pool = MemoryPool("gpu", 1000)
        pool.allocate("e1", 100, category="experts")
        pool.allocate("e2", 100, category="experts")
        pool.allocate("w", 100, category="weights")
        freed = pool.free_category("experts")
        assert freed == 200
        assert pool.in_use == 100

    def test_has_and_allocations(self):
        pool = MemoryPool("gpu", 100)
        pool.allocate("a", 10)
        assert pool.has("a")
        assert not pool.has("b")
        assert [a.tag for a in pool.allocations()] == ["a"]

    def test_utilisation(self):
        pool = MemoryPool("gpu", 200)
        pool.allocate("a", 50)
        assert pool.utilisation() == pytest.approx(0.25)
        assert pool.peak_utilisation() == pytest.approx(0.25)

    def test_reset_peak(self):
        pool = MemoryPool("gpu", 100)
        pool.allocate("a", 80)
        pool.free("a")
        pool.reset_peak()
        assert pool.peak == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            MemoryPool("gpu", 0)

    def test_negative_allocation(self):
        with pytest.raises(ValueError):
            MemoryPool("gpu", 10).allocate("a", -1)


CATEGORIES = ("experts", "weights", "kv")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(("allocate", "free", "free_category",
                                           "reset_peak")),
                          st.integers(min_value=0, max_value=7),
                          st.sampled_from(CATEGORIES),
                          st.integers(min_value=0, max_value=50)),
                max_size=60))
def test_category_totals_match_brute_force(ops):
    """Running category totals equal a scan of the live allocations."""
    pool = MemoryPool("gpu", 10_000)
    live = {}
    peaks = {}
    for op, tag_id, category, num_bytes in ops:
        tag = f"t{tag_id}"
        if op == "allocate" and tag not in live:
            pool.allocate(tag, num_bytes, category=category)
            live[tag] = (category, num_bytes)
            usage = sum(b for c, b in live.values() if c == category)
            peaks[category] = max(peaks.get(category, 0), usage)
        elif op == "free" and tag in live:
            pool.free(tag)
            del live[tag]
        elif op == "free_category":
            expected = sum(b for c, b in live.values() if c == category)
            assert pool.free_category(category) == expected
            live = {t: v for t, v in live.items() if v[0] != category}
        elif op == "reset_peak":
            pool.reset_peak()
            peaks = {}
        for cat in CATEGORIES:
            assert pool.category_usage(cat) == sum(
                b for c, b in live.values() if c == cat)
            assert pool.category_peak(cat) == peaks.get(cat, 0)
        assert pool.in_use == sum(b for _, b in live.values())


class TestMemoryHierarchy:
    def test_from_system_capacities(self):
        hierarchy = MemoryHierarchy.from_system(PAPER_SYSTEM)
        assert hierarchy.gpu.capacity == PAPER_SYSTEM.gpu.memory_bytes
        assert hierarchy.cpu.capacity == PAPER_SYSTEM.host.dram_bytes
        assert hierarchy.ssd.capacity == PAPER_SYSTEM.ssd.capacity_bytes

    def test_offload_pool_selection(self):
        hierarchy = MemoryHierarchy.from_system(PAPER_SYSTEM)
        assert hierarchy.offload_pool("dram") is hierarchy.cpu
        assert hierarchy.offload_pool("ssd") is hierarchy.ssd
        with pytest.raises(ValueError):
            hierarchy.offload_pool("floppy")

    def test_missing_ssd_tier(self):
        hierarchy = MemoryHierarchy(gpu=MemoryPool("g", 10), cpu=MemoryPool("c", 10), ssd=None)
        with pytest.raises(ValueError):
            hierarchy.offload_pool("ssd")


class TestTieredMemoryAccessor:
    def test_pool_by_tier_name(self):
        memory = TieredMemory.from_system(PAPER_SYSTEM)
        assert memory.pool("hbm") is memory.gpu
        assert memory.pool("dram") is memory.cpu
        assert memory.pool("ssd") is memory.ssd

    def test_pools_carry_tier_names(self):
        memory = TieredMemory.from_system(PAPER_SYSTEM)
        assert memory.pool("hbm").tier == "hbm"
        assert memory.pool("dram").tier == "dram"
        assert memory.pool("ssd").tier == "ssd"

    def test_unknown_tier_lists_available(self):
        memory = TieredMemory.from_system(PAPER_SYSTEM)
        with pytest.raises(ValueError) as err:
            memory.pool("floppy")
        message = str(err.value)
        for tier in ("hbm", "dram", "ssd"):
            assert tier in message

    def test_missing_ssd_not_listed(self):
        memory = TieredMemory(gpu=MemoryPool("g", 10), cpu=MemoryPool("c", 10), ssd=None)
        assert memory.available_tiers() == ["hbm", "dram"]
        with pytest.raises(ValueError) as err:
            memory.pool("ssd")
        assert "['hbm', 'dram']" in str(err.value)

    def test_alias_is_same_class(self):
        assert MemoryHierarchy is TieredMemory

    def test_oom_message_names_tier(self):
        memory = TieredMemory.from_system(PAPER_SYSTEM)
        pool = memory.pool("hbm")
        with pytest.raises(OutOfMemoryError) as err:
            pool.allocate("too_big", pool.capacity + 1)
        assert "[hbm tier]" in str(err.value)
        assert err.value.tier == "hbm"

    def test_oom_message_without_tier_unchanged(self):
        pool = MemoryPool("scratch", 10)
        with pytest.raises(OutOfMemoryError) as err:
            pool.allocate("x", 11)
        assert "tier" not in str(err.value)
        assert err.value.tier == ""
