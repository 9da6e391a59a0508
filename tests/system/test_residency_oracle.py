"""``ExpertResidency`` against the brute-force reference map.

A seeded random stream of pins, releases (some of them invalid) and
cold-start evictions drives the real map and the test-only
:class:`~tests.system.reference_residency.ReferenceResidency` side by side.
After every operation the two must agree on the outcome (return value or
exception type), the victims, every statistic, the per-block resident
lists, the retained and pinned counts, every pin count, the pool bytes and
the eviction policy's own order (LIFO/LRU) or use counts (LFU).  Maps broken
in each of the ways the O(1) bookkeeping could go wrong must fail the same
check.
"""

import ast
import os
import random

import pytest

from repro.system import ExpertResidency, MemoryPool, OutOfMemoryError
from repro.system.cache import LFUPolicy, LIFOPolicy, LRUPolicy

from . import reference_residency
from .reference_residency import ReferenceResidency

EXPERT = 10
BLOCKS = 3
KEYS = [(block, expert) for block in range(BLOCKS) for expert in range(6)]
STEPS = 600
#: Pool sizes in experts: roomy (capacity-bound retention only) and tight
#: (pool-pressure evictions and OOM when the pinned working set fills it).
ROOMY, TIGHT = 64, 5
POLICIES = ("lifo", "lru", "lfu")
CONFIGS = [(policy, capacity, pool)
           for policy in POLICIES for capacity in (0, 1, 4)
           for pool in (ROOMY, TIGHT)]


def outcome(call):
    try:
        return "ok", call()
    except (KeyError, ValueError, OutOfMemoryError) as exc:
        return "raise", type(exc).__name__


def policy_state(policy):
    """A real policy's order or counts, in the reference policy's form."""
    if isinstance(policy, LFUPolicy):
        return tuple(sorted(policy._counts.items()))
    if isinstance(policy, LIFOPolicy):
        return tuple(policy._stack)
    return tuple(policy._order)


def mismatch(real, ref):
    """First observable difference between the two maps, or ``None``."""
    s = real.stats
    got = (s.hits, s.misses, s.evictions, s.bytes_transferred, s.bytes_saved,
           s.peak_resident_experts)
    checks = [
        ("resident keys", real.resident_keys(), ref.resident_keys()),
        ("stats", got, ref.stats()),
        ("retained", real.retained_count, ref.retained_count),
        ("pinned", real.pinned_count, ref.pinned_count),
        ("pool bytes", real.pool.in_use, ref.pool.in_use),
        ("policy state", policy_state(real.policy), ref.policy.state()),
    ]
    checks += [(f"block {b}", real.resident_for_block(b),
                ref.resident_for_block(b)) for b in range(BLOCKS)]
    checks += [(f"pins {key}", real.pins(key), ref.pins(key)) for key in KEYS]
    for what, a, b in checks:
        if a != b:
            return f"{what}: {a!r} != reference {b!r}"
    return None


def divergence(real, policy, capacity, pool_experts, seed=0, steps=STEPS):
    """Fuzz ``real`` against a fresh reference.

    Returns ``(first mismatch or None, reference, per-outcome counts)``.
    """
    ref = ReferenceResidency(MemoryPool("ref", pool_experts * EXPERT), EXPERT,
                             capacity, policy)
    rng = random.Random(f"{policy}-{capacity}-{pool_experts}-{seed}")
    seen = {}
    for step in range(steps):
        roll = rng.random()
        pinned = [key for key in ref.resident_keys() if ref.pins(key)]
        if roll < 0.03:
            op = "evict_unpinned", ()
        elif roll < 0.06:
            op = "release", (rng.choice(KEYS),)     # often invalid
        elif roll < 0.5 and pinned:
            op = "release", (rng.choice(pinned),)
        else:
            op = "pin", (rng.choice(KEYS),)
        name, args = op
        before = set(ref.resident_keys()), set(real.resident_keys())
        want = outcome(lambda: getattr(ref, name)(*args))
        got = outcome(lambda: getattr(real, name)(*args))
        seen[want] = seen.get(want, 0) + 1
        where = f"step {step} {name}{args}"
        if got != want:
            return f"{where}: {got} != reference {want}", ref, seen
        victims = (before[1] - set(real.resident_keys()),
                   before[0] - set(ref.resident_keys()))
        if victims[0] != victims[1]:
            return f"{where}: victims {victims[0]} != {victims[1]}", ref, seen
        problem = mismatch(real, ref)
        if problem:
            return f"{where}: {problem}", ref, seen
    return None, ref, seen


def real_map(policy, capacity, pool_experts, cls=ExpertResidency):
    return cls(MemoryPool("gpu", pool_experts * EXPERT), EXPERT,
               capacity_experts=capacity, policy=policy)


@pytest.mark.parametrize("policy,capacity,pool", CONFIGS)
def test_matches_reference(policy, capacity, pool):
    problem, ref, seen = divergence(real_map(policy, capacity, pool), policy,
                                    capacity, pool)
    assert problem is None, problem
    # The run exercised the paths the bookkeeping serves.
    assert ref.hits and ref.misses
    assert seen.get(("raise", "KeyError")) or seen.get(("raise", "ValueError"))
    if capacity:
        assert ref.evictions
    if pool == TIGHT:
        assert seen.get(("raise", "OutOfMemoryError"))


class RetainedHitStaysRetained(ExpertResidency):
    """A hit on a retained entry is never counted as pinned, so the
    retained count is not decremented on a hit."""

    def pin(self, key):
        if key in self and not self.pins(key):
            self.policy.on_access(key)
            self.stats.hits += 1
            self.stats.bytes_saved += self.expert_bytes
            return True
        return super().pin(key)


class LRUWalkIgnoresPins(LRUPolicy):
    """The LRU walk returns the oldest key without skipping pinned ones."""

    def choose_victim(self, candidates):
        return next(iter(self._order))


class StaleBlockIndex(ExpertResidency):
    """Dropping an entry leaves its expert in the per-block index."""

    def _drop(self, key, count_eviction):
        super()._drop(key, count_eviction)
        self._by_block[key[0]][key[1]] = None


#: Broken map → (factory, the configuration whose traffic exposes it).
BROKEN = {
    "retained_count_on_hit": (
        lambda: real_map("lru", 4, ROOMY, RetainedHitStaysRetained),
        ("lru", 4, ROOMY)),
    "lru_walk_takes_pinned": (
        lambda: real_map(LRUWalkIgnoresPins(), 1, TIGHT), ("lru", 1, TIGHT)),
    "block_index_not_cleaned": (
        lambda: real_map("lifo", 0, ROOMY, StaleBlockIndex), ("lifo", 0, ROOMY)),
}


@pytest.mark.parametrize("broken", sorted(BROKEN))
def test_reference_catches_broken_map(broken):
    factory, (policy, capacity, pool) = BROKEN[broken]
    sound, _, _ = divergence(real_map(policy, capacity, pool), policy,
                             capacity, pool)
    assert sound is None, sound
    problem, _, _ = divergence(factory(), policy, capacity, pool)
    assert problem is not None, f"{broken} went unnoticed"


def test_reference_imports_only_the_pool():
    """The reference must not delegate back to the map or its policies."""
    path = os.path.splitext(reference_residency.__file__)[0] + ".py"
    with open(path) as handle:
        tree = ast.parse(handle.read())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert not alias.name.startswith("repro"), alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.module.startswith("repro"):
            assert node.module == "repro.system.memory", node.module
            imported.extend(alias.name for alias in node.names)
    assert imported == ["MemoryPool"]
