"""Memory pools with allocation tracking, peak accounting and OOM detection.

Used by the serving engines to track GPU HBM usage (parameters, activated
experts, activations) and to reproduce the GPU-only out-of-memory result for
Switch-Large on an 80 GB A100 (Figures 10-12).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterator, Optional


class OutOfMemoryError(RuntimeError):
    """Raised when an allocation would exceed a pool's capacity."""

    def __init__(self, pool: "MemoryPool", requested: int) -> None:
        self.pool_name = pool.name
        self.tier = pool.tier
        self.requested = requested
        self.in_use = pool.in_use
        self.capacity = pool.capacity
        tier = f" [{pool.tier} tier]" if pool.tier else ""
        super().__init__(
            f"{pool.name}{tier}: out of memory — requested {requested / 1e9:.2f} GB with "
            f"{pool.in_use / 1e9:.2f} GB already in use of {pool.capacity / 1e9:.2f} GB"
        )


@dataclass(slots=True)
class Allocation:
    """A live allocation inside a :class:`MemoryPool`."""

    tag: Hashable
    num_bytes: int
    category: str = "generic"


class MemoryPool:
    """A fixed-capacity memory pool (GPU HBM, host DRAM, or SSD).

    Allocations are tagged so the engines can free them selectively (e.g.
    free the experts of block *N* once block *N+1* is done with the GPU) and
    categorised so peak usage can be broken down in reports.
    """

    def __init__(self, name: str, capacity: int, tier: str = "") -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.name = name
        #: Memory-tier name ("hbm"/"dram"/"ssd") when the pool belongs to a
        #: :class:`TieredMemory`; surfaces in :class:`OutOfMemoryError`.
        self.tier = tier
        self.capacity = int(capacity)
        self._allocations: Dict[Hashable, Allocation] = {}
        self._in_use = 0
        self._peak = 0
        #: Running in-use bytes per category, so usage and peaks are O(1).
        self._category_usage: Dict[str, int] = {}
        self._category_peaks: Dict[str, int] = {}

    # ------------------------------------------------------------------
    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def peak(self) -> int:
        return self._peak

    @property
    def free_bytes(self) -> int:
        return self.capacity - self._in_use

    def utilisation(self) -> float:
        return self._in_use / self.capacity

    def peak_utilisation(self) -> float:
        return self._peak / self.capacity

    # ------------------------------------------------------------------
    def allocate(self, tag: Hashable, num_bytes: int, category: str = "generic",
                 allow_oversubscribe: bool = False) -> Allocation:
        """Reserve ``num_bytes`` under ``tag``.

        Raises :class:`OutOfMemoryError` when the pool would be exceeded,
        unless ``allow_oversubscribe`` is set (used by analyses that want to
        *measure* how far over capacity a design would go).
        """
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        allocations = self._allocations
        if tag in allocations:
            raise ValueError(f"allocation tag {tag!r} already exists in pool {self.name!r}")
        if not allow_oversubscribe and self._in_use + num_bytes > self.capacity:
            raise OutOfMemoryError(self, num_bytes)
        alloc = allocations[tag] = Allocation(tag, int(num_bytes), category)
        in_use = self._in_use = self._in_use + alloc.num_bytes
        if in_use > self._peak:
            self._peak = in_use
        cat_usage = self._category_usage.get(category, 0) + alloc.num_bytes
        self._category_usage[category] = cat_usage
        if cat_usage > self._category_peaks.get(category, 0):
            self._category_peaks[category] = cat_usage
        return alloc

    def free(self, tag: Hashable) -> None:
        """Release the allocation registered under ``tag``."""
        alloc = self._allocations.pop(tag, None)
        if alloc is None:
            raise KeyError(f"no allocation named {tag!r} in pool {self.name!r}")
        self._in_use -= alloc.num_bytes
        self._category_usage[alloc.category] -= alloc.num_bytes

    def free_category(self, category: str) -> int:
        """Release every allocation in ``category``; returns bytes freed."""
        tags = [t for t, a in self._allocations.items() if a.category == category]
        freed = 0
        for tag in tags:
            freed += self._allocations[tag].num_bytes
            self.free(tag)
        return freed

    def has(self, tag: Hashable) -> bool:
        return tag in self._allocations

    def category_usage(self, category: str) -> int:
        return self._category_usage.get(category, 0)

    def category_peak(self, category: str) -> int:
        return self._category_peaks.get(category, 0)

    def allocations(self) -> Iterator[Allocation]:
        return iter(list(self._allocations.values()))

    def reset_peak(self) -> None:
        self._peak = self._in_use
        self._category_peaks = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"MemoryPool({self.name!r}, in_use={self._in_use / 1e9:.2f} GB, "
                f"peak={self._peak / 1e9:.2f} GB, capacity={self.capacity / 1e9:.2f} GB)")


@dataclass
class TieredMemory:
    """The three-tier memory hierarchy of the serving system (Figure 4).

    Pools are addressed uniformly by tier name through :meth:`pool`
    (``"hbm"`` / ``"dram"`` / ``"ssd"``); the ``gpu``/``cpu``/``ssd``
    attributes remain for construction and direct access.
    """

    gpu: MemoryPool
    cpu: MemoryPool
    ssd: Optional[MemoryPool] = None

    @classmethod
    def from_system(cls, system) -> "TieredMemory":
        """Build pools from a :class:`~repro.system.hardware.SystemSpec`."""
        gpu = MemoryPool(f"GPU ({system.gpu.name})", system.gpu.memory_bytes,
                         tier="hbm")
        cpu = MemoryPool(f"CPU DRAM ({system.host.name})", system.host.dram_bytes,
                         tier="dram")
        ssd = MemoryPool(f"SSD ({system.ssd.name})", system.ssd.capacity_bytes,
                         tier="ssd")
        return cls(gpu=gpu, cpu=cpu, ssd=ssd)

    def available_tiers(self) -> list:
        """Tier names this hierarchy can address, coldest last."""
        tiers = ["hbm", "dram"]
        if self.ssd is not None:
            tiers.append("ssd")
        return tiers

    def pool(self, tier: str) -> MemoryPool:
        """The pool backing ``tier`` (``"hbm"`` / ``"dram"`` / ``"ssd"``)."""
        pools = {"hbm": self.gpu, "dram": self.cpu, "ssd": self.ssd}
        selected = pools.get(tier)
        if selected is None:
            raise ValueError(
                f"unknown memory tier {tier!r}; available tiers: "
                f"{self.available_tiers()}")
        return selected

    def offload_pool(self, tier: str) -> MemoryPool:
        """Deprecated spelling of :meth:`pool` for the offload tiers."""
        if tier not in ("dram", "ssd"):
            raise ValueError(
                f"unknown offload tier {tier!r}; available tiers: "
                f"{[t for t in self.available_tiers() if t != 'hbm']}")
        return self.pool(tier)


#: Backwards-compatible alias — the hierarchy predates the tier-path refactor.
MemoryHierarchy = TieredMemory
