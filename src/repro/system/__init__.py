"""Hardware and memory-system simulator.

The substrate that stands in for the paper's A100 + EPYC + PCIe testbed:
hardware specifications, a GPU latency model, memory pools with peak
tracking, the dual-stream execution timeline that models compute/transfer
overlap, the expert-residency cache and its replacement policies used in
the Figure 15 study, and the tiered
memory hierarchy (multi-hop transfer paths, per-tier transfer stats) behind
the SSD-offloading study of Figure 16.
"""

from .cache import (
    LFUPolicy,
    LIFOPolicy,
    LRUPolicy,
    cache_capacity_from_fraction,
    make_policy,
)
from .hardware import (
    A100_40GB,
    A100_80GB,
    EPYC_7V12,
    NVLINK3,
    NVME_SSD,
    PAPER_SYSTEM,
    PCIE_GEN4,
    PCIE_P2P,
    SSD_SYSTEM,
    DeviceTopology,
    GpuSpec,
    HostSpec,
    LinkSpec,
    SsdSpec,
    SystemSpec,
    get_system,
)
from .memory import Allocation, MemoryHierarchy, MemoryPool, OutOfMemoryError, TieredMemory
from .performance import GpuLatencyModel, LayerCost
from .residency import ExpertResidency, ResidencyStats
from .tiers import (
    FetchRoute,
    HopBreakdown,
    TierPath,
    TierTransferStats,
    TransferHop,
    merge_tier_stats,
)
from .timeline import ArrayTimeline, Stream, TimelineOp

__all__ = [
    "LFUPolicy",
    "LIFOPolicy",
    "LRUPolicy",
    "cache_capacity_from_fraction",
    "make_policy",
    "A100_40GB",
    "A100_80GB",
    "EPYC_7V12",
    "NVLINK3",
    "NVME_SSD",
    "PAPER_SYSTEM",
    "PCIE_GEN4",
    "PCIE_P2P",
    "SSD_SYSTEM",
    "DeviceTopology",
    "GpuSpec",
    "HostSpec",
    "LinkSpec",
    "SsdSpec",
    "SystemSpec",
    "get_system",
    "Allocation",
    "MemoryHierarchy",
    "TieredMemory",
    "MemoryPool",
    "OutOfMemoryError",
    "ExpertResidency",
    "ResidencyStats",
    "FetchRoute",
    "HopBreakdown",
    "TierPath",
    "TierTransferStats",
    "TransferHop",
    "merge_tier_stats",
    "GpuLatencyModel",
    "LayerCost",
    "ArrayTimeline",
    "Stream",
    "TimelineOp",
]
