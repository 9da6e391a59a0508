"""Preemptive expert-migration planning.

The migration planner converts a per-block expert-activation sequence (who
is activated, when it becomes known) into a schedule of CPU→GPU transfers
for each of the offloading designs:

* **MoE-OnDemand** — the activated experts of block *N* become known only
  when block *N*'s gate runs, so the transfer is issued *after* selection
  and blocks execution (serialised).
* **MoE-Prefetch** — all experts of block *N+1* are transferred during block
  *N*'s execution, regardless of which will be used.
* **Pre-gated MoE** — the pre-gate evaluated in block *N* identifies the
  activated experts of block *N+1*; only those are transferred, concurrently
  with block *N*'s execution.

The planner is purely about *what* to move and *when it can start*; the
discrete-event timeline in :mod:`repro.system.timeline` decides how long the
moves take and how much of them overlaps with compute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import List, Optional, Sequence, Set


class MigrationKind(Enum):
    """Why an expert transfer was issued."""

    ON_DEMAND = "on_demand"          # issued after the block's own gate (serialised)
    PREFETCH_ALL = "prefetch_all"    # speculatively move every expert of the next block
    PREFETCH_ACTIVE = "prefetch_active"  # pre-gated: move only the activated experts


@dataclass(frozen=True)
class ExpertTransfer:
    """A single expert parameter migration from CPU (or SSD) to GPU memory."""

    block_index: int        # MoE block whose execution needs this expert
    expert_id: int
    kind: MigrationKind
    issue_block: int        # MoE block during whose execution the transfer may start
    bytes: int
    #: Memory tier the expert's parameters start from ("dram" or "ssd").
    #: Stamped by the planner from the system's offload tier; a multi-hop
    #: source means the fetch crosses several links (SSD→DRAM→GPU).
    source_tier: str = "dram"

    @property
    def is_overlappable(self) -> bool:
        """Whether the transfer can overlap with a preceding block's execution."""
        return self.issue_block < self.block_index

    def hop_breakdown(self, path) -> list:
        """Per-hop byte/latency attribution of this transfer.

        ``path`` is the :class:`~repro.system.tiers.TierPath` from
        :attr:`source_tier` up to HBM (the system spec builds it); returns
        one :class:`~repro.system.tiers.HopBreakdown` per link crossed.
        """
        if path.source != self.source_tier:
            raise ValueError(
                f"path starts at {path.source!r} but this transfer's source "
                f"tier is {self.source_tier!r}")
        return path.breakdown(self.bytes)


@dataclass
class MigrationPlan:
    """The full expert-transfer schedule for one decoder iteration.

    Plans are built once and then only read (the scheduler memoises and
    shares them across rounds), so per-block lookups run off a lazily built
    index that is invalidated if the transfer list grows after first use.
    """

    design: str
    transfers: List[ExpertTransfer] = field(default_factory=list)
    _by_block: "dict[int, List[ExpertTransfer]] | None" = field(
        default=None, init=False, repr=False, compare=False)
    _by_issue: "dict[int, List[ExpertTransfer]] | None" = field(
        default=None, init=False, repr=False, compare=False)
    _indexed_len: int = field(default=-1, init=False, repr=False, compare=False)

    def _build_indexes(self) -> None:
        if self._indexed_len == len(self.transfers):
            return
        by_block: dict[int, List[ExpertTransfer]] = {}
        by_issue: dict[int, List[ExpertTransfer]] = {}
        for transfer in self.transfers:
            by_block.setdefault(transfer.block_index, []).append(transfer)
            by_issue.setdefault(transfer.issue_block, []).append(transfer)
        self._by_block = by_block
        self._by_issue = by_issue
        self._indexed_len = len(self.transfers)

    def transfers_for_block(self, block_index: int) -> List[ExpertTransfer]:
        """Transfers required before ``block_index`` can execute its experts."""
        self._build_indexes()
        return self._by_block.get(block_index, [])

    def by_issue_block(self) -> "dict[int, List[ExpertTransfer]]":
        """Transfers grouped by the block whose execution issues them."""
        self._build_indexes()
        return self._by_issue

    def issued_during_block(self, issue_block: int) -> List[ExpertTransfer]:
        """Transfers that may be in flight while ``issue_block`` executes."""
        return [t for t in self.transfers if t.issue_block == issue_block and t.is_overlappable]

    def total_bytes(self) -> int:
        return sum(t.bytes for t in self.transfers)

    def total_experts(self) -> int:
        return len(self.transfers)

    def bytes_for_block(self, block_index: int) -> int:
        return sum(t.bytes for t in self.transfers_for_block(block_index))


@lru_cache(maxsize=65536)
def _transfer(block_index: int, expert_id: int, kind: MigrationKind,
              issue_block: int, num_bytes: int, source_tier: str) -> ExpertTransfer:
    """One shared record per distinct transfer: transfers are immutable and
    the planners rebuild the same few thousand on every pass."""
    return ExpertTransfer(block_index=block_index, expert_id=expert_id,
                          kind=kind, issue_block=issue_block, bytes=num_bytes,
                          source_tier=source_tier)


def plan_on_demand(activations: Sequence[Sequence[int]], expert_bytes: int,
                   resident: Optional[Sequence[Set[int]]] = None,
                   source_tier: str = "dram") -> MigrationPlan:
    """MoE-OnDemand: fetch each block's activated experts after its own gate.

    Parameters
    ----------
    activations:
        ``activations[i]`` is the list of expert ids activated by MoE block
        ``i`` in this decoder iteration.
    expert_bytes:
        Size of one expert's parameters.
    resident:
        Optional per-block set of experts already resident in GPU memory
        (e.g. from an expert cache); resident experts are not transferred.
    source_tier:
        Memory tier the experts are fetched from ("dram" or "ssd").
    """
    plan = MigrationPlan(design="ondemand")
    for block, experts in enumerate(activations):
        cached = resident[block] if resident is not None else set()
        for expert in experts:
            if expert in cached:
                continue
            plan.transfers.append(_transfer(
                block, int(expert), MigrationKind.ON_DEMAND, block, expert_bytes,
                source_tier))
    return plan


def plan_prefetch_all(activations: Sequence[Sequence[int]], expert_bytes: int,
                      num_experts: int, source_tier: str = "dram") -> MigrationPlan:
    """MoE-Prefetch: move every expert of block *i* during block *i-1*.

    The first block has no predecessor, so its full expert set is fetched
    on demand (serialised), mirroring SE-MoE's behaviour.
    """
    plan = MigrationPlan(design="prefetch_all")
    for block in range(len(activations)):
        issue_block = max(block - 1, 0)
        kind = MigrationKind.PREFETCH_ALL if block > 0 else MigrationKind.ON_DEMAND
        for expert in range(num_experts):
            plan.transfers.append(_transfer(
                block, expert, kind, issue_block, expert_bytes, source_tier))
    return plan


def plan_pregated(activations: Sequence[Sequence[int]], expert_bytes: int,
                  activation_level: int = 1,
                  resident: Optional[Sequence[Set[int]]] = None,
                  source_tier: str = "dram") -> MigrationPlan:
    """Pre-gated MoE: move only the activated experts, ``activation_level`` blocks early.

    Block *i*'s activated experts are known when block ``i - activation_level``
    runs its pre-gate, so the transfer is issued during that block's
    execution.  Blocks ``0..activation_level-1`` are covered by the first
    gates, which run before any expert execution — their transfers are
    issued at block 0 and the first block's transfer is the only one that
    cannot be overlapped with expert execution (it can still overlap with
    the non-MoE layers preceding it, which the timeline models).
    """
    if activation_level < 1:
        raise ValueError("activation_level must be >= 1")
    plan = MigrationPlan(design="pregated")
    for block, experts in enumerate(activations):
        cached = resident[block] if resident is not None else set()
        if block < activation_level:
            issue_block = 0
            kind = MigrationKind.ON_DEMAND if block == 0 else MigrationKind.PREFETCH_ACTIVE
        else:
            issue_block = block - activation_level
            kind = MigrationKind.PREFETCH_ACTIVE
        for expert in experts:
            if expert in cached:
                continue
            plan.transfers.append(_transfer(
                block, int(expert), kind, issue_block, expert_bytes, source_tier))
    return plan


def plan_gpu_only(activations: Sequence[Sequence[int]]) -> MigrationPlan:
    """GPU-only: no expert migration at all (everything already resident)."""
    return MigrationPlan(design="gpu_only", transfers=[])


_PLANNERS = {
    "gpu_only": "plan_gpu_only",
    "ondemand": "plan_on_demand",
    "prefetch_all": "plan_prefetch_all",
    "pregated": "plan_pregated",
}


def plan_for_design(design: str, activations: Sequence[Sequence[int]], expert_bytes: int,
                    num_experts: int, activation_level: int = 1,
                    resident: Optional[Sequence[Set[int]]] = None,
                    source_tier: str = "dram") -> MigrationPlan:
    """Dispatch to the planner for ``design``."""
    if design == "gpu_only":
        return plan_gpu_only(activations)
    if design == "ondemand":
        return plan_on_demand(activations, expert_bytes, resident=resident,
                              source_tier=source_tier)
    if design == "prefetch_all":
        return plan_prefetch_all(activations, expert_bytes, num_experts,
                                 source_tier=source_tier)
    if design == "pregated":
        return plan_pregated(activations, expert_bytes,
                             activation_level=activation_level, resident=resident,
                             source_tier=source_tier)
    raise ValueError(f"unknown design {design!r}; known: {sorted(_PLANNERS)}")
