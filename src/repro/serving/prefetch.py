"""Pre-gate-driven cross-request prefetching over shared expert residency.

With continuous batching, each scheduling round knows — before any kernel of
the round runs — the full expert-transfer plan of every in-flight request
(for Pre-gated MoE because the pre-gates reveal next-block experts ahead of
time, for the other designs because the simulator is trace-driven).  The
prefetcher exploits that: it merges the per-round plans of all round
members, pins every expert the round relies on in the shared
:class:`~repro.system.residency.ExpertResidency` map, and ensures each
unique expert crosses the CPU→GPU link **at most once per round** —
already-resident experts are skipped entirely (a cache hit), and experts
fetched by one request are reused by every later round member that planned
the same transfer (the fetch's copy op becomes their dependency).

Split of responsibilities with the no-cache path:

* :class:`~repro.serving.simulator.SharedExpertRound` — transfer dedup
  *within* one round only; every slot is freed when its last round user has
  executed (the behaviour of the scheduler without a cache).
* :class:`PrefetchRound` (built by :class:`CrossRequestPrefetcher`) — the
  same round protocol, but backed by the residency map: on the last release
  an expert is *retained* for future rounds if the cache capacity allows,
  and planning consults residency so retained experts never re-enter a
  migration plan.

Both implement the round protocol the
:class:`~repro.serving.simulator.IterationSimulator` speaks
(``register_plan`` / ``is_fetched`` / ``copy_op`` / ``fetch`` / ``release_keys``
/ ``release`` / ``drain``), so the simulation core is identical either way —
with a zero-capacity residency map the timelines are bit-identical to the
uncached scheduler, which the parity tests pin to 1e-9.  The one-request
engine runs each pass as a one-member round of the same kind.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..core.migration import MigrationPlan
from ..system.residency import ExpertResidency
from ..workloads.traces import IterationActivations
from .placement import ModelPlacement

#: Key identifying one migratable expert: (global block index, expert id).
ExpertKey = Tuple[int, int]


def block_expert_keys(placement: ModelPlacement, part: str, plan: MigrationPlan,
                      activations: IterationActivations,
                      block: int) -> List[ExpertKey]:
    """Expert keys one request uses at ``block``: planned fetches + resident reliance.

    The planned transfers targeting ``block`` come first (in plan order, so
    refcounts stay symmetric with the fetch path); activated experts that
    the plan did *not* schedule a transfer for follow — those are the
    experts the plan assumed resident, which the round must pin so they
    cannot be evicted before this block executes.
    """
    keys = [(placement.global_block_index(part, t.block_index), t.expert_id)
            for t in plan.transfers_for_block(block)]
    seen = set(keys)
    activated = activations[block] if block < len(activations) else []
    for expert in activated:
        key = (placement.global_block_index(part, block), int(expert))
        if key not in seen:
            seen.add(key)
            keys.append(key)
    return keys


def request_round_blocks(plan: MigrationPlan,
                         activations: IterationActivations) -> List[int]:
    """All MoE block indices one request's round unit touches."""
    blocks = set(range(len(activations)))
    blocks.update(t.block_index for t in plan.transfers)
    return sorted(blocks)


class PrefetchRound:
    """Residency-backed transfer coordination for one scheduling round.

    Registration (before the round simulates) walks every member's plan and
    activations: each key gets a per-round refcount, and keys that are
    already resident are pinned immediately — recording the cache hit and
    guaranteeing no eviction can invalidate a plan that assumed residency.
    During simulation the first member to need a non-resident expert fetches
    it (pinning it as a miss, which charges the bytes to the GPU pool);
    later members depend on that fetch's copy op.  Releases decrement the
    round refcount; the last release hands the pin back to the residency
    map, which retains or frees the expert per its policy and capacity.
    """

    def __init__(self, residency: ExpertResidency) -> None:
        self.residency = residency
        self._users: Dict[ExpertKey, int] = {}
        self._copy_ops: Dict[ExpertKey, int] = {}
        self._satisfied: Set[ExpertKey] = set()
        self._pinned: Set[ExpertKey] = set()

    # -- registration (before the round is simulated) -------------------
    def register_plan(self, placement: ModelPlacement, part: str,
                      plan: MigrationPlan,
                      activations: Optional[IterationActivations] = None) -> None:
        activations = activations if activations is not None else []
        for block in request_round_blocks(plan, activations):
            for key in block_expert_keys(placement, part, plan, activations, block):
                self._users[key] = self._users.get(key, 0) + 1
                if key not in self._satisfied and self.residency.is_resident(key):
                    self.residency.pin(key)  # hit: skip this expert's migration
                    self._pinned.add(key)
                    self._satisfied.add(key)

    # -- queries during simulation --------------------------------------
    def is_fetched(self, key: ExpertKey) -> bool:
        return key in self._satisfied

    def copy_op(self, key: ExpertKey) -> Optional[int]:
        """Copy op to depend on; ``None`` for experts resident before the round."""
        return self._copy_ops.get(key)

    def fetch(self, placement: ModelPlacement, part: str, transfer,
              key: ExpertKey, copy_op_id: int) -> None:
        """Record the round's single migration of ``key`` (reserves its bytes)."""
        already_resident = self.residency.pin(key)
        self._pinned.add(key)
        self._satisfied.add(key)
        if not already_resident:
            self._copy_ops[key] = copy_op_id

    def release_keys(self, placement: ModelPlacement, part: str,
                     plan: MigrationPlan, activations: IterationActivations,
                     block: int) -> List[ExpertKey]:
        return block_expert_keys(placement, part, plan, activations, block)

    def release(self, placement: ModelPlacement, key: ExpertKey) -> None:
        remaining = self._users.get(key, 0) - 1
        if remaining > 0:
            self._users[key] = remaining
            return
        self._users.pop(key, None)
        self._copy_ops.pop(key, None)
        self._satisfied.discard(key)
        if key in self._pinned:
            self._pinned.discard(key)
            self.residency.release(key)  # retain-or-free per policy/capacity

    def drain(self, placement: ModelPlacement) -> None:
        """Hand back any pins still held (abnormal termination safety net)."""
        for key in list(self._pinned):
            self.residency.release(key)
        self._users.clear()
        self._copy_ops.clear()
        self._satisfied.clear()
        self._pinned.clear()


class CrossRequestPrefetcher:
    """Round factory tying a scheduler or engine to one shared residency map.

    One prefetcher per replica: it owns no transfer state itself (that lives
    in the per-round :class:`PrefetchRound` handles and the residency map),
    but tracks round-level aggregates for reporting.

    With a tiered hierarchy the rounds the prefetcher builds compose with a
    *second-level* cache without any protocol change: GPU-residency hits
    drop out of migration plans here (first level), and each remaining
    fetch is then routed through the host-DRAM staging cache — when the
    system offloads to SSD — by
    :meth:`~repro.serving.placement.ModelPlacement.route_fetch` at issue
    time (second level).  First-level planning has already removed
    GPU-resident experts, so the two levels never double count.
    """

    def __init__(self, residency: ExpertResidency) -> None:
        if residency is None:
            raise ValueError("CrossRequestPrefetcher needs an ExpertResidency")
        self.residency = residency
        self.rounds = 0

    def begin_round(self) -> PrefetchRound:
        self.rounds += 1
        return PrefetchRound(self.residency)

    @property
    def stats(self):
        """First-level (GPU residency) counters."""
        return self.residency.stats
