"""Per-iteration simulation layer: one stack pass emitted as timeline ops.

Second of the three serving layers (placement → per-iteration simulation →
request lifecycle).  An :class:`IterationSimulator` emits the ops of one
encoder pass or one decoder iteration for a given design — compute, copy,
stage and interconnect ops with their dependencies — as columns into an
:class:`~repro.system.timeline.OpBatch`; the owning timeline schedules them
when the batch is committed.  The simulator is deliberately stateless
across calls so that a request scheduler can interleave iterations from
*different* in-flight requests into one round batch on a shared timeline
(continuous batching) — the per-request lifecycle state lives in the caller
(:class:`~repro.serving.scheduler.ContinuousBatchingScheduler`, whose round
function also serves the one-request-at-a-time
:class:`~repro.serving.engine.ServingEngine`).

Every pass belongs to a round (a :class:`SharedExpertRound`, or with a cache
a :class:`~repro.serving.prefetch.PrefetchRound`), which owns the slots of
fetched experts and deduplicates transfers across its members: when
concurrent requests activate the same expert of the same block, only the
first request issues the CPU→GPU migration and later requests execute
against the already-resident copy (their execution depends on the original
copy op).

Expert-parallel replicas (a multi-device
:class:`~repro.system.hardware.DeviceTopology`) additionally split every MoE
block across the devices owning its activated experts: expert fetches land on
the owning shard's copy lane, each participating device executes its share of
the experts on its own compute lane, and the token traffic between the
devices — all-to-all dispatch before execution, combine after — is modelled
as transfers on the interconnect stream, sized from the gating activations.
A single-device topology takes none of these paths and reproduces the
original single-GPU timeline bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, NamedTuple, Optional, Sequence, Tuple

from ..core.migration import MigrationPlan, plan_for_design
from ..core.pregate import PreGateSchedule
from ..moe.configs import ModelConfig
from ..system.hardware import SystemSpec
from ..system.performance import GpuLatencyModel
from ..system.timeline import STREAM_CODE, OpBatch, Stream, category_code
from ..workloads.traces import IterationActivations
from .placement import ModelPlacement
from .prefetch import PrefetchRound

#: Key identifying one migratable expert: (global block index, expert id).
ExpertKey = Tuple[int, int]

#: Per-MoE-block op anchors of an emitted pass, as global op ids: (block
#: index, activated-expert count, the last non-MoE compute op before the
#: gate, the last compute op before expert execution, the op completing the
#: block, the expert-execution ops, the all-to-all dispatch op or -1).
BlockAnchors = Tuple[int, int, int, int, int, Sequence[int], int]

# Stream / category codes used by the columnar emission path.
_COMPUTE = STREAM_CODE[Stream.COMPUTE]
_COPY = STREAM_CODE[Stream.COPY]
_STAGE = STREAM_CODE[Stream.STAGE]
_INTERCONNECT = STREAM_CODE[Stream.INTERCONNECT]
CAT_NON_MOE = category_code("non_moe")
CAT_GATE = category_code("gate")
CAT_SYNC = category_code("sync")
CAT_EXPERT_TRANSFER = category_code("expert_transfer")
CAT_EXPERT_EXECUTION = category_code("expert_execution")
CAT_STAGE_IN = category_code("stage_in")
CAT_ALLTOALL = category_code("alltoall")


class _PassLayout(NamedTuple):
    """Layer skeleton of one encoder pass or decoder iteration."""

    #: Per MoE block: the non-MoE layers since the previous MoE block, the
    #: MoE layer and the number of gate evaluations at the block.
    runs: List[Tuple[Tuple[int, ...], int, int]]
    #: The non-MoE layers after the last MoE block.
    tail: Tuple[int, ...]


class SharedExpertRound:
    """Expert-transfer dedup state for one continuous-batching round.

    The scheduler registers, up front, every expert transfer each request of
    the round *would* issue (via :meth:`register_plan`).  During simulation
    the first request to need an expert fetches it into a shared batch slot;
    subsequent requests reuse it.  Each request still "releases" its planned
    transfers after the owning block executes, and the shared slot is freed
    only when the last planned user has released it — so GPU memory
    accounting matches a real batched runtime that refcounts expert pages.

    This is the round protocol the :class:`IterationSimulator` speaks
    (``register_plan`` / ``is_fetched`` / ``copy_op`` / ``fetch`` /
    ``release_keys`` / ``release`` / ``drain``);
    :class:`~repro.serving.prefetch.PrefetchRound` implements the same
    protocol on top of the shared residency map for the cached path.
    """

    def __init__(self) -> None:
        self._users: Dict[ExpertKey, int] = {}
        self._tags: Dict[ExpertKey, Hashable] = {}
        self._copy_ops: Dict[ExpertKey, int] = {}
        #: Planned keys per target block, by (part, plan identity); the
        #: entry holds the plan, so its id cannot be reused this round.
        self._plan_keys: Dict[Tuple[str, int],
                              Tuple[MigrationPlan,
                                    Dict[int, List[ExpertKey]]]] = {}

    # -- registration (before the round is simulated) -------------------
    def register_plan(self, placement: ModelPlacement, part: str,
                      plan: MigrationPlan, activations=None) -> None:
        users = self._users
        for keys in self._keys_by_block(placement, part, plan).values():
            for key in keys:
                users[key] = users.get(key, 0) + 1

    def _keys_by_block(self, placement: ModelPlacement, part: str,
                       plan: MigrationPlan) -> Dict[int, List[ExpertKey]]:
        """The plan's transfer keys grouped by target block, built once per
        round however many members share the plan."""
        entry = self._plan_keys.get((part, id(plan)))
        if entry is None:
            offset = placement.global_block_index(part, 0)
            by_block: Dict[int, List[ExpertKey]] = {}
            for transfer in plan.transfers:
                by_block.setdefault(transfer.block_index, []).append(
                    (offset + transfer.block_index, transfer.expert_id))
            entry = self._plan_keys[(part, id(plan))] = (plan, by_block)
        return entry[1]

    # -- queries during simulation --------------------------------------
    def is_fetched(self, key: ExpertKey) -> bool:
        return key in self._tags

    def copy_op(self, key: ExpertKey) -> Optional[int]:
        return self._copy_ops.get(key)

    def fetch(self, placement: ModelPlacement, part: str, transfer,
              key: ExpertKey, copy_op_id: int) -> None:
        """Allocate the shared batch slot backing one issued migration."""
        self._tags[key] = placement.allocate_shared_expert(
            part, transfer.block_index, transfer.expert_id)
        self._copy_ops[key] = copy_op_id

    def release_keys(self, placement: ModelPlacement, part: str,
                     plan: MigrationPlan, activations, block: int) -> List[ExpertKey]:
        """Keys to release once ``block`` has executed: its planned transfers."""
        return self._keys_by_block(placement, part, plan).get(block, [])

    def release(self, placement: ModelPlacement, key: ExpertKey) -> None:
        remaining = self._users.get(key, 0) - 1
        if remaining > 0:
            self._users[key] = remaining
            return
        self._users.pop(key, None)
        self._copy_ops.pop(key, None)
        tag = self._tags.pop(key, None)
        if tag is not None:
            placement.free_expert(tag)

    def drain(self, placement: ModelPlacement) -> None:
        """Free any slots still held (abnormal termination safety net)."""
        for tag in self._tags.values():
            placement.free_expert(tag)
        self._users.clear()
        self._tags.clear()
        self._copy_ops.clear()
        self._plan_keys.clear()


@dataclass
class EmittedPass:
    """Anchors of one stack pass emitted as columns.

    Op *times* do not exist until the owning timeline commits the batch, so
    the emission returns indices into the batch — callers read
    ``starts[first_index]`` / ``ends[last_index]`` after the commit, and
    per-block latencies from :attr:`blocks`.
    """

    #: Index (within the batch) of the pass's first op, -1 if none emitted.
    first_index: int
    #: Index of the op whose end is the pass completion time.
    last_index: int
    #: Global op ids the request's next pass must depend on (trailing
    #: all-to-all combine; empty single-GPU and after a decoder iteration).
    carry_deps: List[int] = field(default_factory=list)
    #: One :data:`BlockAnchors` tuple per MoE block, in block order.
    blocks: List[BlockAnchors] = field(default_factory=list)


class IterationSimulator:
    """Simulates single stack passes of one design on a shared timeline."""

    def __init__(self, config: ModelConfig, system: SystemSpec,
                 latency: GpuLatencyModel, design: str,
                 placement: ModelPlacement, activation_level: int = 1) -> None:
        self.config = config
        self.system = system
        self.latency = latency
        self.design = design
        self.placement = placement
        self.activation_level = activation_level
        self.topology = system.device_topology
        #: Whether MoE blocks split across devices (expert parallelism).
        self.multi_device = self.topology.num_devices > 1
        #: Bytes one token's activations occupy on the interconnect (fp16).
        self._token_bytes = config.d_model * 2
        #: Memoised migration plans keyed by (part, activations).  Only
        #: valid when the placement has no residency map —
        #: plans then depend solely on the activations, so identical gating
        #: outcomes (ubiquitous in long decode-heavy loads) reuse one plan
        #: object instead of re-running the planner every round.
        self._plan_cache: Dict[Tuple, MigrationPlan] = {}
        #: Memoised op durations keyed by (kind, token counts).  The latency
        #: model is a pure function of these, so the batched emission path
        #: skips the roofline arithmetic for the (ubiquitous) repeated
        #: shapes of steady decode rounds.  Keys are bounded by the distinct
        #: token counts a workload produces.
        self._duration_cache: Dict[Tuple, float] = {}
        #: Memoised :class:`_PassLayout` per part.
        self._layouts: Dict[str, _PassLayout] = {}

    @property
    def offloads_experts(self) -> bool:
        return self.design != "gpu_only"

    # ------------------------------------------------------------------
    # Memoised latency lookups
    # ------------------------------------------------------------------
    def _nonmoe_duration(self, part: str, query_tokens: int,
                         self_kv_tokens: int, cross_kv_tokens: int) -> float:
        key = ("nonmoe", part, query_tokens, self_kv_tokens, cross_kv_tokens)
        value = self._duration_cache.get(key)
        if value is None:
            if part == "encoder":
                value = self.latency.encoder_layer_nonmoe_time(
                    self.config, query_tokens)
            else:
                value = self.latency.decoder_layer_nonmoe_time(
                    self.config, query_tokens, self_kv_tokens, cross_kv_tokens)
            self._duration_cache[key] = value
        return value

    def _ffn_duration(self, query_tokens: int) -> float:
        key = ("ffn", query_tokens)
        value = self._duration_cache.get(key)
        if value is None:
            value = self._duration_cache[key] = self.latency.ffn_time(
                self.config, query_tokens)
        return value

    def _gate_duration(self, query_tokens: int) -> float:
        key = ("gate", query_tokens)
        value = self._duration_cache.get(key)
        if value is None:
            value = self._duration_cache[key] = self.latency.gate_time(
                self.config, query_tokens)
        return value

    def _exec_duration(self, query_tokens: int, num_active: int) -> float:
        key = ("exec", query_tokens, num_active)
        value = self._duration_cache.get(key)
        if value is None:
            value = self._duration_cache[key] = (
                self.latency.expert_execution_time(
                    self.config, query_tokens, num_active))
        return value

    def _lm_duration(self, query_tokens: int) -> float:
        key = ("lm_head", query_tokens)
        value = self._duration_cache.get(key)
        if value is None:
            value = self._duration_cache[key] = self.latency.lm_head_time(
                self.config, query_tokens)
        return value

    # ------------------------------------------------------------------
    # Migration planning
    # ------------------------------------------------------------------
    def make_plan(self, part: str, activations: IterationActivations) -> MigrationPlan:
        """The migration plan one stack pass over ``activations`` will follow.

        Deterministic given the placement's cache state, so a scheduler can
        pre-register a round's plans for transfer dedup before simulating it.
        Cache-free placements memoise the result by activation pattern (the
        planner's output then depends on nothing else); plans are treated as
        immutable by every consumer, so sharing one object across rounds is
        safe.
        """
        placement = self.placement
        memoizable = placement.residency is None
        key: Optional[Tuple] = None
        if memoizable:
            if self.design in ("gpu_only", "prefetch_all"):
                # These planners ignore *which* experts are activated — only
                # how many blocks the pass traverses.
                key = (part, len(activations))
            else:
                key = (part, tuple(tuple(block) for block in activations))
            cached = self._plan_cache.get(key)
            if cached is not None:
                return cached
        # Without a residency map nothing is resident.
        resident = (None if memoizable else placement.cache_resident(
            part, len(placement.moe_positions(part))))
        plan = plan_for_design(
            self.design, activations, self.config.expert_bytes(), self.config.num_experts,
            activation_level=self.activation_level, resident=resident,
            source_tier=self.system.offload_tier)
        if key is not None:
            if len(self._plan_cache) >= 16384:
                self._plan_cache.clear()
            self._plan_cache[key] = plan
        return plan

    def _gates_evaluated_at(self, block: int,
                            schedule: Optional[PreGateSchedule]) -> int:
        """How many gate evaluations happen at MoE block ``block`` for this design."""
        if self.design == "pregated" and schedule is not None:
            gates = 0
            if block == 0:
                gates += schedule.num_first_gates()
            if schedule.has_pre_gate(block):
                gates += 1
            return gates
        # Conventional architectures evaluate exactly one gate per block.
        return 1

    def _layout(self, part: str) -> _PassLayout:
        """The layer skeleton of one ``part`` pass (memoised per part)."""
        layout = self._layouts.get(part)
        if layout is not None:
            return layout
        config = self.config
        moe_positions = self.placement.moe_positions(part)
        num_layers = (config.num_encoder_layers if part == "encoder"
                      else config.num_decoder_layers)
        schedule = None
        if self.design == "pregated" and moe_positions:
            schedule = PreGateSchedule(num_blocks=len(moe_positions),
                                       activation_level=self.activation_level)
        runs = []
        dense: List[int] = []
        for layer in range(num_layers):
            if layer in moe_positions:
                runs.append((tuple(dense), layer,
                             self._gates_evaluated_at(len(runs), schedule)))
                dense = []
            else:
                dense.append(layer)
        layout = self._layouts[part] = _PassLayout(runs, tuple(dense))
        return layout

    # ------------------------------------------------------------------
    # Columnar emission of one stack traversal
    # ------------------------------------------------------------------
    def emit_stack_pass(
        self,
        batch: OpBatch,
        part: str,
        iteration: int,
        activations: IterationActivations,
        query_tokens: int,
        self_kv_tokens: int,
        cross_kv_tokens: Optional[int],
        *,
        batch_round: "SharedExpertRound | PrefetchRound",
        start_at: float = 0.0,
        label: str = "",
        plan: Optional[MigrationPlan] = None,
        extra_deps: Optional[Sequence[int]] = None,
    ) -> EmittedPass:
        """Emit one stack traversal (encoder pass or decoder iteration).

        Ops are appended to ``batch`` as columns (op-name strings only when
        the owning timeline records a trace).  The compute lane is FIFO so
        consecutive layers serialise automatically, while expert transfers
        land on the copy lane with explicit dependencies implementing each
        design's selection→migration→execution ordering.  Placement side
        effects (fetch routing, slot allocation, transfer stats) happen here,
        in emission order; op times exist only once the owning timeline
        commits the batch.

        The dense compute run ahead of each MoE block's expert stage — the
        attention and FFN ops of the layers since the previous MoE block,
        the MoE layer's attention, its gate and the host sync that issues
        its fetches — goes in as one :meth:`OpBatch.add_run`; only the
        fetch, expert-execution and all-to-all ops are added one by one.

        ``batch_round`` is the round the pass belongs to: it holds the slots
        of fetched experts and dedups transfers across its members;
        ``start_at`` gates the pass on the owning request's arrival time;
        ``label`` prefixes op names so interleaved requests stay
        distinguishable in traces; ``plan`` supplies the migration plan the
        caller registered with ``batch_round`` (made here when omitted);
        ``extra_deps`` are op ids this pass's first compute op
        must wait for (the same request's trailing combine from its previous
        pass on an expert-parallel replica).
        """
        placement = self.placement
        layout = self._layout(part)
        if plan is None:
            plan = self.make_plan(part, activations)
        transfers_by_issue = (plan.by_issue_block() if self.offloads_experts
                              else {})
        nonmoe = self._nonmoe_duration(part, query_tokens, self_kv_tokens,
                                       cross_kv_tokens or self_kv_tokens)
        ffn = self._ffn_duration(query_tokens)
        gate_time = self._gate_duration(query_tokens)
        sync_time = self.system.host_sync_overhead
        names = batch.record_names
        prefix = f"{label}{part}{iteration}" if names else ""
        block_offset = placement.global_block_index(part, 0)
        base_id = batch.base_id
        emitted = EmittedPass(first_index=-1, last_index=-1)
        #: Per-target-block list of (op_id, owning device) for issued fetches.
        transfer_ops_by_target: Dict[int, List[Tuple[int, int]]] = {}
        #: Cross-lane ordering the next device-0 compute op must declare:
        #: the previous MoE block's combine op (expert-parallel only), seeded
        #: with the caller's carry-over from the request's previous pass.
        carry_deps: List[int] = list(extra_deps or [])
        batch_add = batch.add

        def add_run(dense: Sequence[int], durations: List[float],
                    categories: List[int], names_after: List[str]) -> int:
            """Emit the dense layers, then the ops already in the lists;
            returns the id of the run's last op."""
            run_names = None
            if names:
                run_names = [f"{prefix}.layer{layer}.{op}" for layer in dense
                             for op in ("attention", "ffn")] + names_after
            first_id = batch.add_run(
                [nonmoe, ffn] * len(dense) + durations,
                [CAT_NON_MOE] * (2 * len(dense)) + categories,
                deps=carry_deps,
                earliest_start=start_at if emitted.first_index < 0 else 0.0,
                names=run_names)
            carry_deps.clear()
            if emitted.first_index < 0:
                emitted.first_index = first_id - base_id
            last_id = first_id + 2 * len(dense) + len(durations) - 1
            emitted.last_index = last_id - base_id
            return last_id

        for block, (dense, moe_layer, num_gates) in enumerate(layout.runs):
            # Expert migrations whose selection happens at this block.
            issued = transfers_by_issue.get(block, ())
            to_issue = []
            for transfer in issued:
                key = (block_offset + transfer.block_index, transfer.expert_id)
                if batch_round.is_fetched(key):
                    # Already satisfied: fetched by another request of this
                    # round (share the migration, depend on its copy op) or
                    # resident in the shared cache (no dependency needed).
                    dedup_op = batch_round.copy_op(key)
                    if dedup_op is not None:
                        transfer_ops_by_target.setdefault(
                            transfer.block_index, []).append(
                                (dedup_op,
                                 placement.owner_device(transfer.expert_id)))
                    continue
                to_issue.append((transfer, key))

            # (1) The MoE layer's attention, then the expert-selection stage
            # (gate / pre-gate / first-gate ops) and the host sync issuing
            # the migrations selected here.
            durations = [nonmoe]
            categories = [CAT_NON_MOE]
            if num_gates > 0:
                durations.append(num_gates * gate_time)
                categories.append(CAT_GATE)
            if to_issue:
                durations.append(sync_time)
                categories.append(CAT_SYNC)
            names_after = []
            if names:
                names_after.append(f"{prefix}.layer{moe_layer}.attention")
                if num_gates > 0:
                    names_after.append(f"{prefix}.moe{block}.gate")
                if to_issue:
                    names_after.append(f"{prefix}.moe{block}.issue_transfers")
            last_compute_id = add_run(dense, durations, categories,
                                      names_after)
            input_ready_id = last_compute_id - len(durations) + 1

            # (2) Issue the migrations.  The placement routes each fetch
            # through the tier path: a stage miss with a DRAM stage splits
            # into an SSD→DRAM read on the stage stream plus a dependent
            # PCIe op carrying the pipelined remainder.  The route's device
            # is the shard owning the expert; its copy/stage lanes carry
            # the fetch.
            for transfer, key in to_issue:
                route = placement.route_fetch(key, transfer)
                deps: List[int] = [last_compute_id]
                if route.stage_duration > 0.0:
                    stage_id = batch_add(
                        _STAGE, route.stage_duration, deps=deps,
                        category=CAT_STAGE_IN, device=route.device,
                        num_bytes=transfer.bytes,
                        name=(f"{prefix}.moe{transfer.block_index}"
                              f".stage_expert{transfer.expert_id}")
                        if names else None)
                    deps = [stage_id]
                copy_id = batch_add(
                    _COPY, route.copy_duration, deps=deps,
                    category=CAT_EXPERT_TRANSFER, device=route.device,
                    num_bytes=transfer.bytes,
                    name=(f"{prefix}.moe{transfer.block_index}"
                          f".fetch_expert{transfer.expert_id}")
                    if names else None)
                transfer_ops_by_target.setdefault(
                    transfer.block_index, []).append((copy_id, route.device))
                batch_round.fetch(placement, part, transfer, key, copy_id)

            # (3) Expert-execution stage: waits for this block's transfers.
            activated = activations[block] if block < len(activations) else []
            block_transfer_ops = transfer_ops_by_target.get(block, [])
            exec_ready_id = last_compute_id
            if not self.multi_device:
                exec_time = self._exec_duration(query_tokens,
                                                max(1, len(activated)))
                block_end_id = batch_add(
                    _COMPUTE, exec_time,
                    deps=[op_id for op_id, _ in block_transfer_ops],
                    category=CAT_EXPERT_EXECUTION,
                    name=f"{prefix}.moe{block}.experts" if names else None)
                emitted.last_index = block_end_id - base_id
                exec_ids: Sequence[int] = (block_end_id,)
                dispatch_id = -1
            else:
                block_end_id, exec_ids, dispatch_id = self._emit_sharded_block(
                    batch, prefix, block, activated, query_tokens,
                    block_transfer_ops, last_compute_id, carry_deps)
                emitted.last_index = block_end_id - base_id
            emitted.blocks.append((block, len(activated), input_ready_id,
                                   exec_ready_id, block_end_id, exec_ids,
                                   dispatch_id))

            # (4) Release (or retain) this block's experts.
            for key in batch_round.release_keys(placement, part, plan,
                                                activations, block):
                batch_round.release(placement, key)

        if layout.tail:
            add_run(layout.tail, [], [], [])
        emitted.carry_deps = list(carry_deps)
        return emitted

    def _emit_sharded_block(self, batch: OpBatch, prefix: str, block: int,
                            activated, query_tokens: int,
                            block_transfer_ops: List[Tuple[int, int]],
                            last_compute_id: int, carry_deps: List[int]
                            ) -> Tuple[int, List[int], int]:
        """Execute one MoE block across the devices owning its experts.

        Tokens are dispatched from device 0 (where the gate ran) to every
        remote device owning activated experts, each participating device
        executes its share on its own compute lane, and the results combine
        back — dispatch and combine are transfers on the interconnect
        stream, sized from the activation counts, so they overlap with the
        expert fetches in flight on the copy lanes.  Returns the op id that
        completes the block, every exec op id and the dispatch op id (-1
        when no token crosses the interconnect).  Appends cross-lane
        ordering for the next compute op to ``carry_deps``.
        """
        config = self.config
        placement = self.placement
        counts: Dict[int, int] = {}
        for expert in activated:
            device = placement.owner_device(int(expert))
            counts[device] = counts.get(device, 0) + 1
        if not counts:
            # No activated expert recorded: the dispatch-overhead-only
            # evaluation runs on device 0, mirroring the single-GPU path.
            counts = {0: 0}
        total_active = max(1, len(activated))
        # Token routing estimate from the gating activations: query_tokens
        # tokens each pick top_k experts, spread evenly over the activated
        # set; assignments landing on remote devices cross the interconnect
        # (once to dispatch, once to combine).
        token_assignments = query_tokens * config.top_k
        remote_share = sum(n for d, n in counts.items() if d != 0) / total_active
        alltoall_bytes = token_assignments * remote_share * self._token_bytes
        names = batch.record_names
        base = f"{prefix}.moe{block}" if names else None
        participating = set(counts)
        leftover_deps = [op_id for op_id, dev in block_transfer_ops
                         if dev not in participating]

        dispatch_id = -1
        if alltoall_bytes > 0:
            dispatch_id = batch.add(
                _INTERCONNECT, self.topology.all_to_all_time(alltoall_bytes),
                deps=[last_compute_id] if last_compute_id >= 0 else [],
                category=CAT_ALLTOALL, num_bytes=alltoall_bytes,
                name=f"{base}.dispatch" if names else None)
            placement.record_alltoall(alltoall_bytes)

        exec_ids: List[int] = []
        for device in sorted(counts):
            exec_time = self._exec_duration(query_tokens,
                                            max(1, counts[device]))
            deps = [op_id for op_id, dev in block_transfer_ops if dev == device]
            if device != 0 and dispatch_id >= 0:
                deps.append(dispatch_id)
            if device == 0 and dispatch_id < 0:
                # Sole-device block: adopt the transfers of non-participating
                # shards too, matching the single-GPU "execution waits for
                # every one of the block's transfers" semantics.
                deps.extend(leftover_deps)
                leftover_deps = []
            exec_ids.append(batch.add(
                _COMPUTE, exec_time, deps=deps, category=CAT_EXPERT_EXECUTION,
                device=device, name=f"{base}.experts" if names else None))
        if dispatch_id < 0:
            return exec_ids[0], exec_ids, dispatch_id
        combine_id = batch.add(
            _INTERCONNECT, self.topology.all_to_all_time(alltoall_bytes),
            deps=exec_ids + leftover_deps, category=CAT_ALLTOALL,
            num_bytes=alltoall_bytes, name=f"{base}.combine" if names else None)
        placement.record_alltoall(alltoall_bytes)
        carry_deps.append(combine_id)
        return combine_id, exec_ids, dispatch_id

    def emit_decoder_iteration(self, batch: OpBatch,
                               activations: IterationActivations,
                               query_tokens: int = 1, self_kv_tokens: int = 1,
                               cross_kv_tokens: int = 32, iteration: int = 0,
                               *,
                               batch_round: "SharedExpertRound | PrefetchRound",
                               start_at: float = 0.0,
                               label: str = "",
                               plan: Optional[MigrationPlan] = None,
                               extra_deps: Optional[Sequence[int]] = None) -> EmittedPass:
        """One decoder iteration (all decoder layers plus the LM head)."""
        emitted = self.emit_stack_pass(
            batch, "decoder", iteration, activations,
            query_tokens=query_tokens, self_kv_tokens=self_kv_tokens,
            cross_kv_tokens=cross_kv_tokens, start_at=start_at,
            batch_round=batch_round, label=label, plan=plan,
            extra_deps=extra_deps)
        lm_id = batch.add(
            _COMPUTE, self._lm_duration(query_tokens),
            deps=emitted.carry_deps, category=CAT_NON_MOE,
            earliest_start=start_at if emitted.first_index < 0 else 0.0,
            name=f"{label}decoder{iteration}.lm_head"
            if batch.record_names else None)
        emitted.last_index = lm_id - batch.base_id
        if emitted.first_index < 0:
            emitted.first_index = emitted.last_index
        # The LM head consumed the trailing combine: nothing carries over.
        emitted.carry_deps = []
        return emitted

    def emit_encoder_pass(self, batch: OpBatch,
                          activations: IterationActivations,
                          input_tokens: int, *,
                          batch_round: "SharedExpertRound | PrefetchRound",
                          start_at: float = 0.0,
                          label: str = "",
                          plan: Optional[MigrationPlan] = None,
                          extra_deps: Optional[Sequence[int]] = None) -> EmittedPass:
        """The encoder pass over ``input_tokens`` tokens."""
        return self.emit_stack_pass(
            batch, "encoder", 0, activations, query_tokens=input_tokens,
            self_kv_tokens=input_tokens, cross_kv_tokens=None,
            start_at=start_at, batch_round=batch_round, label=label,
            plan=plan, extra_deps=extra_deps)
