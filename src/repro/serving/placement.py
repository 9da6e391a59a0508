"""Model-placement layer: parameter storage and GPU expert-slot accounting.

This is the first of the three serving layers (placement → per-iteration
simulation → request lifecycle).  A :class:`ShardedPlacement` owns the memory
hierarchy of one replica and implements the storage policy of a design
(Figure 4): where the non-MoE parameters, the expert parameters and the
runtime workspace live, plus the transient GPU allocations made while
migrated experts are resident.

A replica may span several GPUs (expert parallelism): the placement then
splits into one :class:`DeviceShard` per device — each with its own HBM
:class:`~repro.system.memory.MemoryPool`, shared-residency map and DRAM
staging cache — and a :class:`ShardAssignment` that maps every expert id to
the device owning its parameters.  Fetches, expert allocations and cache
pins route to the owning shard.  A single-GPU replica is the degenerate
one-shard case and behaves bit-identically to the original single-pool
placement.

It contains *no timing logic* — the per-iteration simulator decides when
transfers happen; the placement only tracks the bytes they pin.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from ..core.migration import ExpertTransfer
from ..moe.configs import ModelConfig
from ..moe.transformer import _moe_layer_positions
from ..system.hardware import DeviceTopology, SystemSpec
from ..system.memory import MemoryPool, TieredMemory
from ..system.residency import ExpertResidency, ResidencyStats
from ..system.tiers import FetchRoute, TierTransferStats, merge_optional_stats

#: Fixed GPU memory consumed by the runtime itself (CUDA context, cuBLAS
#: workspaces, FasterTransformer's pre-allocated activation buffers).  The
#: paper's measured peak-memory numbers include this overhead, so the
#: simulator accounts for it explicitly.
DEFAULT_RUNTIME_WORKSPACE_BYTES = int(2e9)

#: Expert→device assignment policies of :class:`ShardAssignment`.
SHARD_POLICIES = ("contiguous", "round_robin", "load_balanced")


class ShardAssignment:
    """Static expert→device assignment for one expert-parallel replica.

    The same map applies to every MoE block (the standard expert-parallel
    layout: rank *d* owns the same expert-id slice of each layer).

    Policies
    --------
    ``contiguous``
        Expert *e* lives on device ``e * D // E`` — the natural slicing of a
        checkpoint, but it concentrates hot low-id experts on device 0 when
        the gate distribution is skewed.
    ``round_robin``
        Expert *e* lives on device ``e % D`` — spreads neighbouring ids.
    ``load_balanced``
        Greedy longest-processing-time assignment by expected gate load:
        experts are placed heaviest-first onto the least-loaded device, so a
        skewed popularity distribution ends up evenly spread.  With uniform
        (or absent) ``expert_weights`` this degenerates to an equal split.
    """

    def __init__(self, num_experts: int, num_devices: int,
                 policy: str = "contiguous",
                 expert_weights: Optional[Sequence[float]] = None) -> None:
        if policy not in SHARD_POLICIES:
            raise ValueError(
                f"unknown shard policy {policy!r}; known: {SHARD_POLICIES}")
        if num_experts < 0:
            raise ValueError("num_experts must be non-negative")
        if num_devices < 1:
            raise ValueError("num_devices must be >= 1")
        if expert_weights is not None:
            if len(expert_weights) != num_experts:
                raise ValueError(
                    f"expert_weights has {len(expert_weights)} entries for "
                    f"{num_experts} experts")
            if any(w < 0 for w in expert_weights):
                raise ValueError("expert_weights must be non-negative")
            if num_experts > 0 and sum(expert_weights) == 0:
                raise ValueError(
                    "expert_weights must not be all zero (the load-balanced "
                    "greedy would pile every expert onto device 0)")
            weights = [float(w) for w in expert_weights]
        else:
            weights = [1.0] * num_experts
        self.num_experts = num_experts
        self.num_devices = num_devices
        self.policy = policy
        self.expert_weights = weights
        self._device_of: List[int] = [0] * num_experts
        self.device_weights: List[float] = [0.0] * num_devices
        if policy == "contiguous":
            for e in range(num_experts):
                self._device_of[e] = e * num_devices // num_experts
        elif policy == "round_robin":
            for e in range(num_experts):
                self._device_of[e] = e % num_devices
        else:  # load_balanced: greedy LPT over the expected gate load
            order = sorted(range(num_experts), key=lambda e: (-weights[e], e))
            for e in order:
                target = min(range(num_devices), key=lambda d: (self.device_weights[d], d))
                self._device_of[e] = target
                self.device_weights[target] += weights[e]
        if policy != "load_balanced":
            for e in range(num_experts):
                self.device_weights[self._device_of[e]] += weights[e]

    def device_of(self, expert_id: int) -> int:
        """Device owning ``expert_id``'s parameter slice."""
        if not 0 <= expert_id < self.num_experts:
            raise ValueError(
                f"expert_id must be in [0, {self.num_experts}), got {expert_id}")
        return self._device_of[expert_id]

    def experts_on(self, device: int) -> List[int]:
        return [e for e in range(self.num_experts) if self._device_of[e] == device]

    def imbalance(self) -> float:
        """Max-over-mean expected gate load across devices (1.0 = balanced)."""
        mean = sum(self.device_weights) / self.num_devices
        if mean <= 0.0:
            return 1.0
        return max(self.device_weights) / mean


class DeviceShard:
    """One GPU's slice of an expert-parallel replica.

    Owns the device's HBM :class:`~repro.system.memory.MemoryPool`, its
    shared-residency map (cache of its own experts) and its slice of the
    host-DRAM staging cache.  The shard holds only *its* experts' bytes —
    the :class:`ShardAssignment` decides which those are.
    """

    def __init__(self, device_id: int, pool: MemoryPool,
                 residency: Optional[ExpertResidency] = None,
                 stage: Optional[ExpertResidency] = None) -> None:
        self.device_id = device_id
        self.pool = pool
        self.residency = residency
        self.stage = stage


class ShardedResidency:
    """Routes the :class:`~repro.system.residency.ExpertResidency` protocol
    across per-shard maps by expert→device ownership.

    Pins charge the owning shard's HBM pool and evictions stay shard-local,
    exactly as an expert-parallel runtime refcounts pages per rank.  Only
    constructed for multi-GPU placements; a single-GPU placement exposes its
    one underlying map directly.
    """

    def __init__(self, residencies: Sequence[ExpertResidency],
                 assignment: ShardAssignment) -> None:
        self._residencies = list(residencies)
        self.assignment = assignment

    def _for(self, key: Tuple[int, int]) -> ExpertResidency:
        return self._residencies[self.assignment.device_of(key[1])]

    def pin(self, key: Tuple[int, int]) -> bool:
        return self._for(key).pin(key)

    def release(self, key: Tuple[int, int]) -> None:
        self._for(key).release(key)

    def is_resident(self, key: Tuple[int, int]) -> bool:
        return self._for(key).is_resident(key)

    def pins(self, key: Tuple[int, int]) -> int:
        return self._for(key).pins(key)

    def resident_for_block(self, block_index: int) -> List[int]:
        resident: List[int] = []
        for shard_map in self._residencies:
            resident.extend(shard_map.resident_for_block(block_index))
        return resident

    def resident_keys(self) -> List[Tuple[int, int]]:
        return [key for shard_map in self._residencies
                for key in shard_map.resident_keys()]

    def evict_unpinned(self) -> int:
        return sum(shard_map.evict_unpinned() for shard_map in self._residencies)

    def __len__(self) -> int:
        return sum(len(shard_map) for shard_map in self._residencies)

    def __contains__(self, key: Tuple[int, int]) -> bool:
        return self.is_resident(key)

    @property
    def capacity(self) -> int:
        return sum(shard_map.capacity for shard_map in self._residencies)

    @property
    def policy(self):
        return self._residencies[0].policy

    @property
    def retained_count(self) -> int:
        return sum(shard_map.retained_count for shard_map in self._residencies)

    @property
    def pinned_count(self) -> int:
        return sum(shard_map.pinned_count for shard_map in self._residencies)

    @property
    def stats(self) -> ResidencyStats:
        """Pooled counters across the shards (freshly merged each call)."""
        return merge_optional_stats([r.stats for r in self._residencies])


def _split_capacity(capacity: int, num_devices: int, device: int) -> int:
    """Device ``device``'s share of a replica-wide entry budget."""
    return capacity // num_devices + (1 if device < capacity % num_devices else 0)


class ShardedPlacement:
    """Parameter placement and expert-slot accounting for one replica.

    Parameters
    ----------
    config:
        Model configuration being served.
    system:
        Hardware the replica runs on; its
        :attr:`~repro.system.hardware.SystemSpec.device_topology` fixes the
        shard count (one :class:`DeviceShard` per GPU).
    offload_experts:
        Whether expert parameters live in the offload tier (all designs
        except GPU-only).
    cache_policy / cache_capacity:
        When ``cache_capacity`` is not ``None`` (0 is a valid, cache-nothing
        value used by the parity tests) and the design offloads experts, the
        placement owns a shared refcounted
        :class:`~repro.system.residency.ExpertResidency` map charged against
        its GPU pool(s) — the one GPU expert cache (Figure 15), for engine
        and scheduler alike.  With several devices the capacity is split
        evenly across the shards (each rank caches its own experts).
    stage_policy / stage_capacity:
        Second-level cache for SSD offload: when ``stage_capacity`` is not
        ``None`` and the system's offload tier is ``"ssd"``, each shard owns
        a slice of a host-DRAM :class:`~repro.system.residency.ExpertResidency`
        — the staging cache SSD-resident experts pass through on their way
        to the GPU.  Staged experts skip the SSD read entirely (only the
        PCIe hop remains); bytes are charged to the DRAM
        :class:`~repro.system.memory.MemoryPool` under the
        ``staged_experts`` category.  Capacity 0 keeps the staging
        machinery but retains nothing, reproducing the unstaged multi-hop
        timings exactly (no buffer space means the two links stay a single
        cut-through queue).
    shard_policy / expert_weights:
        Expert→device assignment policy (see :class:`ShardAssignment`) and
        the optional expected per-expert gate load driving ``load_balanced``.
        Irrelevant for single-GPU replicas.
    runtime_workspace_bytes / allow_oversubscription:
        See :class:`~repro.serving.scheduler.EngineConfig`.
    """

    def __init__(self, config: ModelConfig, system: SystemSpec,
                 offload_experts: bool,
                 cache_policy: Optional[str] = None,
                 cache_capacity: Optional[int] = None,
                 stage_policy: Optional[str] = None,
                 stage_capacity: Optional[int] = None,
                 shard_policy: str = "contiguous",
                 expert_weights: Optional[Sequence[float]] = None,
                 runtime_workspace_bytes: int = DEFAULT_RUNTIME_WORKSPACE_BYTES,
                 allow_oversubscription: bool = False) -> None:
        if cache_policy is not None and cache_capacity is None:
            raise ValueError(
                "cache_policy requires cache_capacity (0 disables retention "
                "but keeps the residency machinery)")
        if stage_policy is not None and stage_capacity is None:
            raise ValueError(
                "stage_policy requires stage_capacity (0 disables retention "
                "but keeps the staging machinery)")
        if stage_capacity is not None and system.offload_tier != "ssd":
            raise ValueError(
                "a DRAM staging cache only applies to SSD offload; "
                f"this system's offload tier is {system.offload_tier!r}")
        self.config = config
        self.system = system
        self.topology: DeviceTopology = system.device_topology
        self.offload_experts = offload_experts
        self.runtime_workspace_bytes = runtime_workspace_bytes
        self.allow_oversubscription = allow_oversubscription
        num_devices = self.topology.num_devices
        self.assignment = ShardAssignment(
            config.num_experts if config.is_moe else 0, num_devices,
            policy=shard_policy, expert_weights=expert_weights)

        # Per-device HBM pools; the host DRAM and SSD tiers stay shared.
        device_pools = [
            MemoryPool(self._pool_name(d), gpu.memory_bytes, tier="hbm")
            for d, gpu in enumerate(self.topology.devices)
        ]
        host = MemoryPool(f"CPU DRAM ({system.host.name})", system.host.dram_bytes,
                          tier="dram")
        ssd = MemoryPool(f"SSD ({system.ssd.name})", system.ssd.capacity_bytes,
                         tier="ssd")
        self.memory = TieredMemory(gpu=device_pools[0], cpu=host, ssd=ssd)
        self.shards: List[DeviceShard] = []
        for d, pool in enumerate(device_pools):
            residency = None
            if cache_capacity is not None and offload_experts:
                residency = ExpertResidency(
                    pool, config.expert_bytes(),
                    capacity_experts=_split_capacity(cache_capacity, num_devices, d),
                    policy=cache_policy or "lru",
                    source_tier=system.offload_tier,
                    allow_oversubscription=allow_oversubscription)
            stage = None
            if stage_capacity is not None and offload_experts:
                stage = ExpertResidency(
                    host, config.expert_bytes(),
                    capacity_experts=_split_capacity(stage_capacity, num_devices, d),
                    policy=stage_policy or "lru",
                    source_tier="ssd",
                    allow_oversubscription=allow_oversubscription,
                    tag_prefix="staged_expert" if d == 0 else f"staged_expert.d{d}",
                    category="staged_experts")
            self.shards.append(DeviceShard(d, pool, residency=residency, stage=stage))

        # Single-GPU placements expose the underlying maps directly (the
        # legacy surface the engine/scheduler tests pin); multi-GPU
        # placements expose ownership-routing views over the shards.
        if num_devices == 1:
            self.residency = self.shards[0].residency
            self.stage = self.shards[0].stage
        else:
            self.residency = (ShardedResidency(
                [s.residency for s in self.shards], self.assignment)
                if cache_capacity is not None and offload_experts else None)
            self.stage = (ShardedResidency(
                [s.stage for s in self.shards], self.assignment)
                if stage_capacity is not None and offload_experts else None)

        #: Per-tier transfer ledger: every issued expert fetch is recorded
        #: here with its per-hop byte attribution and stage hit/miss outcome.
        self.transfers = TierTransferStats(
            source_tier=system.offload_tier if offload_experts else "hbm")
        #: Observability hook: when a list is installed here (the scheduler
        #: does so while span logging is enabled), :meth:`route_fetch`
        #: appends ``(source_tier, stage_hit)`` per issued fetch, in copy-op
        #: emission order — the attribution the span assembler zips with
        #: the pass's transfer ops.  ``None`` (default) costs one ``is not
        #: None`` check per fetch.
        self.route_log: Optional[List[Tuple[str, bool]]] = None
        #: Bytes each device's fetches moved over its copy lane (shard
        #: imbalance telemetry).
        self.device_fetch_bytes: List[int] = [0] * num_devices
        #: Token bytes moved over the intra-node interconnect (all-to-all
        #: dispatch + combine around the MoE blocks).
        self.alltoall_bytes: int = 0
        # Tier paths are constants of the system spec; cache them so the
        # per-fetch routing in the hot simulation loop does not rebuild them.
        self._offload_path = system.tier_path() if offload_experts else None
        self._pcie_path = system.tier_path("dram")
        # Transfer durations along a fixed path depend only on the byte
        # count, and expert fetches are all the same size — memoise the
        # (path, bytes) → duration evaluations instead of re-walking the
        # hop list on every fetch of every round.
        self._path_time_cache: dict = {}
        self._route_memo: Dict[Tuple[str, int, int], FetchRoute] = {}
        self._expert_bytes = config.expert_bytes()
        self._loaded = False
        self._expert_seq = 0

        if config.is_moe:
            self.encoder_moe_positions = _moe_layer_positions(
                config.num_encoder_layers, config.moe_layer_frequency)
            self.decoder_moe_positions = _moe_layer_positions(
                config.num_decoder_layers, config.moe_layer_frequency)
        else:
            self.encoder_moe_positions = []
            self.decoder_moe_positions = []

    def _pool_name(self, device: int) -> str:
        gpu = self.topology.devices[device]
        if self.topology.num_devices == 1:
            return f"GPU ({gpu.name})"
        return f"GPU{device} ({gpu.name})"

    # ------------------------------------------------------------------
    # Device/shard helpers
    # ------------------------------------------------------------------
    @property
    def num_devices(self) -> int:
        return self.topology.num_devices

    @property
    def gpu_pool(self) -> MemoryPool:
        """Device 0's HBM pool (the whole GPU for single-device replicas)."""
        return self.shards[0].pool

    @property
    def peak_gpu_bytes(self) -> int:
        """Peak HBM usage summed over the replica's devices."""
        return sum(shard.pool.peak for shard in self.shards)

    def owner_device(self, expert_id: int) -> int:
        """Device owning ``expert_id`` (0 for non-MoE configs)."""
        if self.assignment.num_experts == 0:
            return 0
        return self.assignment.device_of(expert_id)

    def shard_for(self, expert_id: int) -> DeviceShard:
        return self.shards[self.owner_device(expert_id)]

    def record_alltoall(self, num_bytes: float) -> None:
        """Account one all-to-all dispatch/combine's interconnect traffic."""
        self.alltoall_bytes += int(num_bytes)

    # ------------------------------------------------------------------
    # Round-replay counter fast-forward
    # ------------------------------------------------------------------
    def replay_counters(self) -> Tuple[int, ...]:
        """Flat snapshot of every counter round replay bumps.

        All integers, so the replay controller can require *exact* per-round
        delta equality before fast-forwarding, and bump by ``n * delta``
        without floating-point drift.  Order is fixed: the
        :class:`~repro.system.tiers.TierTransferStats` fields, the all-to-all
        byte counter, then per-device fetched bytes.  Replay never runs on a
        placement with a residency map, so no map counter appears here.
        """
        return (*self.transfers.replay_counters(), self.alltoall_bytes,
                *self.device_fetch_bytes)

    def replay_fast_forward(self, num_rounds: int,
                            delta: Sequence[int]) -> None:
        """Advance the counters by ``num_rounds`` identical rounds' worth.

        ``delta`` is the per-round difference of :meth:`replay_counters`
        the replay controller verified to be constant across its recorded
        window.  Replayed rounds allocate and free the same expert slots the
        recorded rounds did, so memory state and peaks are already exact.
        """
        width = TierTransferStats.REPLAY_WIDTH
        self.transfers.replay_fast_forward(num_rounds, delta[:width])
        self.alltoall_bytes += num_rounds * delta[width]
        for device, per_round in enumerate(delta[width + 1:]):
            self.device_fetch_bytes[device] += num_rounds * per_round

    def fetch_imbalance(self,
                        since: Optional[Sequence[int]] = None) -> Optional[float]:
        """Max-over-mean fetched bytes across devices (``None`` single-GPU).

        ``since`` is an earlier copy of :attr:`device_fetch_bytes`, so a
        load test reports the imbalance of *its* traffic rather than the
        placement's lifetime.  Falls back to the assignment's expected-load
        imbalance when nothing was fetched in the window.
        """
        if self.num_devices == 1:
            return None
        baseline = list(since) if since is not None else [0] * self.num_devices
        deltas = [now - before
                  for now, before in zip(self.device_fetch_bytes, baseline)]
        total = sum(deltas)
        if total == 0:
            return self.assignment.imbalance()
        return max(deltas) / (total / self.num_devices)

    # ------------------------------------------------------------------
    # Model loading (Figure 4)
    # ------------------------------------------------------------------
    @property
    def loaded(self) -> bool:
        return self._loaded

    def load_model(self) -> None:
        """Place model parameters according to the design's storage policy.

        Raises :class:`~repro.system.memory.OutOfMemoryError` if a GPU
        cannot hold its share of the parameters (the GPU-only OOM case for
        Switch-Large in Figures 10-12).  The non-MoE parameters and runtime
        workspace are replicated on every device (expert parallelism keeps
        the dense layers data-parallel); expert parameters land on their
        owning shard — or in the offload tier when the design migrates them.
        """
        if self._loaded:
            return
        allow = self.allow_oversubscription
        for shard in self.shards:
            shard.pool.allocate("runtime_workspace", self.runtime_workspace_bytes,
                                category="workspace", allow_oversubscribe=allow)
            shard.pool.allocate("non_moe_params", self.config.non_moe_bytes(),
                                category="non_moe", allow_oversubscribe=allow)
        if self.offload_experts:
            offload_pool = self.memory.pool(self.system.offload_tier)
            offload_pool.allocate("moe_params", self.config.moe_bytes(), category="moe")
        elif self.num_devices == 1:
            self.gpu_pool.allocate("moe_params", self.config.moe_bytes(),
                                   category="moe", allow_oversubscribe=allow)
        else:
            # GPU-only, expert-parallel: each shard holds its experts' slice
            # of every MoE block.
            expert_bytes = self.config.expert_bytes()
            num_blocks = self.config.num_moe_blocks("all")
            gate_bytes = self.config.moe_bytes() - (
                num_blocks * self.config.num_experts * expert_bytes)
            for shard in self.shards:
                owned = len(self.assignment.experts_on(shard.device_id))
                shard_bytes = num_blocks * owned * expert_bytes
                if shard.device_id == 0:
                    shard_bytes += max(0, gate_bytes)
                shard.pool.allocate("moe_params", shard_bytes, category="moe",
                                    allow_oversubscribe=allow)
        self._loaded = True

    # ------------------------------------------------------------------
    # Block topology helpers
    # ------------------------------------------------------------------
    def moe_positions(self, part: str) -> List[int]:
        return self.encoder_moe_positions if part == "encoder" else self.decoder_moe_positions

    def global_block_index(self, part: str, block_index: int) -> int:
        if part == "encoder":
            return block_index
        return len(self.encoder_moe_positions) + block_index

    # ------------------------------------------------------------------
    # Tiered fetch routing
    # ------------------------------------------------------------------
    def route_fetch(self, key: Tuple[int, int],
                    transfer: ExpertTransfer) -> FetchRoute:
        """Decide the hop structure (and owning device) of one expert fetch.

        For DRAM-resident experts the route is the single PCIe hop (the
        legacy path).  For SSD-resident experts the route consults the
        owning shard's DRAM staging cache when one is configured:

        * **stage hit** — the expert's bytes are already in host DRAM, so
          only the PCIe hop remains (no SSD read at all);
        * **stage miss** — the bytes stream SSD→DRAM→GPU; with stage
          capacity the SSD read is its own op on the stage stream (it can
          overlap compute *and* other experts' PCIe copies) and the
          dependent copy op carries the pipelined remainder, so an idle
          system still completes the fetch in exactly the multi-hop
          pipelined time.  A zero-capacity stage has no buffer to decouple
          the links, so the fetch stays one cut-through copy op — timing
          parity with the unstaged path.

        Side-effectful: stage residency is consulted (pin + release, so
        retention follows the stage policy/capacity) and the fetch is
        recorded in the per-tier transfer ledger.  The returned route's
        ``device`` is the shard whose copy lane the fetch occupies.
        """
        tier = transfer.source_tier
        num_bytes = transfer.bytes
        device = self.owner_device(transfer.expert_id)
        stage = self.shards[device].stage
        if tier != "ssd" or stage is None:
            # Unstaged routes are a function of (tier, device, bytes): one
            # frozen route per combination serves every such fetch.
            memo_key = (tier, device, num_bytes)
            route = self._route_memo.get(memo_key)
            if route is None:
                route = self._route_memo[memo_key] = FetchRoute(
                    source_tier=tier,
                    copy_duration=self._path_times(self._path(tier),
                                                   num_bytes)[0],
                    device=device)
        else:
            path = self._path(tier)
            hit = stage.pin(key)
            stage.release(key)
            if hit:
                route = FetchRoute(
                    source_tier="ssd", stage_hit=True,
                    copy_duration=self._path_times(self._pcie_path, num_bytes)[0],
                    device=device)
            elif stage.capacity <= 0:
                route = FetchRoute(source_tier="ssd", stage_hit=False,
                                   copy_duration=self._path_times(path, num_bytes)[0],
                                   device=device)
            else:
                times = self._path_times(path, num_bytes)
                route = FetchRoute(
                    source_tier="ssd", stage_hit=False,
                    stage_duration=times[1],
                    copy_duration=times[2],
                    device=device)
        self.transfers.record_fetch(route, num_bytes)
        self.device_fetch_bytes[device] += int(num_bytes)
        if self.route_log is not None:
            self.route_log.append((route.source_tier, route.stage_hit))
        return route

    def _path(self, tier: str):
        """The tier path a fetch from ``tier`` takes to the GPU."""
        if self._offload_path is not None and self._offload_path.source == tier:
            return self._offload_path
        return self.system.tier_path(tier)

    def _path_times(self, path, num_bytes: int) -> Tuple[float, float, float]:
        """(pipelined total, first-hop, cut-through-tail) for ``num_bytes``.

        Memoised per (source, dest, byte count): within one placement the
        system spec fixes the hop structure of a (source, dest) route, and
        fetches are expert-sized, so the cache holds a handful of entries
        while saving a hop-list walk per fetch.
        """
        cache_key = (path.source, path.dest, num_bytes)
        times = self._path_time_cache.get(cache_key)
        if times is None:
            times = (path.transfer_time(num_bytes),
                     path.first_hop_time(num_bytes),
                     path.cut_through_tail(num_bytes))
            self._path_time_cache[cache_key] = times
        return times

    # ------------------------------------------------------------------
    # Transient expert allocations
    # ------------------------------------------------------------------
    def cache_resident(self, part: str, num_blocks: int) -> List[Set[int]]:
        """Per-block sets of experts resident in the GPU residency map
        (the placement must have one) — excluded from migration plans."""
        provider = self.residency.resident_for_block
        return [set(provider(self.global_block_index(part, block)))
                for block in range(num_blocks)]

    def allocate_shared_expert(self, part: str, block_index: int,
                               expert_id: int) -> Hashable:
        """Reserve a round-shared expert slot (the uncached fetch path).

        The sharing itself is tracked by the caller's
        :class:`~repro.serving.simulator.SharedExpertRound` refcount map,
        which holds the returned tag and frees it once the last round member
        using the expert has executed.  The tag is the tuple
        ``("batch_expert", global block, expert id, sequence number)``; the
        sequence number keeps a re-fetch later in the same round from ever
        colliding with a previously freed slot.
        """
        self._expert_seq += 1
        tag = ("batch_expert", self.global_block_index(part, block_index),
               expert_id, self._expert_seq)
        self.shard_for(expert_id).pool.allocate(
            tag, self._expert_bytes, category="experts",
            allow_oversubscribe=self.allow_oversubscription)
        return tag

    def free_expert(self, tag: Hashable) -> None:
        for shard in self.shards:
            if shard.pool.has(tag):
                shard.pool.free(tag)
                return


#: The historical name of the placement layer — a single-GPU replica is just
#: a one-shard :class:`ShardedPlacement`.
ModelPlacement = ShardedPlacement
