"""Serving engines for the four MoE inference system designs.

Each engine simulates serving of a (paper-scale) Switch-Transformer
configuration on a :class:`~repro.system.hardware.SystemSpec`, scheduling
each pass's ops on a multi-stream timeline
(:class:`~repro.system.timeline.ArrayTimeline` by default) to model the
interaction between GPU compute and CPU→GPU expert migration:

* :class:`GPUOnlyEngine` — the oracular baseline: every parameter resident
  in GPU memory, no expert migration (OOMs when the model does not fit).
* :class:`OnDemandEngine` — MoE-OnDemand: experts offloaded to host memory
  and fetched after each block's gate, serialising selection, migration and
  execution.
* :class:`PrefetchAllEngine` — MoE-Prefetch (SE-MoE): the *entire* expert
  set of the next block is transferred while the current block executes.
* :class:`PreGatedEngine` — the paper's system: the pre-gate evaluated in
  block *N* identifies the activated experts of block *N+1*, so only those
  are transferred, overlapped with block *N*'s execution.

The engine itself is the *request-lifecycle* layer of the serving stack: it
composes a :class:`~repro.serving.placement.ModelPlacement` (parameter
storage policy) with an :class:`~repro.serving.simulator.IterationSimulator`
(per-iteration op emission) and runs requests end-to-end, one at a time:
each pass is a one-member round of the scheduler's round protocol (so it
caches through the same :class:`~repro.system.residency.ExpertResidency`),
emitted as one op batch and committed to the timeline, and its per-block
latencies are read back from the committed start/end times.  The
continuous-batching path lives in :mod:`repro.serving.scheduler`.

The engines consume expert-activation traces
(:class:`~repro.workloads.traces.RequestTrace`) and emit the same metrics
the paper's artifact reports: per-MoE-block latency, end-to-end throughput
in tokens/second and peak GPU memory usage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..moe.configs import ModelConfig, get_config
from ..system.hardware import PAPER_SYSTEM, LinkSpec, SystemSpec
from ..system.memory import MemoryHierarchy, MemoryPool, OutOfMemoryError
from ..system.performance import GpuLatencyModel
from ..system.timeline import ArrayTimeline
from ..workloads.traces import IterationActivations, RequestTrace
from .metrics import (BlockLatencyRecord, IterationResult, RequestResult,
                      WorkloadResult)
from .placement import DEFAULT_RUNTIME_WORKSPACE_BYTES, ModelPlacement
from .prefetch import CrossRequestPrefetcher
from .simulator import IterationSimulator, SharedExpertRound


@dataclass
class EngineConfig:
    """Tunable knobs shared by all engines."""

    activation_level: int = 1
    runtime_workspace_bytes: int = DEFAULT_RUNTIME_WORKSPACE_BYTES
    #: Whether to keep simulating when the GPU pool would be exceeded
    #: (used by analyses that want to measure how far over budget a design is).
    allow_oversubscription: bool = False


class ServingEngine:
    """Base class implementing the shared request-lifecycle machinery.

    Subclasses set :attr:`design` and the migration behaviour is selected
    through :func:`repro.core.migration.plan_for_design`.
    """

    design: str = "base"

    def __init__(self, config: "ModelConfig | str", system: SystemSpec = PAPER_SYSTEM,
                 latency_model: Optional[GpuLatencyModel] = None,
                 engine_config: Optional[EngineConfig] = None,
                 cache_policy: Optional[str] = None,
                 cache_capacity: Optional[int] = None,
                 stage_policy: Optional[str] = None,
                 stage_capacity: Optional[int] = None,
                 num_gpus: Optional[int] = None,
                 shard_policy: str = "contiguous",
                 expert_weights: Optional[Sequence[float]] = None,
                 interconnect: Optional[LinkSpec] = None) -> None:
        if num_gpus is not None or interconnect is not None:
            system = system.with_num_gpus(
                num_gpus if num_gpus is not None else system.num_gpus,
                interconnect=interconnect)
        self.config = get_config(config) if isinstance(config, str) else config
        self.system = system
        self.latency = latency_model or GpuLatencyModel(system.gpu)
        self.engine_config = engine_config or EngineConfig()
        self.placement = ModelPlacement(
            self.config, system, offload_experts=self.offloads_experts,
            cache_policy=cache_policy, cache_capacity=cache_capacity,
            stage_policy=stage_policy, stage_capacity=stage_capacity,
            shard_policy=shard_policy, expert_weights=expert_weights,
            runtime_workspace_bytes=self.engine_config.runtime_workspace_bytes,
            allow_oversubscription=self.engine_config.allow_oversubscription)
        self.residency = self.placement.residency
        self.prefetcher = (CrossRequestPrefetcher(self.residency)
                           if self.residency is not None else None)
        self.simulator = IterationSimulator(
            self.config, system, self.latency, self.design, self.placement,
            activation_level=self.engine_config.activation_level)
        # Carry-over of a trailing all-to-all combine between consecutive
        # passes on the same timeline (expert-parallel replicas only).
        self._carry: "tuple[ArrayTimeline, List[int]] | None" = None

    # ------------------------------------------------------------------
    # Placement delegation (kept on the engine for backward compatibility)
    # ------------------------------------------------------------------
    @property
    def offloads_experts(self) -> bool:
        return self.design != "gpu_only"

    @property
    def memory(self) -> MemoryHierarchy:
        return self.placement.memory

    @property
    def gpu_pool(self) -> MemoryPool:
        return self.placement.gpu_pool

    def load_model(self) -> None:
        """Place model parameters according to the design's storage policy.

        Raises :class:`OutOfMemoryError` if the GPU cannot hold its share of
        the parameters (the GPU-only OOM case for Switch-Large in
        Figures 10-12).
        """
        self.placement.load_model()

    # ------------------------------------------------------------------
    # Public simulation API
    # ------------------------------------------------------------------
    def _consume_carry(self, timeline: ArrayTimeline) -> List[int]:
        """Pending cross-pass deps for ``timeline`` (expert-parallel only)."""
        if self._carry is not None and self._carry[0] is timeline:
            return self._carry[1]
        return []

    def _run_pass(self, part: str, iteration: int,
                  timeline: Optional[ArrayTimeline],
                  activations: IterationActivations, **shape) -> IterationResult:
        """Run one pass as a one-member round, commit it and read back latencies.

        ``shape`` holds the token counts of the part's ``emit_*`` call.  The
        plan is registered before any op is emitted, as in the scheduler, so
        a cache keeps the residents it relies on pinned through the pass.

        A block's latency runs from the end of its input (the preceding
        non-MoE op) to the end of the op completing the block; its exposed
        transfer time is the worst stall of any expert-execution op behind
        compute-side readiness — the last compute op before execution, or
        for a remote device the arrival of its dispatched tokens.
        """
        self.load_model()
        timeline = timeline if timeline is not None else ArrayTimeline()
        start = timeline.makespan
        if part == "decoder":
            emit = self.simulator.emit_decoder_iteration
            shape["iteration"] = iteration
        else:
            emit = self.simulator.emit_encoder_pass
        batch_round = (self.prefetcher.begin_round()
                       if self.prefetcher is not None else SharedExpertRound())
        plan = self.simulator.make_plan(part, activations)
        batch_round.register_plan(self.placement, part, plan, activations)
        batch = timeline.begin_batch()
        try:
            emitted = emit(batch, activations, batch_round=batch_round,
                           plan=plan, extra_deps=self._consume_carry(timeline),
                           **shape)
        finally:
            batch_round.drain(self.placement)
        starts, ends = timeline.commit_batch(batch)
        self._carry = (timeline, list(emitted.carry_deps))
        starts, ends = starts.tolist(), ends.tolist()
        base = batch.base_id
        devices = batch.device
        records = []
        for (block, num_active, input_id, ready_id, end_id, exec_ids,
             dispatch_id) in emitted.blocks:
            ready = ends[ready_id - base]
            exposed = 0.0
            for exec_id in exec_ids:
                exec_ready = ready
                if dispatch_id >= 0 and devices[exec_id - base] != 0:
                    exec_ready = max(ready, ends[dispatch_id - base])
                exposed = max(exposed, starts[exec_id - base] - exec_ready)
            records.append(BlockLatencyRecord(
                part=part, iteration=iteration, block_index=block,
                latency=ends[end_id - base] - ends[input_id - base],
                num_active_experts=num_active, exposed_transfer_time=exposed))
        return IterationResult(part=part, iteration=iteration,
                               duration=timeline.makespan - start,
                               block_latencies=records)

    def run_decoder_iteration(self, activations: IterationActivations,
                              query_tokens: int = 1, self_kv_tokens: int = 1,
                              cross_kv_tokens: int = 32,
                              timeline: Optional[ArrayTimeline] = None,
                              iteration: int = 0) -> IterationResult:
        """Simulate a single decoder iteration (all decoder layers, one token)."""
        return self._run_pass("decoder", iteration, timeline, activations,
                              query_tokens=query_tokens,
                              self_kv_tokens=self_kv_tokens,
                              cross_kv_tokens=cross_kv_tokens)

    def run_encoder_pass(self, activations: IterationActivations, input_tokens: int,
                         timeline: Optional[ArrayTimeline] = None) -> IterationResult:
        """Simulate the encoder pass over ``input_tokens`` tokens."""
        return self._run_pass("encoder", 0, timeline, activations,
                              input_tokens=input_tokens)

    def run_request(self, trace: RequestTrace) -> RequestResult:
        """Serve one request end-to-end: encoder pass + all decoder iterations."""
        self.load_model()
        timeline = ArrayTimeline()
        iterations: List[IterationResult] = []

        encoder_result = self.run_encoder_pass(
            trace.encoder_activations, trace.input_length, timeline=timeline)
        iterations.append(encoder_result)
        encoder_time = timeline.makespan

        for step, activations in enumerate(trace.decode_activations):
            result = self.run_decoder_iteration(
                activations, query_tokens=1,
                self_kv_tokens=step + 1, cross_kv_tokens=trace.input_length,
                timeline=timeline, iteration=step)
            iterations.append(result)
        decode_time = timeline.makespan - encoder_time
        # The carry only orders passes within this request; drop it so the
        # engine does not keep the request's whole timeline alive.
        self._carry = None

        return RequestResult(
            design=self.design, config_name=self.config.name,
            input_length=trace.input_length, output_length=trace.output_length,
            encoder_time=encoder_time, decode_time=decode_time,
            iterations=iterations, peak_gpu_bytes=self.placement.peak_gpu_bytes)

    def run_workload(self, traces: Sequence[RequestTrace]) -> WorkloadResult:
        """Serve a list of requests and aggregate the metrics.

        If the model cannot be loaded (GPU-only on a model larger than HBM)
        the result records the OOM instead of raising, mirroring how the
        paper reports the Switch-Large GPU-only column.
        """
        result = WorkloadResult(design=self.design, config_name=self.config.name)
        try:
            self.load_model()
        except OutOfMemoryError as exc:
            result.oom = True
            result.oom_reason = str(exc)
            return result
        transfers_before = self.placement.transfers.snapshot()
        for trace in traces:
            result.requests.append(self.run_request(trace))
        result.peak_gpu_bytes = self.placement.peak_gpu_bytes
        if self.offloads_experts:
            result.tier_stats = self.placement.transfers.since(transfers_before)
        return result


class GPUOnlyEngine(ServingEngine):
    """Oracular upper bound: the entire model resident in GPU memory."""

    design = "gpu_only"


class OnDemandEngine(ServingEngine):
    """MoE-OnDemand (HuggingFace-Accelerate-style fetch-on-demand offloading)."""

    design = "ondemand"


class PrefetchAllEngine(ServingEngine):
    """MoE-Prefetch (SE-MoE): prefetch every expert of the next block."""

    design = "prefetch_all"


class PreGatedEngine(ServingEngine):
    """The paper's Pre-gated MoE serving system."""

    design = "pregated"


_ENGINES = {
    "gpu_only": GPUOnlyEngine,
    "ondemand": OnDemandEngine,
    "prefetch_all": PrefetchAllEngine,
    "pregated": PreGatedEngine,
}

#: Display names used in reports, matching the paper's figure legends.
DESIGN_LABELS = {
    "gpu_only": "GPU-only",
    "pregated": "Pre-gated MoE",
    "ondemand": "MoE-OnDemand",
    "prefetch_all": "MoE-Prefetch",
}


def make_engine(design: str, config: "ModelConfig | str", system: SystemSpec = PAPER_SYSTEM,
                engine_config: Optional[EngineConfig] = None,
                cache_policy: Optional[str] = None,
                cache_capacity: Optional[int] = None,
                stage_policy: Optional[str] = None,
                stage_capacity: Optional[int] = None,
                num_gpus: Optional[int] = None,
                shard_policy: str = "contiguous",
                expert_weights: Optional[Sequence[float]] = None,
                interconnect: Optional[LinkSpec] = None) -> ServingEngine:
    """Factory for engines by design name.

    ``cache_policy``/``cache_capacity`` give the placement a GPU
    :class:`~repro.system.residency.ExpertResidency` map (Figure 15
    caching, the same map the scheduler caches through);
    ``stage_policy``/``stage_capacity`` enable the host-DRAM staging cache
    for SSD-offload systems (Figure 16's tier); ``num_gpus``/``shard_policy``
    shard the expert pool across an expert-parallel multi-GPU replica.
    """
    if design not in _ENGINES:
        raise ValueError(f"unknown design {design!r}; known: {sorted(_ENGINES)}")
    return _ENGINES[design](config, system=system,
                            engine_config=engine_config,
                            cache_policy=cache_policy,
                            cache_capacity=cache_capacity,
                            stage_policy=stage_policy,
                            stage_capacity=stage_capacity,
                            num_gpus=num_gpus,
                            shard_policy=shard_policy,
                            expert_weights=expert_weights,
                            interconnect=interconnect)


def compare_designs(config: "ModelConfig | str", traces: Sequence[RequestTrace],
                    designs: Sequence[str] = ("gpu_only", "pregated", "ondemand", "prefetch_all"),
                    system: SystemSpec = PAPER_SYSTEM,
                    engine_config: Optional[EngineConfig] = None) -> Dict[str, WorkloadResult]:
    """Run the same workload through several designs (one engine each)."""
    results: Dict[str, WorkloadResult] = {}
    for design in designs:
        engine = make_engine(design, config, system=system, engine_config=engine_config)
        results[design] = engine.run_workload(traces)
    return results
