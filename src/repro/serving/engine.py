"""Serving engine for the four MoE inference system designs.

The engine simulates serving of a (paper-scale) Switch-Transformer
configuration on a :class:`~repro.system.hardware.SystemSpec`, scheduling
each pass's ops on a multi-stream timeline
(:class:`~repro.system.timeline.ArrayTimeline` by default) to model the
interaction between GPU compute and CPU→GPU expert migration.  The
``design`` name selects the system:

* ``gpu_only`` — the oracular baseline: every parameter resident in GPU
  memory, no expert migration (OOMs when the model does not fit).
* ``ondemand`` — MoE-OnDemand: experts offloaded to host memory and fetched
  after each block's gate, serialising selection, migration and execution.
* ``prefetch_all`` — MoE-Prefetch (SE-MoE): the *entire* expert set of the
  next block is transferred while the current block executes.
* ``pregated`` — the paper's system: the pre-gate evaluated in block *N*
  identifies the activated experts of block *N+1*, so only those are
  transferred, overlapped with block *N*'s execution.

An engine is the one-request-at-a-time front end of the serving stack (the
paper's evaluation setting): a thin layer over a batch-1
:class:`~repro.serving.scheduler.ContinuousBatchingScheduler`, which owns
the placement, the residency map and the per-iteration simulator.  Each
pass is one round of the scheduler's
:meth:`~repro.serving.scheduler.ContinuousBatchingScheduler.run_round` with
a single unit, committed on the caller's timeline, with its per-block
latencies read back from the committed start/end times.

The engines consume expert-activation traces
(:class:`~repro.workloads.traces.RequestTrace`) and emit the same metrics
the paper's artifact reports: per-MoE-block latency, end-to-end throughput
in tokens/second and peak GPU memory usage.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Sequence

from ..moe.configs import ModelConfig
from ..system.hardware import PAPER_SYSTEM, LinkSpec, SystemSpec
from ..system.memory import MemoryHierarchy, MemoryPool, OutOfMemoryError
from ..system.performance import GpuLatencyModel
from ..system.timeline import ArrayTimeline
from ..workloads.traces import IterationActivations, RequestTrace
from .metrics import IterationResult, RequestResult, WorkloadResult
from .scheduler import ContinuousBatchingScheduler, EngineConfig, RoundUnit


class ServingEngine:
    """The request-lifecycle machinery shared by every design.

    ``design`` (a :data:`~repro.serving.scheduler.DESIGN_LABELS` key)
    selects the migration behaviour through
    :func:`repro.core.migration.plan_for_design`.
    """

    def __init__(self, design: str, config: "ModelConfig | str",
                 system: SystemSpec = PAPER_SYSTEM,
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
        self.scheduler = ContinuousBatchingScheduler(
            design, config, system=system, latency_model=latency_model,
            engine_config=engine_config, max_batch_size=1,
            cache_policy=cache_policy, cache_capacity=cache_capacity,
            stage_policy=stage_policy, stage_capacity=stage_capacity,
            num_gpus=num_gpus, shard_policy=shard_policy,
            expert_weights=expert_weights, interconnect=interconnect,
            round_replay=False)
        self.design = self.scheduler.design
        self.config = self.scheduler.config
        self.system = self.scheduler.system
        self.placement = self.scheduler.placement
        self.residency = self.scheduler.residency
        self.simulator = self.scheduler.simulator
        # Per timeline (held weakly, so a caller's timeline is not kept
        # alive), the op ids its next pass must wait for: the trailing
        # all-to-all combine on expert-parallel replicas.
        self._pending = weakref.WeakKeyDictionary()

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
    def _serve_unit(self, part: str, iteration: int,
                    activations: IterationActivations, tokens: tuple,
                    timeline: Optional[ArrayTimeline]) -> IterationResult:
        """Run one pass as a one-unit round on ``timeline`` (a fresh one if None)."""
        self.load_model()
        timeline = timeline if timeline is not None else ArrayTimeline()
        unit = RoundUnit(part, iteration, activations, tokens, 0.0, "",
                         self._pending.get(timeline, ()))
        start = timeline.makespan
        committed = self.scheduler.run_round(timeline, [unit],
                                             block_records=True)
        self._pending[timeline] = list(committed.passes[0].carry_deps)
        return IterationResult(part=part, iteration=iteration,
                               duration=timeline.makespan - start,
                               block_latencies=committed.blocks[0])

    def run_decoder_iteration(self, activations: IterationActivations,
                              query_tokens: int = 1, self_kv_tokens: int = 1,
                              cross_kv_tokens: int = 32,
                              timeline: Optional[ArrayTimeline] = None,
                              iteration: int = 0) -> IterationResult:
        """Simulate a single decoder iteration (all decoder layers, one token)."""
        return self._serve_unit(
            "decoder", iteration, activations,
            (query_tokens, self_kv_tokens, cross_kv_tokens), timeline)

    def run_encoder_pass(self, activations: IterationActivations, input_tokens: int,
                         timeline: Optional[ArrayTimeline] = None) -> IterationResult:
        """Simulate the encoder pass over ``input_tokens`` tokens."""
        return self._serve_unit("encoder", 0, activations, (input_tokens,),
                                timeline)

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
        if self.placement.offload_experts:
            result.tier_stats = self.placement.transfers.since(transfers_before)
        return result


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
    return ServingEngine(design, config, system=system,
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
