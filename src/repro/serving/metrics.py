"""Result records and aggregate metrics for the serving simulator.

The quantities here cover both the paper's artifact outputs
(``block_lats.csv``, ``throughputs.csv``, ``peak_mems.csv``: per-MoE-block
latency, end-to-end inference throughput in tokens per second, peak GPU
memory usage) and the load-testing quantities production serving asks about:
time-to-first-token (TTFT), time-between-tokens (TBT), queueing delay and
their percentile aggregates under an arrival process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import mean
from typing import Dict, List, Optional, Sequence

from ..obs.probes import MetricsRegistry, merge_metrics
from ..obs.spans import RequestSpans
from ..system.residency import ResidencyStats
from ..system.tiers import TierTransferStats, merge_optional_stats, merge_tier_stats


@dataclass(frozen=True)
class BlockLatencyRecord:
    """Latency of one MoE block evaluation.

    ``latency`` measures from the moment the block's input is ready (the
    preceding non-MoE layer finished) until the block's expert execution
    completes, i.e. it includes any stall waiting for expert parameters to
    arrive in GPU memory.
    """

    part: str                # "encoder" or "decoder"
    iteration: int           # decoder iteration index (0 for the encoder pass)
    block_index: int         # MoE block index within the stack
    latency: float           # seconds
    num_active_experts: int
    exposed_transfer_time: float = 0.0


@dataclass
class IterationResult:
    """One forward pass (encoder pass or one decoder iteration)."""

    part: str
    iteration: int
    duration: float
    block_latencies: List[BlockLatencyRecord] = field(default_factory=list)

    @property
    def mean_block_latency(self) -> float:
        if not self.block_latencies:
            return 0.0
        return mean(record.latency for record in self.block_latencies)


@dataclass
class RequestResult:
    """End-to-end result of serving one request."""

    design: str
    config_name: str
    input_length: int
    output_length: int
    encoder_time: float
    decode_time: float
    iterations: List[IterationResult] = field(default_factory=list)
    peak_gpu_bytes: int = 0

    @property
    def total_time(self) -> float:
        return self.encoder_time + self.decode_time

    @property
    def tokens_per_second(self) -> float:
        """End-to-end inference throughput: generated tokens per second."""
        if self.total_time <= 0:
            return 0.0
        return self.output_length / self.total_time

    @property
    def decode_tokens_per_second(self) -> float:
        """Throughput counting only the decode phase."""
        if self.decode_time <= 0:
            return 0.0
        return self.output_length / self.decode_time

    def block_latencies(self, part: Optional[str] = None) -> List[BlockLatencyRecord]:
        records = [r for it in self.iterations for r in it.block_latencies]
        if part is not None:
            records = [r for r in records if r.part == part]
        return records

    def mean_block_latency(self, part: Optional[str] = "decoder") -> float:
        records = self.block_latencies(part)
        if not records:
            return 0.0
        return mean(r.latency for r in records)


@dataclass
class WorkloadResult:
    """Aggregate over a list of requests served by one engine."""

    design: str
    config_name: str
    requests: List[RequestResult] = field(default_factory=list)
    peak_gpu_bytes: int = 0
    tier_stats: Optional[TierTransferStats] = None
    oom: bool = False
    oom_reason: str = ""

    @property
    def num_requests(self) -> int:
        return len(self.requests)

    @property
    def mean_tokens_per_second(self) -> float:
        if not self.requests:
            return 0.0
        return mean(r.tokens_per_second for r in self.requests)

    @property
    def mean_decode_tokens_per_second(self) -> float:
        if not self.requests:
            return 0.0
        return mean(r.decode_tokens_per_second for r in self.requests)

    @property
    def mean_block_latency(self) -> float:
        records = [r for req in self.requests for r in req.block_latencies("decoder")]
        if not records:
            return 0.0
        return mean(r.latency for r in records)

    @property
    def total_generated_tokens(self) -> int:
        return sum(r.output_length for r in self.requests)

    @property
    def total_time(self) -> float:
        return sum(r.total_time for r in self.requests)

    @property
    def aggregate_tokens_per_second(self) -> float:
        """Total generated tokens divided by total serving time."""
        total = self.total_time
        return self.total_generated_tokens / total if total > 0 else 0.0

    def summary(self) -> Dict[str, float]:
        return {
            "design": self.design,
            "config": self.config_name,
            "oom": self.oom,
            "mean_block_latency_ms": self.mean_block_latency * 1e3,
            "tokens_per_second": self.aggregate_tokens_per_second,
            "peak_gpu_gb": self.peak_gpu_bytes / 1e9,
        }


# ----------------------------------------------------------------------
# Load-testing metrics (continuous batching / multi-replica serving)
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile of ``values`` (linear interpolation).

    ``p`` is given in percent (50 = median).  Raises on an empty sequence —
    callers decide how to report "no data".
    """
    if not values:
        raise ValueError("cannot take a percentile of no values")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100.0) * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


@dataclass(frozen=True)
class LatencyStats:
    """Percentile summary of one latency distribution (seconds)."""

    count: int
    mean: float
    p50: float
    p90: float
    p99: float
    max: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "LatencyStats":
        if not values:
            return cls(count=0, mean=0.0, p50=0.0, p90=0.0, p99=0.0, max=0.0)
        return cls(count=len(values), mean=mean(values),
                   p50=percentile(values, 50), p90=percentile(values, 90),
                   p99=percentile(values, 99), max=max(values))

    def as_dict(self, scale: float = 1.0) -> Dict[str, float]:
        return {"count": self.count, "mean": self.mean * scale,
                "p50": self.p50 * scale, "p90": self.p90 * scale,
                "p99": self.p99 * scale, "max": self.max * scale}


@dataclass
class ServedRequestResult:
    """Lifecycle timestamps of one request served under load.

    All times are absolute simulation times (seconds); the arrival time is
    when the request entered the system, so every latency property is
    arrival-relative — exactly what an open-loop load generator measures.
    """

    request_id: int
    design: str
    config_name: str
    input_length: int
    output_length: int
    arrival_time: float
    first_scheduled_time: float     # start of the request's first op
    first_token_time: float         # completion of the first generated token
    completion_time: float          # completion of the last generated token
    token_times: List[float] = field(default_factory=list)
    replica: int = 0

    @property
    def queueing_delay(self) -> float:
        """Time spent waiting before any of the request's work ran."""
        return self.first_scheduled_time - self.arrival_time

    @property
    def ttft(self) -> float:
        """Time to first token, measured from arrival."""
        return self.first_token_time - self.arrival_time

    @property
    def e2e_latency(self) -> float:
        """Arrival-to-completion latency."""
        return self.completion_time - self.arrival_time

    @property
    def time_between_tokens(self) -> List[float]:
        """Gaps between consecutive generated tokens (empty for 1-token outputs)."""
        return [b - a for a, b in zip(self.token_times, self.token_times[1:])]


@dataclass
class LoadTestResult:
    """Aggregate of one load test: many requests through one scheduler.

    ``offered_load`` records the arrival rate of the open-loop generator in
    requests/second (``None`` for closed-loop runs).  ``makespan`` is the
    completion time of the last request, so ``sustained_tokens_per_second``
    is a *wall-clock* throughput — queueing and idle time included — unlike
    :attr:`WorkloadResult.aggregate_tokens_per_second` which sums isolated
    per-request times.

    ``expert_bytes_transferred`` counts the CPU→GPU expert migration volume
    the run actually issued (one entry per copy op on the timeline);
    ``cache_stats`` carries the shared residency map's counters when expert
    caching was enabled (``None`` otherwise); ``tier_stats`` carries the
    per-tier transfer ledger (bytes per link, DRAM-stage hits) whenever the
    design offloads experts.

    Expert-parallel replicas additionally report ``num_gpus`` (``None`` after
    merging a fleet with mixed per-replica GPU counts), per-device compute
    ``device_utilisation``, ``alltoall_bytes`` of interconnect token traffic
    and the ``shard_imbalance`` of fetched bytes across devices
    (max-over-mean; ``None`` for single-GPU replicas).
    """

    design: str
    config_name: str
    offered_load: Optional[float] = None
    num_replicas: int = 1
    requests: List[ServedRequestResult] = field(default_factory=list)
    makespan: float = 0.0
    peak_gpu_bytes: int = 0
    expert_bytes_transferred: int = 0
    cache_stats: Optional[ResidencyStats] = None
    tier_stats: Optional[TierTransferStats] = None
    num_gpus: Optional[int] = 1
    device_utilisation: List[float] = field(default_factory=list)
    alltoall_bytes: int = 0
    shard_imbalance: Optional[float] = None
    #: Simulator-side telemetry: ops ever scheduled on the timeline and the
    #: high-water mark of ops resident in memory (== total in trace mode;
    #: O(active window) with op retirement).  Summed across a merged fleet.
    timeline_total_ops: int = 0
    timeline_peak_live_ops: int = 0
    #: Round-replay telemetry: how many steady-state windows were
    #: fast-forwarded analytically, how many scheduling rounds they covered,
    #: and how many per-op schedulings were thereby skipped.  All zero when
    #: replay is disabled or never fired; summed across a merged fleet.
    replay_windows: int = 0
    replay_rounds: int = 0
    replay_ops: int = 0
    #: Planned replay windows that stood down, by reason (see
    #: ``_RoundReplay.STANDDOWN_REASONS`` in :mod:`repro.serving.scheduler`);
    #: empty when replay is disabled; summed per reason across a fleet.
    replay_standdowns: Dict[str, int] = field(default_factory=dict)
    #: Sampled time-series probes (queue depth, utilisation, residency …)
    #: when the scheduler served with ``probe_interval`` set; ``None``
    #: otherwise.  Merged across replicas by
    #: :func:`repro.obs.probes.merge_metrics`.
    probes: Optional[MetricsRegistry] = None
    #: Per-request span trees when the scheduler served with ``span_log``;
    #: ``None`` otherwise.  Pooled (sorted by request id) across a fleet.
    spans: Optional[List[RequestSpans]] = None
    oom: bool = False
    oom_reason: str = ""

    @property
    def num_requests(self) -> int:
        return len(self.requests)

    @property
    def total_generated_tokens(self) -> int:
        return sum(r.output_length for r in self.requests)

    @property
    def sustained_tokens_per_second(self) -> float:
        """Generated tokens per wall-clock second over the whole test."""
        if self.makespan <= 0:
            return 0.0
        return self.total_generated_tokens / self.makespan

    @property
    def completed_requests_per_second(self) -> float:
        if self.makespan <= 0:
            return 0.0
        return self.num_requests / self.makespan

    @property
    def ttft_stats(self) -> LatencyStats:
        return LatencyStats.from_values([r.ttft for r in self.requests])

    @property
    def tbt_stats(self) -> LatencyStats:
        gaps = [g for r in self.requests for g in r.time_between_tokens]
        return LatencyStats.from_values(gaps)

    @property
    def queueing_stats(self) -> LatencyStats:
        return LatencyStats.from_values([r.queueing_delay for r in self.requests])

    @property
    def e2e_stats(self) -> LatencyStats:
        return LatencyStats.from_values([r.e2e_latency for r in self.requests])

    @property
    def cache_hit_rate(self) -> Optional[float]:
        return self.cache_stats.hit_rate if self.cache_stats is not None else None

    @property
    def expert_bytes_saved(self) -> int:
        return self.cache_stats.bytes_saved if self.cache_stats is not None else 0

    @property
    def stage_hit_rate(self) -> Optional[float]:
        """DRAM staging-cache hit rate; ``None`` without a stage."""
        if self.tier_stats is None or self.tier_stats.stage_accesses == 0:
            return None
        return self.tier_stats.stage_hit_rate

    @property
    def ssd_bytes_read(self) -> int:
        """Bytes read off the SSD tier (0 for DRAM offload / GPU-only)."""
        return self.tier_stats.ssd_bytes_read if self.tier_stats is not None else 0

    @property
    def probe_samples(self) -> Optional[int]:
        """Samples taken by the widest probe gauge; ``None`` without probes."""
        if self.probes is None or not self.probes.gauges:
            return None
        return max(len(g) for g in self.probes.gauges.values())

    @property
    def max_queue_depth(self) -> Optional[float]:
        """Peak sampled queue depth; ``None`` without probes."""
        if self.probes is None:
            return None
        gauge = self.probes.gauges.get("queue_depth")
        return gauge.max_value if gauge is not None else None

    def summary(self) -> Dict[str, object]:
        ttft = self.ttft_stats
        tbt = self.tbt_stats
        return {
            "design": self.design,
            "config": self.config_name,
            "replicas": self.num_replicas,
            "offered_load_rps": self.offered_load,
            "requests": self.num_requests,
            "oom": self.oom,
            "sustained_tokens_per_second": self.sustained_tokens_per_second,
            "p50_ttft_ms": ttft.p50 * 1e3,
            "p99_ttft_ms": ttft.p99 * 1e3,
            "p50_tbt_ms": tbt.p50 * 1e3,
            "p99_tbt_ms": tbt.p99 * 1e3,
            "mean_queueing_ms": self.queueing_stats.mean * 1e3,
            "peak_gpu_gb": self.peak_gpu_bytes / 1e9,
            "cache_hit_rate": self.cache_hit_rate,
            "cache_evictions": (self.cache_stats.evictions
                                if self.cache_stats is not None else None),
            "gb_transferred": self.expert_bytes_transferred / 1e9,
            "gb_saved": self.expert_bytes_saved / 1e9,
            "offload_tier": (self.tier_stats.source_tier
                             if self.tier_stats is not None else None),
            "ssd_gb_read": (self.tier_stats.ssd_bytes_read / 1e9
                            if self.tier_stats is not None else None),
            "stage_hit_rate": self.stage_hit_rate,
            "num_gpus": self.num_gpus if self.num_gpus is not None else "mixed",
            "device_util": ("|".join(f"{u:.2f}" for u in self.device_utilisation)
                            if self.device_utilisation else None),
            # A single-GPU replica has no interconnect: dash the cell out
            # like the other expert-parallel columns (mixed fleets keep the
            # pooled value).
            "alltoall_mb": (self.alltoall_bytes / 1e6
                            if self.num_gpus != 1 else None),
            "shard_imbalance": self.shard_imbalance,
            "replay_windows": self.replay_windows,
            "replay_rounds": self.replay_rounds,
            "replay_ops": self.replay_ops,
            "replay_standdowns": dict(self.replay_standdowns),
            "probe_samples": self.probe_samples,
            "max_queue_depth": self.max_queue_depth,
        }


def merge_cache_stats(stats: Sequence[Optional[ResidencyStats]]) -> Optional[ResidencyStats]:
    """Pool per-replica residency stats, tolerating replicas without any.

    A fleet may mix cached and cache-free replicas (capacity ``None`` gives
    no stats object at all; capacity 0 gives a stats object whose counters
    only reflect refcounted sharing).  Replicas without stats contribute
    nothing; the merge is ``None`` only when *no* replica had a cache.
    """
    return merge_optional_stats(stats)


def merge_load_results(results: Sequence[LoadTestResult],
                       num_replicas: Optional[int] = None) -> LoadTestResult:
    """Combine per-replica load results into one cluster-level result.

    Requests are pooled; the makespan is the slowest replica's (replicas run
    concurrently); the peak is summed because each replica owns its GPUs.
    ``cache_stats`` and ``tier_stats`` are pooled over the replicas that
    have them — a mixed fleet (cached next to cache-free, or offloading
    next to GPU-only) merges cleanly instead of assuming every replica
    carries stats.  A fleet mixing per-replica GPU counts merges with
    ``num_gpus=None`` (rendered "mixed") and drops the per-device
    utilisation breakdown, since device indices no longer line up; a
    homogeneous fleet averages utilisation per device index.
    """
    if not results:
        raise ValueError("no results to merge")
    first = results[0]
    gpu_counts = {r.num_gpus for r in results}
    homogeneous = len(gpu_counts) == 1
    device_util: List[float] = []
    if homogeneous:
        per_replica = [r.device_utilisation for r in results if r.device_utilisation]
        if per_replica and all(len(u) == len(per_replica[0]) for u in per_replica):
            device_util = [sum(us) / len(per_replica)
                           for us in zip(*per_replica)]
    imbalances = [r.shard_imbalance for r in results if r.shard_imbalance is not None]
    standdowns: Dict[str, int] = {}
    for result in results:
        for reason, count in result.replay_standdowns.items():
            standdowns[reason] = standdowns.get(reason, 0) + count
    merged = LoadTestResult(
        design=first.design, config_name=first.config_name,
        offered_load=first.offered_load,
        num_replicas=num_replicas if num_replicas is not None else len(results),
        makespan=max(r.makespan for r in results),
        peak_gpu_bytes=sum(r.peak_gpu_bytes for r in results),
        expert_bytes_transferred=sum(r.expert_bytes_transferred for r in results),
        cache_stats=merge_cache_stats([r.cache_stats for r in results]),
        tier_stats=merge_tier_stats([r.tier_stats for r in results]),
        num_gpus=first.num_gpus if homogeneous else None,
        device_utilisation=device_util,
        alltoall_bytes=sum(r.alltoall_bytes for r in results),
        shard_imbalance=max(imbalances) if imbalances else None,
        timeline_total_ops=sum(r.timeline_total_ops for r in results),
        timeline_peak_live_ops=sum(r.timeline_peak_live_ops for r in results),
        replay_windows=sum(r.replay_windows for r in results),
        replay_rounds=sum(r.replay_rounds for r in results),
        replay_ops=sum(r.replay_ops for r in results),
        replay_standdowns=standdowns,
        probes=merge_metrics([r.probes for r in results]),
        oom=any(r.oom for r in results),
        oom_reason="; ".join(r.oom_reason for r in results if r.oom_reason),
    )
    span_lists = [r.spans for r in results if r.spans is not None]
    if span_lists:
        merged.spans = sorted((tree for trees in span_lists for tree in trees),
                              key=lambda tree: tree.request_id)
    for result in results:
        merged.requests.extend(result.requests)
    merged.requests.sort(key=lambda r: (r.arrival_time, r.request_id))
    return merged


def normalise(values: Dict[str, float], reference: str) -> Dict[str, float]:
    """Normalise a metric dictionary to one of its keys (paper-style plots)."""
    if reference not in values:
        raise KeyError(f"reference {reference!r} not in {sorted(values)}")
    ref = values[reference]
    if ref == 0:
        raise ZeroDivisionError("reference value is zero")
    return {k: v / ref for k, v in values.items()}
