"""Multi-replica serving: a request router over N single-GPU replicas.

The paper's system is a single GPU; production traffic from millions of
users is served by fleets of identical replicas behind a router.  This
module simulates that layer: each replica is one
:class:`~repro.serving.scheduler.ContinuousBatchingScheduler` (its own
placement, memory pools and timeline), and the cluster assigns each arriving
request to a replica with one of three policies:

* ``round_robin`` — rotate through replicas in request-id order;
* ``least_loaded`` — assign to the replica with the smallest estimated
  backlog at the request's arrival time, where backlog is tracked as a
  virtual finish time fed by a per-request work estimate (input + output
  tokens × an estimated per-token service time).  This is the router-side
  approximation a real load balancer makes from queue-depth telemetry; it
  has no access to the replicas' actual simulated timelines.
* ``cache_aware`` — when per-replica expert caches are enabled, prefer the
  replica whose cache is most likely to already hold the request's experts:
  the router keeps a bounded per-replica window of recently routed expert
  keys (the affinity estimate a real balancer builds from pre-gate
  telemetry) and scores each replica by overlap with the request's
  activation profile.  Affinity may override the backlog by at most one
  request's worth of estimated work — replicas further behind are excluded
  before scoring — so a hot expert set cannot herd all traffic onto one
  replica.

Replicas run concurrently, so cluster throughput divides total generated
tokens by the slowest replica's makespan.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from ..moe.configs import ModelConfig, get_config
from ..system.hardware import PAPER_SYSTEM, LinkSpec, SystemSpec
from ..workloads.arrivals import TimedRequest
from ..workloads.traces import RequestTrace
from .metrics import LoadTestResult, merge_load_results
from .scheduler import ContinuousBatchingScheduler, EngineConfig

ROUTING_POLICIES = ("round_robin", "least_loaded", "cache_aware")


#: Router-side affinity window when no cache capacity is configured.
DEFAULT_AFFINITY_WINDOW = 256


@dataclass
class ClusterResult:
    """Per-replica load results plus the cluster-level aggregate."""

    design: str
    config_name: str
    policy: str
    num_replicas: int
    replica_results: List[LoadTestResult] = field(default_factory=list)

    def combined(self) -> LoadTestResult:
        """Cluster-level metrics: pooled requests, slowest-replica makespan."""
        return merge_load_results(self.replica_results, num_replicas=self.num_replicas)

    def summary(self) -> dict:
        summary = self.combined().summary()
        summary["policy"] = self.policy
        return summary


class ReplicaCluster:
    """N identical single-GPU replicas behind a request router."""

    def __init__(self, design: str, config: "ModelConfig | str",
                 num_replicas: int = 2, policy: str = "round_robin",
                 system: SystemSpec = PAPER_SYSTEM,
                 engine_config: Optional[EngineConfig] = None,
                 max_batch_size: int = 8,
                 cache_policy: Optional[str] = None,
                 cache_capacity: Optional[int] = None,
                 stage_policy: Optional[str] = None,
                 stage_capacity: Optional[int] = None,
                 num_gpus: Optional[int] = None,
                 shard_policy: str = "contiguous",
                 expert_weights: Optional[Sequence[float]] = None,
                 interconnect: Optional[LinkSpec] = None,
                 record_trace: bool = False,
                 round_replay: bool = True,
                 probe_interval: Optional[float] = None,
                 span_log: bool = False) -> None:
        if num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        if policy not in ROUTING_POLICIES:
            raise ValueError(f"unknown policy {policy!r}; known: {ROUTING_POLICIES}")
        self.design = design
        self.config = get_config(config) if isinstance(config, str) else config
        self.policy = policy
        self.num_replicas = num_replicas
        self.replicas = [
            ContinuousBatchingScheduler(design, self.config, system=system,
                                        engine_config=engine_config,
                                        max_batch_size=max_batch_size,
                                        cache_policy=cache_policy,
                                        cache_capacity=cache_capacity,
                                        stage_policy=stage_policy,
                                        stage_capacity=stage_capacity,
                                        num_gpus=num_gpus,
                                        shard_policy=shard_policy,
                                        expert_weights=expert_weights,
                                        interconnect=interconnect,
                                        record_trace=record_trace,
                                        round_replay=round_replay,
                                        probe_interval=probe_interval,
                                        span_log=span_log)
            for _ in range(num_replicas)
        ]
        self._affinity_window = (cache_capacity if cache_capacity
                                 else DEFAULT_AFFINITY_WINDOW)
        # Rough per-token service time for the router's backlog estimate:
        # all decoder layers' non-MoE time plus each MoE block's expert
        # execution (migration stalls are design-dependent and not modelled
        # here — the router only sees relative work, not the timeline).
        latency = self.replicas[0].latency
        per_layer = latency.decoder_layer_nonmoe_time(self.config, 1, 1, 1)
        expert_time = 0.0
        if self.config.is_moe:
            expert_time = (self.config.num_moe_blocks("decoder")
                           * latency.expert_execution_time(self.config, 1,
                                                           self.config.top_k))
        self._est_token_time = (self.config.num_decoder_layers * per_layer
                                + expert_time)

    # ------------------------------------------------------------------
    def request_expert_keys(self, trace: RequestTrace) -> Set[Tuple[int, int]]:
        """Global expert keys a request activates (the router's affinity signal).

        Uses the same ``(global_moe_block, expert_id)`` keying as the
        placement layer.  A real balancer would build this from pre-gate
        telemetry as tokens decode; the simulation reads it off the trace,
        which is the idealised (fully informed) version of that signal.
        """
        keys: Set[Tuple[int, int]] = set()
        num_encoder_blocks = self.config.num_moe_blocks("encoder")
        for block, experts in enumerate(trace.encoder_activations):
            keys.update((block, int(e)) for e in experts)
        for activations in trace.decode_activations:
            for block, experts in enumerate(activations):
                keys.update((num_encoder_blocks + block, int(e)) for e in experts)
        return keys

    def route(self, requests: Sequence[TimedRequest]) -> List[List[TimedRequest]]:
        """Assign each request to a replica; returns per-replica request lists."""
        assignments: List[List[TimedRequest]] = [[] for _ in range(self.num_replicas)]
        ordered = sorted(requests, key=lambda r: (r.arrival_time, r.request_id))
        if self.policy == "round_robin":
            for i, request in enumerate(ordered):
                assignments[i % self.num_replicas].append(request)
            return assignments
        # least_loaded / cache_aware: virtual-finish-time backlog estimate,
        # optionally biased by router-side cache-affinity tracking.
        backlog = [0.0] * self.num_replicas
        seen: List["OrderedDict[Tuple[int, int], None]"] = [
            OrderedDict() for _ in range(self.num_replicas)]
        for request in ordered:
            loads = [max(0.0, b - request.arrival_time) for b in backlog]
            work = (request.input_length + request.output_length) * self._est_token_time
            if self.policy == "cache_aware":
                keys = self.request_expert_keys(request.trace)
                # Affinity may override backlog by at most one request of work.
                eligible = [i for i in range(self.num_replicas)
                            if loads[i] <= min(loads) + work]
                target = max(eligible,
                             key=lambda i: (sum(1 for k in keys if k in seen[i]),
                                            -loads[i]))
                for key in keys:
                    seen[target][key] = None
                    seen[target].move_to_end(key)
                while len(seen[target]) > self._affinity_window:
                    seen[target].popitem(last=False)
            else:
                target = loads.index(min(loads))
            backlog[target] = max(backlog[target], request.arrival_time) + work
            assignments[target].append(request)
        return assignments

    def serve(self, requests: Sequence[TimedRequest],
              offered_load: Optional[float] = None) -> ClusterResult:
        """Route and serve all requests; replicas simulate independently.

        Each replica serves its assignment in replica-id order, so the
        replicas' caches and memory-pool peaks carry over to the next
        ``serve`` on the same cluster.
        """
        result = ClusterResult(design=self.design, config_name=self.config.name,
                               policy=self.policy, num_replicas=self.num_replicas)
        for replica_id, assigned in enumerate(self.route(requests)):
            result.replica_results.append(self.replicas[replica_id].serve(
                assigned, offered_load=offered_load, replica=replica_id))
        return result
