"""Multi-replica serving: a request router over N single-GPU replicas.

The paper's system is a single GPU; production traffic from millions of
users is served by fleets of identical replicas behind a router.  This
module simulates that layer: each replica is one
:class:`~repro.serving.scheduler.ContinuousBatchingScheduler` (its own
placement, memory pools and timeline), and the cluster assigns each arriving
request to a replica with one of two policies:

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

The replicas' simulations are independent, so :meth:`ReplicaCluster.serve`
can fan them out over a process pool (``max_workers``).  The replica
schedulers and the shared arrival stream travel to the workers as a
*one-time payload* — inherited for free when workers fork, shipped once
per worker through the pool initializer otherwise — and each work item is
just ``(replica_id, request indices, offered_load)``, so no placement or
trace data is re-pickled per replica.  Results are merged in replica-id
order, making the parallel run bit-identical to the serial one.  The
trade-off is that the parent process's scheduler objects are not mutated
in parallel mode — cache warmth and memory-pool peaks accumulated
*inside* a parallel ``serve`` stay in the workers — so serve sequentially
when chaining load tests that must share replica state.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from ..moe.configs import ModelConfig, get_config
from ..sweeps import fork_start_method, ordered_pool_map
from ..system.hardware import PAPER_SYSTEM, LinkSpec, SystemSpec
from ..workloads.arrivals import TimedRequest
from ..workloads.traces import RequestTrace
from .metrics import LoadTestResult, merge_load_results
from .scheduler import ContinuousBatchingScheduler, EngineConfig

ROUTING_POLICIES = ("round_robin", "least_loaded", "cache_aware")


#: One-time worker payload: ``(replica schedulers, shared request stream)``.
#: Set in the parent before pool creation (inherited by forked workers) and
#: re-set through the pool initializer where workers are spawned instead.
_WORKER_PAYLOAD: "Optional[Tuple[list, list]]" = None


def _set_worker_payload(payload) -> None:
    """Install the shared serve payload (pool initializer / parent set-up)."""
    global _WORKER_PAYLOAD
    _WORKER_PAYLOAD = payload


def _serve_replica(item) -> "Tuple[int, LoadTestResult]":
    """Serve one replica's assignment (module-level for process-pool pickling).

    The item carries only indices into the shared arrival stream; the
    schedulers and requests come from the one-time payload.
    """
    replica_id, indices, offered_load = item
    replicas, requests = _WORKER_PAYLOAD
    assigned = [requests[i] for i in indices]
    return replica_id, replicas[replica_id].serve(assigned,
                                                  offered_load=offered_load,
                                                  replica=replica_id)

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
                 span_log: bool = False,
                 max_workers: Optional[int] = None) -> None:
        if num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1 (or None for serial)")
        if policy not in ROUTING_POLICIES:
            raise ValueError(f"unknown policy {policy!r}; known: {ROUTING_POLICIES}")
        self.design = design
        self.config = get_config(config) if isinstance(config, str) else config
        self.policy = policy
        self.num_replicas = num_replicas
        self.system = system
        self.engine_config = engine_config
        self.max_batch_size = max_batch_size
        self.cache_policy = cache_policy
        self.cache_capacity = cache_capacity
        self.stage_policy = stage_policy
        self.stage_capacity = stage_capacity
        self.num_gpus = num_gpus
        self.shard_policy = shard_policy
        self.record_trace = record_trace
        self.round_replay = round_replay
        self.probe_interval = probe_interval
        self.span_log = span_log
        #: Process-pool width for :meth:`serve`; ``None``/1 serves the
        #: replicas sequentially in-process.
        self.max_workers = max_workers
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
              offered_load: Optional[float] = None,
              max_workers: Optional[int] = None) -> ClusterResult:
        """Route and serve all requests; replicas simulate independently.

        ``max_workers`` (defaulting to the constructor's value) > 1 serves
        the replicas on a process pool.  The schedulers and the request
        stream ship to the workers once (fork inheritance, or the pool
        initializer on spawn platforms) and each work item is only
        ``(replica_id, indices, offered_load)``.  Results are merged in
        replica-id order, so parallel and serial runs produce identical
        :class:`ClusterResult`\\ s; in parallel mode each worker operates
        on its own copy of the schedulers, so the parent's replica objects
        keep their pre-serve state (see the module docstring).
        """
        result = ClusterResult(design=self.design, config_name=self.config.name,
                               policy=self.policy, num_replicas=self.num_replicas)
        workers = max_workers if max_workers is not None else self.max_workers
        requests = list(requests)
        index_of = {id(request): i for i, request in enumerate(requests)}
        items = [(replica_id, [index_of[id(r)] for r in assigned], offered_load)
                 for replica_id, assigned in enumerate(self.route(requests))]
        payload = (self.replicas, requests)
        if fork_start_method():
            initializer, initargs = None, ()
        else:
            initializer, initargs = _set_worker_payload, (payload,)
        _set_worker_payload(payload)
        try:
            for _, replica_result in ordered_pool_map(
                    _serve_replica, items, workers,
                    initializer=initializer, initargs=initargs):
                result.replica_results.append(replica_result)
        finally:
            _set_worker_payload(None)
        return result
