"""Serving layer: engines, continuous-batching scheduler and replica cluster.

Three-layer architecture:

* :mod:`~repro.serving.placement` — model-placement (parameter storage and
  GPU expert-slot accounting);
* :mod:`~repro.serving.simulator` — per-iteration simulation of one stack
  pass on a shared execution timeline;
* request lifecycle — :mod:`~repro.serving.scheduler` for continuous
  batching under an arrival process (the one round loop),
  :mod:`~repro.serving.engine` for one-request-at-a-time serving of the four
  designs as a batch-1 front end over it, and
  :mod:`~repro.serving.cluster` for multi-replica routing.
"""

from .cluster import ClusterResult, ReplicaCluster, ROUTING_POLICIES
from .engine import (
    ServingEngine,
    compare_designs,
    make_engine,
)
from .metrics import (
    BlockLatencyRecord,
    IterationResult,
    LatencyStats,
    LoadTestResult,
    RequestResult,
    ServedRequestResult,
    WorkloadResult,
    merge_load_results,
    normalise,
    percentile,
)
from .placement import (
    SHARD_POLICIES,
    DeviceShard,
    ModelPlacement,
    ShardAssignment,
    ShardedPlacement,
    ShardedResidency,
)
from .prefetch import CrossRequestPrefetcher, PrefetchRound
from .scheduler import (
    DESIGN_LABELS,
    ContinuousBatchingScheduler,
    EngineConfig,
    make_scheduler,
    serve_load,
)
from .simulator import IterationSimulator, SharedExpertRound

__all__ = [
    "DESIGN_LABELS",
    "EngineConfig",
    "ServingEngine",
    "compare_designs",
    "make_engine",
    "ModelPlacement",
    "ShardedPlacement",
    "ShardAssignment",
    "ShardedResidency",
    "DeviceShard",
    "SHARD_POLICIES",
    "IterationSimulator",
    "SharedExpertRound",
    "CrossRequestPrefetcher",
    "PrefetchRound",
    "ContinuousBatchingScheduler",
    "make_scheduler",
    "serve_load",
    "ReplicaCluster",
    "ClusterResult",
    "ROUTING_POLICIES",
    "BlockLatencyRecord",
    "IterationResult",
    "RequestResult",
    "WorkloadResult",
    "LatencyStats",
    "LoadTestResult",
    "ServedRequestResult",
    "merge_load_results",
    "normalise",
    "percentile",
]
