"""Simulator self-performance benchmark (the perf trajectory seed).

Where every other benchmark measures the *simulated* systems, this one
measures the simulator: how many simulated requests per wall-clock second
the continuous-batching scheduler sustains at growing request counts, and
how many timeline ops stay resident while it runs.  Four serving modes are
compared on one decode-heavy scenario (the paper's per-request batch-size-1
serving mode, long generations); every mode runs the columnar timeline
kernel (:class:`~repro.system.timeline.ArrayTimeline`), each round emitted
as one op batch and committed in a single kernel call:

* ``trace`` — the Figure 9 mode: the kernel with ``record_trace=True``,
  every op kept for rendering/export (memory O(total ops));
* ``kernel`` — incremental aggregates only, ops retired round by round
  (memory O(active window));
* ``kernel_replay`` — the kernel plus steady-state round replay
  (:class:`~repro.serving.scheduler._RoundReplay`): structurally identical
  decode rounds are fast-forwarded in closed form instead of re-simulated;
* ``kernel_probed`` — ``kernel`` with the sampled observability probes
  (:class:`~repro.obs.probes.ServingProbes`) enabled, pinning the probe
  layer's overhead against the kernel's throughput floor.

All the modes simulate the *same* execution: trace/kernel/probed are
bit-identical, and replay matches them to 1e-9 on every load metric (the
parity tests pin both).  The benchmark records throughput and peak-resident
ops for each mode into ``BENCH_simperf.json`` so regressions in either
dimension show up in review.

Requests are timed from one pre-generated trace pool (tiled for the larger
counts) so every mode serves the identical workload and the wall clock
measures the serving loop, not the trace generator.
"""

from __future__ import annotations

import json
import platform
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..moe.configs import get_config
from ..serving.scheduler import ContinuousBatchingScheduler
from ..workloads.arrivals import TimedRequest
from ..workloads.traces import TraceGenerator

#: The measurement scenario: pregated Switch-Base-128 serving one request
#: at a time (the paper's systems are optimised for per-request batch size
#: 1) with decode-heavy generations — the regime a million-request
#: simulation lives in, and the one where steady-state rounds dominate.
DEFAULT_CONFIG = "switch_base_128"
DEFAULT_DESIGN = "pregated"
INPUT_LENGTH = 8
OUTPUT_LENGTH = 96
MAX_BATCH_SIZE = 1
REQUEST_RATE = 8.0
ROUTING_SKEW = 1.2
SEED = 0

#: Unique traces generated per run; larger request counts tile the pool
#: (every request is still fully simulated — only generation is shared).
TRACE_POOL = 400

#: Request counts of the recorded scaling sweep.  The trace mode only runs
#: at the smallest count (it keeps every op in memory); the replay-off
#: modes stop at 16k (they are the slow baselines replay is measured
#: against); the kernel + replay engine runs the full ladder up to the
#: million-request rung.
FULL_SIZES: Dict[int, Sequence[str]] = {
    1_600: ("trace", "kernel", "kernel_replay"),
    16_000: ("kernel", "kernel_probed", "kernel_replay"),
    100_000: ("kernel_replay",),
    1_000_000: ("kernel_replay",),
}
DEFAULT_REQUESTS = 400
QUICK_REQUESTS = 120

#: Placement rung: kernel vs kernel+replay on multi-GPU shards.  Replay
#: needs the owner-device pattern to repeat, so the rung routes with a
#: strongly skewed (hot-expert) distribution and longer generations.
#: Replay stands down on expert caches and DRAM stages, so no cached
#: placement has a rung.
PLACEMENT_SKEW = 12.0
PLACEMENT_OUTPUT_LENGTH = 192
PLACEMENTS: Dict[str, Dict[str, object]] = {
    "multi_gpu_hot": {"num_gpus": 2, "shard_policy": "round_robin"},
}
PLACEMENT_REQUESTS_FULL = 400
PLACEMENT_REQUESTS_DEFAULT = 200
PLACEMENT_REQUESTS_QUICK = 80

#: Serving-mode knobs, keyed by mode name.
MODES: Dict[str, Dict[str, object]] = {
    "trace": {"round_replay": False, "record_trace": True},
    "kernel": {"round_replay": False, "record_trace": False},
    "kernel_replay": {"round_replay": True, "record_trace": False},
    # kernel with the sampled probe layer on — measured so the
    # observability overhead is pinned against the kernel's floor.
    "kernel_probed": {"round_replay": False, "record_trace": False,
                      "probe_interval": 1.0},
}

#: CI floors: a quick run's throughput below these fails the perf smoke
#: job (values are ~0.25x the measurements on the recording machine, so
#: honest slowdowns trip them but CI-runner jitter does not).  The probed
#: mode is held to the kernel floor.
KERNEL_FLOOR_REQ_PER_S = 8.0
KERNEL_REPLAY_FLOOR_REQ_PER_S = 80.0

#: Canonical artifact filename (committed at the repo root; the CLI writes
#: it to the current directory, the benchmark anchors it to the repo root).
SIMPERF_FILENAME = "BENCH_simperf.json"


def build_requests(num_requests: int,
                   pool_size: int = TRACE_POOL,
                   skew: float = ROUTING_SKEW,
                   output_length: int = OUTPUT_LENGTH) -> List[TimedRequest]:
    """The scenario's request stream, from a tiled pre-generated pool.

    Poisson arrivals at :data:`REQUEST_RATE` (seeded, vectorised); traces
    come from a pool of ``min(pool_size, num_requests)`` unique generations
    reused round-robin, so building a 100k-request stream costs seconds,
    not the minutes a fresh 100k-trace generation would.
    """
    pool = TraceGenerator(get_config(DEFAULT_CONFIG), skew=skew,
                          seed=SEED).workload(
        min(pool_size, num_requests), input_length=INPUT_LENGTH,
        output_length=output_length)
    gaps = np.random.default_rng(SEED).exponential(
        1.0 / REQUEST_RATE, size=num_requests)
    arrivals = np.cumsum(gaps)
    return [TimedRequest(request_id=i, arrival_time=float(arrivals[i]),
                         trace=pool[i % len(pool)])
            for i in range(num_requests)]


def measure_mode(mode: str, requests: Sequence[TimedRequest],
                 config: str = DEFAULT_CONFIG,
                 design: str = DEFAULT_DESIGN,
                 **scheduler_kwargs: object) -> Dict[str, float]:
    """Serve the request stream in one mode; report the simulator's cost.

    Only :meth:`~repro.serving.scheduler.ContinuousBatchingScheduler.serve`
    is inside the timed region — scheduler construction and request
    generation are shared setup, identical across modes.
    ``scheduler_kwargs`` layers placement knobs (shards) on top of
    the mode's engine knobs for the placement rungs.
    """
    knobs = MODES[mode]
    scheduler = ContinuousBatchingScheduler(
        design, config, max_batch_size=MAX_BATCH_SIZE, **knobs,
        **scheduler_kwargs)
    num_requests = len(requests)
    started = time.perf_counter()
    result = scheduler.serve(requests, offered_load=REQUEST_RATE)
    wall = time.perf_counter() - started
    tokens = sum(req.trace.output_length for req in requests)
    return {
        "mode": mode,
        "wall_seconds": wall,
        "simulated_requests_per_second": num_requests / wall if wall > 0 else 0.0,
        "simulated_tokens_per_second": tokens / wall if wall > 0 else 0.0,
        "simulated_seconds_per_wall_second": result.makespan / wall if wall > 0 else 0.0,
        "total_ops": result.timeline_total_ops,
        "peak_resident_ops": result.timeline_peak_live_ops,
        "makespan_seconds": result.makespan,
        "sustained_tokens_per_second": result.sustained_tokens_per_second,
        "mean_e2e_latency_seconds": result.e2e_stats.mean,
        "replay_windows": result.replay_windows,
        "replay_rounds": result.replay_rounds,
        "replay_ops": result.replay_ops,
    }


def run_simperf(quick: bool = False, full: bool = False,
                num_requests: Optional[int] = None) -> Dict[str, object]:
    """Measure the serving modes; returns the ``BENCH_simperf.json`` payload.

    ``quick`` serves :data:`QUICK_REQUESTS` requests through the kernel,
    kernel+probes and kernel+replay modes (the CI smoke shape); the default
    serves :data:`DEFAULT_REQUESTS` through all four; ``full`` runs the recorded
    1.6k/16k/100k/1M scaling ladder of :data:`FULL_SIZES` (minutes of wall
    time — the artifact-regeneration path, not a CI job).  Every shape also
    runs the :data:`PLACEMENTS` rung (kernel vs kernel+replay on a
    multi-GPU placement in the hot-expert regime).
    """
    if full:
        sizes = dict(FULL_SIZES)
        placement_requests = PLACEMENT_REQUESTS_FULL
    else:
        requests = num_requests if num_requests is not None else (
            QUICK_REQUESTS if quick else DEFAULT_REQUESTS)
        modes = (("kernel", "kernel_probed", "kernel_replay")
                 if quick else tuple(MODES))
        sizes = {requests: modes}
        placement_requests = (PLACEMENT_REQUESTS_QUICK if quick
                              else PLACEMENT_REQUESTS_DEFAULT)
    scaling: Dict[str, Dict[str, Dict[str, float]]] = {}
    for size, modes in sizes.items():
        stream = build_requests(size)
        scaling[str(size)] = {mode: measure_mode(mode, stream)
                              for mode in modes}
    placement_stream = build_requests(placement_requests,
                                      skew=PLACEMENT_SKEW,
                                      output_length=PLACEMENT_OUTPUT_LENGTH)
    placements: Dict[str, Dict[str, object]] = {}
    for name, knobs in PLACEMENTS.items():
        placements[name] = {
            "knobs": dict(knobs),
            "requests": placement_requests,
            "kernel": measure_mode("kernel", placement_stream, **knobs),
            "kernel_replay": measure_mode("kernel_replay", placement_stream,
                                          **knobs),
        }
    payload: Dict[str, object] = {
        "benchmark": "simperf",
        "config": DEFAULT_CONFIG,
        "design": DEFAULT_DESIGN,
        "scenario": {
            "input_length": INPUT_LENGTH,
            "output_length": OUTPUT_LENGTH,
            "max_batch_size": MAX_BATCH_SIZE,
            "request_rate": REQUEST_RATE,
            "routing_skew": ROUTING_SKEW,
            "trace_pool": TRACE_POOL,
            "seed": SEED,
        },
        "placement_scenario": {
            "routing_skew": PLACEMENT_SKEW,
            "output_length": PLACEMENT_OUTPUT_LENGTH,
        },
        "floors": {
            "kernel_req_per_s": KERNEL_FLOOR_REQ_PER_S,
            "kernel_replay_req_per_s": KERNEL_REPLAY_FLOOR_REQ_PER_S,
        },
        "python": platform.python_version(),
        "scaling": scaling,
        "placements": placements,
    }
    over_kernel: Dict[str, Dict[str, float]] = {"scaling": {},
                                                "placements": {}}
    for size, by_mode in scaling.items():
        if "kernel" in by_mode and "kernel_replay" in by_mode:
            base = by_mode["kernel"]["simulated_requests_per_second"]
            fast = by_mode["kernel_replay"]["simulated_requests_per_second"]
            if base > 0:
                over_kernel["scaling"][size] = fast / base
    for name, rung in placements.items():
        base = rung["kernel"]["simulated_requests_per_second"]
        fast = rung["kernel_replay"]["simulated_requests_per_second"]
        if base > 0:
            over_kernel["placements"][name] = fast / base
    payload["kernel_replay_speedup_over_kernel"] = over_kernel
    return payload


def write_simperf(payload: Dict[str, object], path: str) -> None:
    """Persist a :func:`run_simperf` payload as pretty-printed JSON."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
