"""Simulator self-performance: wall-clock throughput of the serving loop.

Unlike the figure benchmarks (which measure the *simulated* designs), this
one times the simulator itself.  It serves a decode-heavy pregated
Switch-Base-128 load one request at a time (the paper's serving mode;
in 8 / out 96 tokens, routing skew 1.2, Poisson arrivals at 8 req/s) on
the columnar timeline kernel in three modes:

* ``kernel``        — incremental aggregates + op retirement;
* ``kernel_probed`` — ``kernel`` with sampled observability probes on;
* ``kernel_replay`` — the kernel plus steady-state round replay.

A second rung serves a 2-GPU round-robin placement in the hot-expert
regime (skew 12, out 192), where replay follows each expert's owner
device.  Replay stands down on expert caches and DRAM stages, so no cached
placement has a rung.

Bars (plain asserts; no artifact is written):

* probes observe, never perturb: ``kernel_probed`` is bit-identical to
  ``kernel`` (the tier-1 twin is
  ``tests/serving/test_simulation_performance.py``);
* the kernel keeps fewer than a tenth of its ops resident;
* replay matches the kernel's makespan to 1e-7 relative (1e-9 at test
  scale — the drift is float reassociation across closed-form windows)
  with equal op counts, engages, and runs at least 5x faster than the
  replay-off kernel, on both rungs; on the first it skips over half the
  ops;
* throughput floors: 8 sim req/s for ``kernel`` and ``kernel_probed``,
  80 for ``kernel_replay`` (~0.25x the recording machine, so honest
  slowdowns trip them but runner jitter does not).

Trace-mode parity (trace ≡ kernel; trace keeps every op) is deterministic
and lives in tier-1.  Run with ``pytest benchmarks/bench_simperf.py -q -s``
to see the measured values.
"""

from __future__ import annotations

import time

import numpy as np

from repro.moe.configs import get_config
from repro.serving.scheduler import ContinuousBatchingScheduler
from repro.workloads.arrivals import TimedRequest
from repro.workloads.traces import TraceGenerator

CONFIG = "switch_base_128"
DESIGN = "pregated"
REQUEST_RATE = 8.0
REQUESTS = 120
PLACEMENT_REQUESTS = 80
PLACEMENT = {"num_gpus": 2, "shard_policy": "round_robin"}

MODES = {
    "kernel": {"round_replay": False},
    "kernel_probed": {"round_replay": False, "probe_interval": 1.0},
    "kernel_replay": {"round_replay": True},
}
FLOOR_REQ_PER_S = {"kernel": 8.0, "kernel_probed": 8.0,
                   "kernel_replay": 80.0}
REPLAY_SPEEDUP_BAR = 5.0
REPLAY_DRIFT = 1e-7


def build_requests(num_requests, skew=1.2, output_length=96):
    traces = TraceGenerator(get_config(CONFIG), skew=skew, seed=0).workload(
        num_requests, input_length=8, output_length=output_length)
    arrivals = np.cumsum(np.random.default_rng(0).exponential(
        1.0 / REQUEST_RATE, size=num_requests))
    return [TimedRequest(request_id=i, arrival_time=float(arrivals[i]),
                         trace=traces[i]) for i in range(num_requests)]


def serve(mode, requests, **placement):
    """Serve in one mode; only ``serve()`` is inside the timed region."""
    scheduler = ContinuousBatchingScheduler(
        DESIGN, CONFIG, max_batch_size=1, **MODES[mode], **placement)
    started = time.perf_counter()
    result = scheduler.serve(requests, offered_load=REQUEST_RATE)
    return result, len(requests) / (time.perf_counter() - started)


def check_replay(kernel, replay, label):
    drift = abs(replay.makespan - kernel.makespan)
    assert drift <= REPLAY_DRIFT * kernel.makespan, (label, drift)
    assert replay.timeline_total_ops == kernel.timeline_total_ops, label
    assert replay.replay_windows > 0, label


def test_simperf():
    requests = build_requests(REQUESTS)
    runs = {mode: serve(mode, requests) for mode in MODES}
    kernel = runs["kernel"][0]
    probed, replay = runs["kernel_probed"][0], runs["kernel_replay"][0]
    rates = {mode: rate for mode, (_, rate) in runs.items()}
    print(f"\nsimperf ({DESIGN}/{CONFIG}, in=8 out=96 batch=1, "
          f"{REQUESTS} requests):")
    for mode, (result, rate) in runs.items():
        print(f"  {mode:>13}: {rate:8.1f} sim req/s  "
              f"{result.timeline_peak_live_ops:>6} peak resident ops  "
              f"({result.timeline_total_ops} total ops, "
              f"{result.replay_rounds} replayed rounds)")

    hot = build_requests(PLACEMENT_REQUESTS, skew=12.0, output_length=192)
    hot_kernel, hot_kernel_rate = serve("kernel", hot, **PLACEMENT)
    hot_replay, hot_replay_rate = serve("kernel_replay", hot, **PLACEMENT)
    speedup = rates["kernel_replay"] / rates["kernel"]
    hot_speedup = hot_replay_rate / hot_kernel_rate
    print(f"  kernel_replay over kernel: {speedup:.1f}x")
    print(f"  [multi_gpu_hot] {PLACEMENT_REQUESTS} req: kernel "
          f"{hot_kernel_rate:.1f} -> replay {hot_replay_rate:.1f} sim req/s "
          f"({hot_speedup:.1f}x, {hot_replay.replay_rounds} replayed rounds)")

    # Deterministic bars first, then the wall-clock ones.
    assert probed.makespan == kernel.makespan
    assert probed.timeline_total_ops == kernel.timeline_total_ops
    assert probed.sustained_tokens_per_second == \
        kernel.sustained_tokens_per_second
    assert kernel.timeline_peak_live_ops < kernel.timeline_total_ops / 10
    check_replay(kernel, replay, "scenario")
    check_replay(hot_kernel, hot_replay, "multi_gpu_hot")
    assert replay.replay_ops > replay.timeline_total_ops / 2
    for mode, floor in FLOOR_REQ_PER_S.items():
        assert rates[mode] >= floor, (mode, rates[mode], floor)
    assert speedup >= REPLAY_SPEEDUP_BAR, speedup
    assert hot_speedup >= REPLAY_SPEEDUP_BAR, hot_speedup
