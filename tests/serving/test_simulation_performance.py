"""Parity and scaling tests for the simulator's own performance rebuild.

Two contracts:

* **Mode parity** — serving with ``record_trace=False`` (incremental
  aggregates + op retirement, the production default) reports *exactly* the
  same load metrics as trace mode, across designs, multi-GPU replicas and
  SSD staging, with round replay off and on; in trace mode, the
  incremental aggregates agree to 1e-9 with the test-only reference
  timeline rescheduling the traced ops from scratch; and sampled probes
  observe a serve without perturbing it.
* **Scaling regression** — with replay off and on, total op work grows ~linearly
  with request count while the resident-op window stays bounded (the fix
  for the accidental O(n²) makespan scans).
* **Bench rungs at test scale** — ``benchmarks/bench_simperf.py``'s two
  loads, shrunk to a few requests, clear its deterministic bars: the kernel
  keeps under a tenth of its ops resident, and replay engages and matches
  the kernel (1e-9 relative makespan, equal op counts).
"""

import numpy as np
import pytest

from repro.serving.metrics import LatencyStats
from repro.serving.scheduler import make_scheduler
from repro.system.hardware import SSD_SYSTEM
from repro.system.timeline import Stream
from repro.workloads.arrivals import TimedRequest
from repro.workloads.traces import TraceGenerator

from repro.moe.configs import get_config

from ..system.reference_timeline import reschedule

CONFIG = get_config("switch_base_64")


def poisson_requests(num_requests: int, seed: int = 0, rate: float = 8.0,
                     skew: float = 1.2, output_length: int = 4):
    """Timestamped requests with a Poisson arrival process."""
    rng = np.random.default_rng(seed + 1000)
    generator = TraceGenerator(CONFIG, skew=skew, seed=seed)
    arrival = 0.0
    requests = []
    for i in range(num_requests):
        arrival += float(rng.exponential(1.0 / rate))
        requests.append(TimedRequest(
            request_id=i, arrival_time=arrival,
            trace=generator.request_trace(input_length=6,
                                          output_length=output_length)))
    return requests


def stats_tuple(stats: LatencyStats):
    return (stats.count, stats.mean, stats.p50, stats.p90, stats.p99, stats.max)


#: scenario name → (design, scheduler kwargs)
SCENARIOS = {
    "pregated": ("pregated", {}),
    "ondemand": ("ondemand", {}),
    "prefetch_all": ("prefetch_all", {}),
    "gpu_only": ("gpu_only", {}),
    "pregated_2gpu": ("pregated", {"num_gpus": 2}),
    "ondemand_4gpu": ("ondemand", {"num_gpus": 4, "shard_policy": "round_robin"}),
    "pregated_ssd_staged": ("pregated", {"system": SSD_SYSTEM,
                                         "stage_policy": "lru",
                                         "stage_capacity": 64}),
    "ondemand_ssd": ("ondemand", {"system": SSD_SYSTEM}),
    "pregated_cached": ("pregated", {"cache_policy": "lru",
                                     "cache_capacity": 32}),
}


#: Round-replay settings the no-trace side serves under — the kernel alone
#: and the kernel with steady-state round replay.  Both must report the
#: trace-mode load metrics.
REPLAY = pytest.mark.parametrize("replay", (False, True),
                                 ids=["kernel", "kernel_replay"])


class TestTraceNoTraceParity:
    @REPLAY
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("seed", (0, 1))
    def test_load_metrics_identical(self, scenario, seed, replay):
        design, kwargs = SCENARIOS[scenario]
        requests = poisson_requests(8, seed=seed)
        traced = make_scheduler(design, CONFIG, max_batch_size=4,
                                record_trace=True, **kwargs).serve(requests)
        bare = make_scheduler(design, CONFIG, max_batch_size=4,
                              round_replay=replay, record_trace=False,
                              **kwargs).serve(requests)
        assert bare.makespan == pytest.approx(traced.makespan, abs=1e-9)
        assert bare.expert_bytes_transferred == traced.expert_bytes_transferred
        assert bare.peak_gpu_bytes == traced.peak_gpu_bytes
        assert bare.alltoall_bytes == traced.alltoall_bytes
        assert bare.timeline_total_ops == traced.timeline_total_ops
        assert stats_tuple(bare.ttft_stats) == pytest.approx(
            stats_tuple(traced.ttft_stats), abs=1e-9)
        assert stats_tuple(bare.tbt_stats) == pytest.approx(
            stats_tuple(traced.tbt_stats), abs=1e-9)
        assert stats_tuple(bare.queueing_stats) == pytest.approx(
            stats_tuple(traced.queueing_stats), abs=1e-9)
        assert bare.device_utilisation == pytest.approx(
            traced.device_utilisation, abs=1e-9)
        if traced.tier_stats is not None:
            assert bare.tier_stats.as_dict() == traced.tier_stats.as_dict()

    @REPLAY
    @pytest.mark.parametrize("num_gpus,skew", ((1, 1.2), (2, 12.0)),
                             ids=["1gpu", "2gpu_hot"])
    def test_probes_observe_never_perturb(self, num_gpus, skew, replay):
        """A probed serve is the unprobed serve, bit for bit."""
        # Batch-1 requests with long generations, so replay engages.
        requests = poisson_requests(6, skew=skew, output_length=24)
        plain, probed = (
            make_scheduler("pregated", CONFIG, max_batch_size=1,
                           num_gpus=num_gpus, round_replay=replay,
                           probe_interval=interval).serve(requests)
            for interval in (None, 0.01))
        assert len(probed.probes.gauge("timeline_ops")) > 10
        assert (probed.replay_windows > 0) == replay
        assert probed.makespan == plain.makespan
        assert probed.timeline_total_ops == plain.timeline_total_ops
        assert probed.timeline_peak_live_ops == plain.timeline_peak_live_ops
        assert probed.replay_ops == plain.replay_ops
        assert probed.alltoall_bytes == plain.alltoall_bytes
        assert [(r.first_token_time, r.token_times) for r in probed.requests] \
            == [(r.first_token_time, r.token_times) for r in plain.requests]

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_timeline_aggregates_identical(self, scenario):
        design, kwargs = SCENARIOS[scenario]
        requests = poisson_requests(6, seed=2)
        traced_sched = make_scheduler(design, CONFIG, max_batch_size=4,
                                      record_trace=True, **kwargs)
        bare_sched = make_scheduler(design, CONFIG, max_batch_size=4,
                                    record_trace=False, **kwargs)
        traced_sched.serve(requests)
        bare_sched.serve(requests)
        traced, bare = traced_sched.last_timeline, bare_sched.last_timeline
        assert bare.makespan == pytest.approx(traced.makespan, abs=1e-9)
        assert bare.exposed_copy_time() == pytest.approx(
            traced.exposed_copy_time(), abs=1e-9)
        for stream in Stream:
            assert bare.stream_busy_time(stream) == pytest.approx(
                traced.stream_busy_time(stream), abs=1e-9)
        for category in ("expert_transfer", "expert_execution", "gate",
                         "non_moe", "stage_in", "alltoall"):
            assert bare.category_count(category) == traced.category_count(category)
            assert bare.category_bytes(category) == pytest.approx(
                traced.category_bytes(category), abs=1e-9)
        # Trace mode's incremental aggregates agree with the reference
        # rescheduling the recorded ops from their emitted inputs alone.
        reference = reschedule(traced.ops)
        assert [(op.start, op.end) for op in traced.ops] == \
            [(op.start, op.end) for op in reference.ops]
        assert traced.makespan == reference.makespan
        assert traced.exposed_copy_time() == pytest.approx(
            reference.exposed_copy_time(), abs=1e-9)
        for stream in Stream:
            assert traced.stream_busy_time(stream) == pytest.approx(
                reference.stream_busy_time(stream), abs=1e-9)


class TestScalingRegression:
    @REPLAY
    def test_op_work_linear_and_window_bounded(self, replay):
        """Total op count grows ~linearly; the live window does not grow."""
        small = make_scheduler("pregated", CONFIG, max_batch_size=4,
                               round_replay=replay)
        large = make_scheduler("pregated", CONFIG, max_batch_size=4,
                               round_replay=replay)
        small_result = small.serve(poisson_requests(10, seed=3))
        large_result = large.serve(poisson_requests(40, seed=3))
        ratio = large_result.timeline_total_ops / small_result.timeline_total_ops
        assert 3.0 <= ratio <= 5.0, (
            f"op work grew {ratio:.2f}x for 4x the requests — super-linear "
            "op scheduling has crept back in")
        # The resident window tracks the active batch, not the load length.
        assert large_result.timeline_peak_live_ops <= \
            2 * small_result.timeline_peak_live_ops
        assert large_result.timeline_peak_live_ops < \
            large_result.timeline_total_ops / 5

    def test_trace_mode_keeps_everything(self):
        sched = make_scheduler("pregated", CONFIG, max_batch_size=4,
                               record_trace=True)
        result = sched.serve(poisson_requests(10, seed=4))
        assert result.timeline_peak_live_ops == result.timeline_total_ops
        assert sched.last_timeline.live_op_count == result.timeline_total_ops


#: rung → (requests, routing skew, output length, placement), the shapes of
#: ``benchmarks/bench_simperf.py`` with far fewer requests.
SIMPERF_RUNGS = {
    "scenario": (8, 1.2, 96, {}),
    "multi_gpu_hot": (6, 12.0, 192, {"num_gpus": 2,
                                     "shard_policy": "round_robin"}),
}


class TestSimperfRungs:
    @pytest.mark.parametrize("rung", sorted(SIMPERF_RUNGS))
    def test_kernel_retires_and_replay_matches(self, rung):
        num_requests, skew, output_length, placement = SIMPERF_RUNGS[rung]
        config = get_config("switch_base_128")
        traces = TraceGenerator(config, skew=skew, seed=0).workload(
            num_requests, input_length=8, output_length=output_length)
        arrivals = np.cumsum(np.random.default_rng(0).exponential(
            1.0 / 8.0, size=num_requests))
        requests = [TimedRequest(request_id=i, arrival_time=float(arrivals[i]),
                                 trace=traces[i])
                    for i in range(num_requests)]
        kernel, replay = (
            make_scheduler("pregated", config, max_batch_size=1,
                           round_replay=flag, **placement).serve(requests)
            for flag in (False, True))
        assert kernel.timeline_peak_live_ops < kernel.timeline_total_ops / 10
        assert abs(replay.makespan - kernel.makespan) <= \
            1e-9 * kernel.makespan
        assert replay.timeline_total_ops == kernel.timeline_total_ops
        assert replay.replay_windows > 0
        if rung == "scenario":
            assert replay.replay_ops > replay.timeline_total_ops / 2
