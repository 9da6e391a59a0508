"""Tests for the continuous-batching request scheduler."""

import pytest

from repro.moe import get_config
from repro.serving import (
    EngineConfig,
    make_engine,
    make_scheduler,
    serve_load,
)
from repro.system.timeline import ArrayTimeline
from repro.workloads import (
    CLOSED_LOOP_QA_LOAD,
    DeterministicArrivals,
    POISSON_QA_LOAD,
    TimedRequest,
    TraceGenerator,
    WorkloadSpec,
)

CONFIG = get_config("switch_base_64")
DESIGNS = ("gpu_only", "pregated", "ondemand", "prefetch_all")


def timed(traces, times):
    return [TimedRequest(request_id=i, arrival_time=t, trace=trace)
            for i, (t, trace) in enumerate(zip(times, traces))]


@pytest.fixture(scope="module")
def trace():
    return TraceGenerator(CONFIG, seed=0).request_trace(input_length=16, output_length=8)


@pytest.fixture(scope="module")
def traces():
    return TraceGenerator(CONFIG, seed=1).workload(4, input_length=8, output_length=6)


class TestBackwardCompatibility:
    """A single request through the scheduler must match ``run_request``."""

    @pytest.mark.parametrize("design", DESIGNS)
    def test_single_request_latency_parity(self, design, trace):
        reference = make_engine(design, CONFIG).run_request(trace)
        served = make_scheduler(design, CONFIG).serve([trace]).requests[0]
        assert served.completion_time == pytest.approx(reference.total_time, abs=1e-9)
        assert served.arrival_time == 0.0
        assert served.e2e_latency == pytest.approx(reference.total_time, abs=1e-9)

    @pytest.mark.parametrize("design", DESIGNS)
    def test_single_request_peak_memory_parity(self, design, trace):
        engine = make_engine(design, CONFIG)
        reference = engine.run_request(trace)
        result = make_scheduler(design, CONFIG).serve([trace])
        assert result.peak_gpu_bytes == reference.peak_gpu_bytes

    def test_parity_with_activation_level_two(self, trace):
        engine_config = EngineConfig(activation_level=2)
        reference = make_engine("pregated", CONFIG,
                                engine_config=engine_config).run_request(trace)
        scheduler = make_scheduler("pregated", CONFIG, engine_config=engine_config)
        served = scheduler.serve([trace]).requests[0]
        assert served.completion_time == pytest.approx(reference.total_time, abs=1e-9)

    @pytest.mark.parametrize("num_gpus", [1, 2])
    @pytest.mark.parametrize("policy", ["lru", "lfu", "lifo"])
    @pytest.mark.parametrize("design", ["pregated", "ondemand", "prefetch_all"])
    def test_cached_engine_matches_batch_one_scheduler(self, design, policy,
                                                       num_gpus):
        """Engine and scheduler share one expert cache and one rule, so
        requests served back to back agree on time, peak and hits."""
        traces = TraceGenerator(CONFIG, skew=1.5, seed=0).workload(
            2, input_length=8, output_length=6)
        knobs = dict(cache_policy=policy, cache_capacity=8, num_gpus=num_gpus)
        engine = make_engine(design, CONFIG, **knobs)
        reference = engine.run_workload(traces)
        served = make_scheduler(design, CONFIG, max_batch_size=1,
                                **knobs).serve(traces)
        assert served.makespan == pytest.approx(
            sum(r.total_time for r in reference.requests), abs=1e-9)
        assert served.peak_gpu_bytes == reference.peak_gpu_bytes
        assert engine.residency.stats.hits > 0
        assert served.cache_stats.hits == engine.residency.stats.hits


class TestLifecycle:
    def test_all_requests_complete_with_metrics(self, traces):
        scheduler = make_scheduler("pregated", CONFIG, max_batch_size=2)
        result = scheduler.serve(traces, offered_load=None)
        assert result.num_requests == len(traces)
        for request in result.requests:
            assert request.queueing_delay >= 0.0
            assert 0.0 < request.ttft <= request.e2e_latency
            assert len(request.token_times) == request.output_length
            assert len(request.time_between_tokens) == request.output_length - 1
            assert all(gap > 0 for gap in request.time_between_tokens)

    def test_arrival_gating(self, traces):
        """No work for a request may start before the request arrives."""
        arrivals = [0.0, 10.0, 20.0, 30.0]  # far apart: replica idles between
        scheduler = make_scheduler("pregated", CONFIG)
        result = scheduler.serve(timed(traces, arrivals))
        for request, arrival in zip(result.requests, arrivals):
            assert request.first_scheduled_time >= arrival
            assert request.queueing_delay == pytest.approx(0.0, abs=1e-9)

    def test_continuous_batching_interleaves(self, traces):
        """Concurrent requests finish earlier than back-to-back serving."""
        scheduler = make_scheduler("pregated", CONFIG, max_batch_size=4)
        concurrent = scheduler.serve(timed(traces, [0.0] * len(traces)))
        sequential = make_scheduler("pregated", CONFIG, max_batch_size=1)
        one_by_one = sequential.serve(timed(traces, [0.0] * len(traces)))
        # Same total work on one GPU: identical makespan is allowed, but the
        # *first tokens* of later requests must come earlier when interleaved.
        late_ttft_batched = concurrent.requests[-1].ttft
        late_ttft_serial = one_by_one.requests[-1].ttft
        assert late_ttft_batched < late_ttft_serial

    def test_max_batch_size_bounds_concurrency(self, traces):
        scheduler = make_scheduler("pregated", CONFIG, max_batch_size=1)
        result = scheduler.serve(timed(traces, [0.0] * len(traces)))
        # With concurrency 1 the requests must not overlap at all.
        ordered = sorted(result.requests, key=lambda r: r.first_scheduled_time)
        for earlier, later in zip(ordered, ordered[1:]):
            assert later.first_scheduled_time >= earlier.completion_time - 1e-12

    def test_burst_admission_is_shift_invariant(self, traces):
        """A burst arriving at t=T behaves exactly like the burst at t=0.

        Regression: the idle-replica path used to admit only one request of
        a simultaneous burst, serialising the rest into later rounds and
        losing the round's transfer dedup.
        """
        pair = traces[:2]
        at_zero = make_scheduler("pregated", CONFIG).serve(timed(pair, [0.0, 0.0]))
        shifted = make_scheduler("pregated", CONFIG).serve(timed(pair, [5.0, 5.0]))
        for base, late in zip(at_zero.requests, shifted.requests):
            assert late.ttft == pytest.approx(base.ttft, abs=1e-9)
            assert late.e2e_latency == pytest.approx(base.e2e_latency, abs=1e-9)

    def test_negative_arrival_rejected(self, trace):
        with pytest.raises(ValueError, match="arrival_time"):
            make_scheduler("pregated", CONFIG).serve([TimedRequest(0, -1.0, trace)])

    def test_oom_reported_not_raised(self):
        scheduler = make_scheduler("gpu_only", "switch_large_128")
        result = scheduler.serve([])
        assert result.oom
        assert "out of memory" in result.oom_reason.lower()

    def test_unknown_design_rejected(self):
        with pytest.raises(ValueError):
            make_scheduler("multi_gpu", CONFIG)


class TestTransferDedup:
    """Concurrent requests activating the same experts share one migration."""

    def test_identical_concurrent_requests_share_transfers(self):
        gen = TraceGenerator(CONFIG, seed=5)
        trace = gen.request_trace(input_length=8, output_length=4)
        shared = timed([trace, trace], [0.0, 0.0])  # identical activations

        solo = make_scheduler("ondemand", CONFIG, max_batch_size=1)
        solo_result = solo.serve(timed([trace], [0.0]))
        duo = make_scheduler("ondemand", CONFIG, max_batch_size=2)
        duo_result = duo.serve(shared)

        # The second request re-executes every block but re-fetches nothing,
        # so the two-request makespan must be far below twice the solo one.
        assert duo_result.makespan < 1.8 * solo_result.makespan

    def test_dedup_counts_copy_ops(self):
        """Op-level check through the simulator: one fetch per shared expert."""
        from repro.serving import IterationSimulator, ModelPlacement, SharedExpertRound
        from repro.system.hardware import PAPER_SYSTEM
        from repro.system.performance import GpuLatencyModel

        placement = ModelPlacement(CONFIG, PAPER_SYSTEM, offload_experts=True)
        placement.load_model()
        simulator = IterationSimulator(CONFIG, PAPER_SYSTEM,
                                       GpuLatencyModel(PAPER_SYSTEM.gpu),
                                       "ondemand", placement)
        activations = TraceGenerator(CONFIG, seed=6).iteration_activations(
            1, CONFIG.num_moe_blocks("decoder"))

        timeline = ArrayTimeline(record_trace=True)
        batch_round = SharedExpertRound()
        plan = simulator.make_plan("decoder", activations)
        for _ in range(3):  # three requests with identical activations
            batch_round.register_plan(placement, "decoder", plan)
        batch = timeline.begin_batch()  # one round: all three in one batch
        for request_id in range(3):
            simulator.emit_decoder_iteration(batch, activations,
                                             batch_round=batch_round,
                                             label=f"r{request_id}.")
        timeline.commit_batch(batch)
        copies = timeline.ops_by_category("expert_transfer")
        assert len(copies) == sum(len(block) for block in activations)
        # All shared slots were refcounted down to zero and freed.
        assert placement.gpu_pool.category_usage("experts") == 0

    def test_disjoint_requests_do_not_dedup(self):
        """Requests activating disjoint experts migrate their own experts."""
        blocks = CONFIG.num_moe_blocks("decoder")
        trace_a = TraceGenerator(CONFIG, seed=7).request_trace(1, 2)
        trace_b = TraceGenerator(CONFIG, seed=8).request_trace(1, 2)
        # Force disjoint expert ids.
        trace_a.decode_activations = [[[0]] * blocks, [[1]] * blocks]
        trace_b.decode_activations = [[[2]] * blocks, [[3]] * blocks]
        trace_a.encoder_activations = [[0]] * CONFIG.num_moe_blocks("encoder")
        trace_b.encoder_activations = [[2]] * CONFIG.num_moe_blocks("encoder")

        solo = make_scheduler("ondemand", CONFIG, max_batch_size=1)
        solo_result = solo.serve(timed([trace_a], [0.0]))
        duo = make_scheduler("ondemand", CONFIG, max_batch_size=2)
        duo_result = duo.serve(timed([trace_a, trace_b], [0.0, 0.0]))
        # Disjoint experts: the pair costs about twice the solo makespan.
        assert duo_result.makespan > 1.6 * solo_result.makespan


class TestServeLoad:
    """``serve_load``: LoadSpec in, LoadTestResult out."""

    SHAPE = WorkloadSpec(name="tiny_load", num_requests=3,
                         input_length=8, output_length=4)

    def test_open_loop_records_offered_load(self):
        load = POISSON_QA_LOAD.with_overrides(request_rate=6.0)
        result = serve_load("pregated", CONFIG, load, workload=self.SHAPE)
        assert result.offered_load == 6.0
        assert result.num_requests == 3

    def test_closed_loop_uses_spec_concurrency(self):
        """A closed-loop spec's client count caps in-flight requests."""
        load = CLOSED_LOOP_QA_LOAD.with_overrides(concurrency=1)
        result = serve_load("pregated", CONFIG, load, workload=self.SHAPE)
        assert result.offered_load is None
        # Concurrency 1: requests must be fully serialised.
        ordered = sorted(result.requests, key=lambda r: r.first_scheduled_time)
        for earlier, later in zip(ordered, ordered[1:]):
            assert later.first_scheduled_time >= earlier.completion_time - 1e-12
        # The same load with more clients overlaps them (earlier last-TTFT).
        wide = serve_load("pregated", CONFIG,
                          CLOSED_LOOP_QA_LOAD.with_overrides(concurrency=3),
                          workload=self.SHAPE)
        assert max(r.ttft for r in wide.requests) < max(r.ttft for r in result.requests)


class TestLoadMetricsIntegration:
    def test_sustained_throughput_accounts_for_idle(self, traces):
        """Widely spaced arrivals drag wall-clock throughput down."""
        scheduler = make_scheduler("pregated", CONFIG)
        spaced = scheduler.serve(timed(traces, [0.0, 30.0, 60.0, 90.0]))
        packed = make_scheduler("pregated", CONFIG).serve(
            timed(traces, [0.0] * len(traces)))
        assert spaced.sustained_tokens_per_second < packed.sustained_tokens_per_second

    def test_deterministic_arrivals_queue_when_overloaded(self, traces):
        """Offered load far above capacity must build queueing delay."""
        process = DeterministicArrivals(rate=1000.0)
        requests = timed(traces, process.arrival_times(len(traces)))
        result = make_scheduler("ondemand", CONFIG, max_batch_size=1).serve(requests)
        delays = [r.queueing_delay for r in result.requests]
        assert max(delays) > 0.0
        assert result.queueing_stats.max == pytest.approx(max(delays))
