"""Edge-case tests for the serving engines: dense models, deeper pre-gating,
engine configuration knobs and memory accounting details."""

import pytest

from repro.moe import get_config
from repro.serving import EngineConfig, make_engine
from repro.system import ArrayTimeline, Stream
from repro.system.hardware import PAPER_SYSTEM
from repro.workloads import TraceGenerator, expected_distinct_experts


class TestDenseModelServing:
    """A dense (non-MoE) configuration has no experts to migrate at all."""

    def test_dense_model_has_no_moe_blocks_or_copies(self):
        config = get_config("t5_base")
        engine = make_engine("pregated", config)
        timeline = ArrayTimeline(record_trace=True)
        result = engine.run_decoder_iteration([], timeline=timeline)
        assert result.block_latencies == []
        assert timeline.stream_busy_time(Stream.COPY) == 0.0

    def test_dense_request_round_trip(self):
        config = get_config("t5_base")
        engine = make_engine("gpu_only", config)
        trace = TraceGenerator(get_config("switch_base_8"), seed=0).request_trace(8, 4)
        # Reuse the trace shape; a dense model simply ignores the activations.
        trace.encoder_activations = []
        trace.decode_activations = [[] for _ in range(4)]
        result = engine.run_request(trace)
        assert result.tokens_per_second > 0


class TestActivationLevelTwoEngine:
    def test_level2_issues_transfers_two_blocks_early(self):
        config = get_config("switch_base_64")
        activations = TraceGenerator(config, seed=0).iteration_activations(
            1, config.num_moe_blocks("decoder"))
        timeline = ArrayTimeline(record_trace=True)
        engine = make_engine("pregated", config,
                             engine_config=EngineConfig(activation_level=2))
        result = engine.run_decoder_iteration(activations, timeline=timeline)
        assert len(result.block_latencies) == config.num_moe_blocks("decoder")
        # With a deeper look-ahead the prefetch window is even larger, so the
        # per-block latency cannot be worse than the N=1 configuration.
        baseline = make_engine("pregated", config).run_decoder_iteration(activations)
        assert result.mean_block_latency <= baseline.mean_block_latency * 1.05


class TestEngineConfigKnobs:
    def test_workspace_bytes_counted_in_peak(self):
        config = get_config("switch_base_8")
        small = make_engine("ondemand", config,
                            engine_config=EngineConfig(runtime_workspace_bytes=0))
        big = make_engine("ondemand", config,
                          engine_config=EngineConfig(runtime_workspace_bytes=int(4e9)))
        small.load_model()
        big.load_model()
        assert big.gpu_pool.peak - small.gpu_pool.peak == pytest.approx(4e9, rel=0.01)

    def test_offload_pool_untouched_by_gpu_only(self):
        engine = make_engine("gpu_only", get_config("switch_base_8"))
        engine.load_model()
        assert engine.memory.cpu.in_use == 0


class TestEncoderPass:
    def test_encoder_activates_many_experts(self):
        """Encoder MoE blocks route many tokens, so many distinct experts are
        migrated — the reason the encoder phase is expensive for offloading."""
        config = get_config("switch_base_128")
        gen = TraceGenerator(config, seed=0)
        trace = gen.request_trace(input_length=64, output_length=1)
        mean_active = sum(len(b) for b in trace.encoder_activations) / len(trace.encoder_activations)
        expected = expected_distinct_experts(64, config.num_experts)
        assert mean_active == pytest.approx(expected, rel=0.35)

        timeline = ArrayTimeline(record_trace=True)
        engine = make_engine("pregated", config)
        result = engine.run_encoder_pass(trace.encoder_activations, 64, timeline=timeline)
        copies = timeline.ops_by_category("expert_transfer")
        assert len(copies) == sum(len(b) for b in trace.encoder_activations)
        assert len(result.block_latencies) == config.num_moe_blocks("encoder")

    def test_decode_faster_than_encoder_for_long_inputs(self):
        config = get_config("switch_base_64")
        gen = TraceGenerator(config, seed=1)
        trace = gen.request_trace(input_length=64, output_length=1)
        engine = make_engine("pregated", config)
        result = engine.run_request(trace)
        assert result.encoder_time > result.decode_time


class TestCrossDesignInvariants:
    def test_all_offload_designs_move_identical_bytes_for_pregated_and_ondemand(self):
        """Pre-gated and OnDemand migrate exactly the same experts per iteration —
        only the timing differs.  Their copy-stream busy times must match."""
        config = get_config("switch_base_64")
        activations = TraceGenerator(config, seed=2).iteration_activations(
            1, config.num_moe_blocks("decoder"))
        busy = {}
        for design in ("pregated", "ondemand"):
            timeline = ArrayTimeline(record_trace=True)
            make_engine(design, config).run_decoder_iteration(activations, timeline=timeline)
            busy[design] = timeline.stream_busy_time(Stream.COPY)
        assert busy["pregated"] == pytest.approx(busy["ondemand"], rel=1e-9)

    def test_iteration_duration_consistent_with_block_latencies(self):
        config = get_config("switch_base_64")
        activations = TraceGenerator(config, seed=3).iteration_activations(
            1, config.num_moe_blocks("decoder"))
        for design in ("gpu_only", "pregated", "ondemand", "prefetch_all"):
            result = make_engine(design, config).run_decoder_iteration(activations)
            assert result.duration >= sum(0.0 for _ in result.block_latencies)
            assert result.duration > max(r.latency for r in result.block_latencies) * 0.9

    def test_transfer_time_matches_link_model(self):
        config = get_config("switch_base_64")
        activations = [[5]] * config.num_moe_blocks("decoder")
        timeline = ArrayTimeline(record_trace=True)
        make_engine("ondemand", config).run_decoder_iteration(activations, timeline=timeline)
        expected = PAPER_SYSTEM.expert_transfer_time(config.expert_bytes())
        for op in timeline.ops_by_category("expert_transfer"):
            assert op.duration == pytest.approx(expected)
