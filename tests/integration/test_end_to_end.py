"""Integration tests spanning multiple subsystems.

These tests exercise the full pipelines the examples and benchmarks rely on:
functional model -> routing trace -> serving simulator, and the paper's
headline qualitative claims across all four system designs.
"""

import numpy as np
import pytest

from repro.core import PreGatedSwitchTransformer, peak_memory_comparison
from repro.moe import get_config
from repro.serving import compare_designs, make_engine
from repro.system import PAPER_SYSTEM, SSD_SYSTEM
from repro.workloads import TraceGenerator, trace_from_routing


class TestFunctionalModelDrivesSimulator:
    """The tiny functional model's real routing decisions feed the serving simulator."""

    def test_tiny_model_trace_through_engines(self):
        config = get_config("tiny_moe_8")
        model = PreGatedSwitchTransformer(config, seed=0)
        src = np.random.default_rng(0).integers(4, config.vocab_size, (1, 8))
        _, traces = model.greedy_decode(src, bos_id=1, eos_id=2, max_new_tokens=4,
                                        collect_trace=True)
        request = trace_from_routing(traces, input_length=8)
        # Scale the architecture up to paper dimensions but keep the real routing.
        paper_config = get_config("switch_base_8").scaled(
            name="switch_base_8_like_tiny",
            num_encoder_layers=config.num_encoder_layers,
            num_decoder_layers=config.num_decoder_layers,
            moe_layer_frequency=config.moe_layer_frequency,
            num_experts=config.num_experts)
        results = {}
        for design in ("gpu_only", "pregated", "ondemand"):
            engine = make_engine(design, paper_config)
            results[design] = engine.run_request(request)
        assert results["gpu_only"].total_time < results["pregated"].total_time
        assert results["pregated"].total_time < results["ondemand"].total_time


class TestHeadlineClaims:
    """Section VI-A's quantitative claims, checked as qualitative/loose bounds."""

    @pytest.fixture(scope="class")
    def results(self):
        config = get_config("switch_base_128")
        traces = TraceGenerator(config, seed=0).workload(2, input_length=16, output_length=12)
        return compare_designs(config, traces)

    def test_pregated_faster_than_ondemand(self, results):
        """Paper: ~1.5-1.7x lower MoE block latency than MoE-OnDemand."""
        ratio = results["ondemand"].mean_block_latency / results["pregated"].mean_block_latency
        assert ratio > 1.3

    def test_pregated_orders_of_magnitude_faster_than_prefetch(self, results):
        """Paper: ~42x (up to 125x) lower block latency than MoE-Prefetch at 128 experts."""
        ratio = results["prefetch_all"].mean_block_latency / results["pregated"].mean_block_latency
        assert ratio > 20

    def test_pregated_close_to_gpu_only(self, results):
        """Paper: only ~19-23% block-latency overhead over the oracular GPU-only."""
        ratio = results["pregated"].mean_block_latency / results["gpu_only"].mean_block_latency
        assert ratio < 1.6

    def test_pregated_reduces_peak_memory_severalfold(self, results):
        """Paper: ~4.2x lower peak GPU memory than GPU-only (we require >2x)."""
        ratio = results["gpu_only"].peak_gpu_bytes / results["pregated"].peak_gpu_bytes
        assert ratio > 2.0

    def test_pregated_close_to_memory_optimal_ondemand(self, results):
        overhead = (results["pregated"].peak_gpu_bytes - results["ondemand"].peak_gpu_bytes)
        assert overhead / results["ondemand"].peak_gpu_bytes < 0.25

    def test_throughput_fraction_of_gpu_only(self, results):
        """Paper: Pre-gated MoE reaches ~81% of GPU-only throughput (we require >50%)."""
        fraction = (results["pregated"].aggregate_tokens_per_second
                    / results["gpu_only"].aggregate_tokens_per_second)
        assert fraction > 0.5


class TestSingleGpuDeployment:
    def test_switch_large_deployable_only_with_offloading(self):
        """The scalability story: Switch-Large fits on one A100 only when experts
        are offloaded (Pre-gated / OnDemand / Prefetch), not with GPU-only."""
        config = get_config("switch_large_128")
        traces = TraceGenerator(config, seed=1).workload(1, input_length=8, output_length=4)
        results = compare_designs(config, traces)
        assert results["gpu_only"].oom
        for design in ("pregated", "ondemand", "prefetch_all"):
            assert not results[design].oom
            assert results[design].aggregate_tokens_per_second > 0

    def test_equation_one_consistent_with_engine_measurement(self):
        """The analytic Equation-1 model and the engine's measured peak agree on ordering."""
        config = get_config("switch_base_64")
        analytic = peak_memory_comparison(config)
        traces = TraceGenerator(config, seed=2).workload(1, input_length=8, output_length=4)
        measured = {d: r.peak_gpu_bytes for d, r in compare_designs(config, traces).items()
                    if not r.oom}
        analytic_order = sorted(measured, key=lambda d: analytic[d])
        measured_order = sorted(measured, key=lambda d: measured[d])
        assert analytic_order == measured_order


class TestSsdOffloading:
    def test_figure16_pregated_still_best_but_gap_shrinks(self):
        """Figure 16: on SSD offloading every design slows down massively, but
        Pre-gated MoE remains the fastest CPU-GPU design."""
        config = get_config("switch_large_128")
        traces = TraceGenerator(config, seed=3).workload(1, input_length=8, output_length=4)
        dram = compare_designs(config, traces, designs=("pregated", "ondemand"),
                               system=PAPER_SYSTEM)
        ssd = compare_designs(config, traces, designs=("pregated", "ondemand"), system=SSD_SYSTEM)
        assert ssd["pregated"].aggregate_tokens_per_second < dram["pregated"].aggregate_tokens_per_second
        assert ssd["pregated"].aggregate_tokens_per_second >= ssd["ondemand"].aggregate_tokens_per_second
        dram_gap = (dram["pregated"].aggregate_tokens_per_second
                    / dram["ondemand"].aggregate_tokens_per_second)
        ssd_gap = (ssd["pregated"].aggregate_tokens_per_second
                   / ssd["ondemand"].aggregate_tokens_per_second)
        assert ssd_gap <= dram_gap + 0.1


class TestCachingAcrossDesigns:
    def test_caching_helps_ondemand_more_than_pregated(self):
        """Figure 15's second-order finding: caching benefits MoE-OnDemand more,
        because Pre-gated MoE already hides most migration latency."""
        config = get_config("switch_base_64")
        traces = TraceGenerator(config, skew=1.5, seed=4).workload(3, input_length=8,
                                                                   output_length=10)

        def throughput(design, cached):
            engine = (make_engine(design, config, cache_policy="lru",
                                  cache_capacity=150)
                      if cached else make_engine(design, config))
            return engine.run_workload(traces).aggregate_tokens_per_second

        pre_gain = throughput("pregated", True) / throughput("pregated", False)
        ondemand_gain = throughput("ondemand", True) / throughput("ondemand", False)
        assert ondemand_gain >= pre_gain * 0.95
        assert ondemand_gain > 1.0
