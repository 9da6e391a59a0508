"""Tests for the serving engine, its four designs and the simulator under it."""

import gc
import weakref

import pytest

from repro.moe import get_config
from repro.serving import (
    DESIGN_LABELS,
    EngineConfig,
    ServingEngine,
    compare_designs,
    make_engine,
)
from repro.system import (PAPER_SYSTEM, SSD_SYSTEM, Stream,
                          cache_capacity_from_fraction)
from repro.system.timeline import ArrayTimeline
from repro.workloads import TraceGenerator

from ..system.reference_timeline import reschedule

CONFIG = get_config("switch_base_64")
DESIGNS = ("gpu_only", "pregated", "ondemand", "prefetch_all")


@pytest.fixture(scope="module")
def traces():
    return TraceGenerator(CONFIG, seed=0).workload(2, input_length=16, output_length=8)


@pytest.fixture(scope="module")
def single_iteration():
    return TraceGenerator(CONFIG, seed=1).iteration_activations(
        num_tokens=1, num_moe_blocks=CONFIG.num_moe_blocks("decoder"))


class TestFactory:
    def test_make_engine_by_name(self):
        for design in DESIGNS:
            engine = make_engine(design, CONFIG)
            assert isinstance(engine, ServingEngine)
            assert engine.design == engine.scheduler.design == design

    def test_unknown_design(self):
        with pytest.raises(ValueError):
            make_engine("multi_gpu", CONFIG)

    def test_engine_rejects_unknown_design(self):
        with pytest.raises(ValueError):
            ServingEngine("multi_gpu", CONFIG)

    @pytest.mark.parametrize("design", DESIGNS)
    def test_engine_takes_design_directly(self, design, traces):
        direct = ServingEngine(design, CONFIG)
        assert direct.design == design
        via_factory = make_engine(design, CONFIG).run_request(traces[0])
        result = direct.run_request(traces[0])
        assert result.total_time == via_factory.total_time
        assert result.peak_gpu_bytes == via_factory.peak_gpu_bytes

    def test_config_by_name(self):
        engine = make_engine("pregated", "switch_base_8")
        assert engine.config.name == "switch_base_8"

    def test_labels_cover_all_designs(self):
        assert set(DESIGN_LABELS) == set(DESIGNS)


class TestModelLoading:
    def test_offload_designs_place_experts_in_dram(self):
        engine = make_engine("pregated", CONFIG)
        engine.load_model()
        assert engine.memory.cpu.in_use >= CONFIG.moe_bytes()
        assert engine.gpu_pool.category_usage("moe") == 0

    def test_gpu_only_places_everything_on_gpu(self):
        engine = make_engine("gpu_only", CONFIG)
        engine.load_model()
        assert engine.gpu_pool.category_usage("moe") == CONFIG.moe_bytes()

    def test_gpu_only_oom_for_switch_large(self):
        """Figures 10-12: GPU-only cannot hold Switch-Large on an 80GB A100."""
        engine = make_engine("gpu_only", "switch_large_128")
        result = engine.run_workload([])
        assert result.oom
        assert "out of memory" in result.oom_reason.lower()

    def test_pregated_loads_switch_large(self):
        engine = make_engine("pregated", "switch_large_128")
        engine.load_model()  # must not raise

    def test_load_is_idempotent(self):
        engine = make_engine("ondemand", CONFIG)
        engine.load_model()
        engine.load_model()
        assert engine.gpu_pool.has("non_moe_params")

    def test_ssd_offload_places_experts_on_ssd(self):
        engine = make_engine("pregated", "switch_xxl", system=SSD_SYSTEM)
        engine.load_model()
        assert engine.memory.ssd.in_use >= engine.config.moe_bytes()


class TestDecoderIteration:
    def test_block_latency_records(self, single_iteration):
        engine = make_engine("pregated", CONFIG)
        result = engine.run_decoder_iteration(single_iteration)
        assert len(result.block_latencies) == CONFIG.num_moe_blocks("decoder")
        assert all(r.latency > 0 for r in result.block_latencies)
        assert result.duration > 0

    def test_gpu_only_has_no_copy_ops(self, single_iteration):
        engine = make_engine("gpu_only", CONFIG)
        timeline = ArrayTimeline(record_trace=True)
        engine.run_decoder_iteration(single_iteration, timeline=timeline)
        assert timeline.stream_busy_time(Stream.COPY) == 0.0

    def test_offload_designs_issue_copies(self, single_iteration):
        for design in ("pregated", "ondemand", "prefetch_all"):
            timeline = ArrayTimeline(record_trace=True)
            make_engine(design, CONFIG).run_decoder_iteration(single_iteration, timeline=timeline)
            assert timeline.stream_busy_time(Stream.COPY) > 0.0

    def test_prefetch_all_moves_every_expert(self, single_iteration):
        timeline = ArrayTimeline(record_trace=True)
        make_engine("prefetch_all", CONFIG).run_decoder_iteration(single_iteration,
                                                                  timeline=timeline)
        copies = timeline.ops_by_category("expert_transfer")
        assert len(copies) == CONFIG.num_moe_blocks("decoder") * CONFIG.num_experts

    def test_pregated_moves_only_activated_experts(self, single_iteration):
        timeline = ArrayTimeline(record_trace=True)
        make_engine("pregated", CONFIG).run_decoder_iteration(single_iteration, timeline=timeline)
        copies = timeline.ops_by_category("expert_transfer")
        assert len(copies) == sum(len(block) for block in single_iteration)

    @pytest.mark.parametrize("num_gpus", [1, 2])
    @pytest.mark.parametrize("design", DESIGNS)
    def test_trace_matches_reference(self, single_iteration, design, num_gpus):
        """A pass's ops, rescheduled by the test-only reference, land at the
        same times and give the same exposed copy time."""
        timeline = ArrayTimeline(record_trace=True)
        engine = make_engine(design, CONFIG, num_gpus=num_gpus)
        engine.run_encoder_pass(single_iteration, 4, timeline=timeline)
        engine.run_decoder_iteration(single_iteration, timeline=timeline)
        reference = reschedule(timeline.ops)
        assert [(op.start, op.end) for op in timeline.ops] == \
            [(op.start, op.end) for op in reference.ops]
        assert timeline.exposed_copy_time() == pytest.approx(
            reference.exposed_copy_time(), abs=1e-9)

    def test_per_pass_calls_release_the_callers_timeline(self):
        """Consecutive passes on one 2-GPU timeline wait for the trailing
        all-to-all combine, and the engine holds no reference to the
        timeline once the caller drops it."""
        # The last expert lives on the second GPU (contiguous shards), so
        # every block ends in a combine back to the first.
        activations = [(CONFIG.num_experts - 1,)] * CONFIG.num_moe_blocks("decoder")
        engine = make_engine("pregated", CONFIG, num_gpus=2)
        timeline = ArrayTimeline(record_trace=True)
        engine.run_encoder_pass(activations, 4, timeline=timeline)
        combine = timeline.ops[-1]
        assert combine.category == "alltoall"
        encoder_ops = timeline.num_ops
        engine.run_decoder_iteration(activations, timeline=timeline)
        assert combine.op_id in timeline.ops[encoder_ops].depends_on
        alive = weakref.ref(timeline)
        del timeline
        gc.collect()
        assert alive() is None

    def test_carry_survives_passes_interleaved_across_timelines(self):
        """A pass on another timeline does not drop the first timeline's
        pending all-to-all combine."""
        activations = [(CONFIG.num_experts - 1,)] * CONFIG.num_moe_blocks("decoder")
        engine = make_engine("pregated", "switch_base_64", num_gpus=2)
        first = ArrayTimeline(record_trace=True)
        second = ArrayTimeline(record_trace=True)
        engine.run_encoder_pass(activations, 4, timeline=first)
        encoder_ops = first.num_ops
        engine.run_encoder_pass(activations, 4, timeline=second)
        engine.run_decoder_iteration(activations, timeline=first)
        deps = first.ops[encoder_ops].depends_on
        assert [first.ops[dep].name for dep in deps] == ["encoder0.moe5.combine"]

    def test_block_latency_ordering_matches_figure_10(self, single_iteration):
        """GPU-only < Pre-gated < OnDemand << Prefetch-all, per MoE block."""
        latencies = {}
        for design in DESIGNS:
            engine = make_engine(design, CONFIG)
            result = engine.run_decoder_iteration(single_iteration)
            latencies[design] = result.mean_block_latency
        assert latencies["gpu_only"] < latencies["pregated"]
        assert latencies["pregated"] < latencies["ondemand"]
        assert latencies["ondemand"] < latencies["prefetch_all"]

    def test_pregated_overhead_is_modest(self, single_iteration):
        """Pre-gated MoE stays within ~2x of GPU-only per-block latency
        (the paper reports ~1.2x)."""
        gpu = make_engine("gpu_only", CONFIG).run_decoder_iteration(single_iteration)
        pre = make_engine("pregated", CONFIG).run_decoder_iteration(single_iteration)
        ratio = pre.mean_block_latency / gpu.mean_block_latency
        assert 1.0 < ratio < 2.0

    def test_ondemand_serialises_transfer(self, single_iteration):
        """MoE-OnDemand's exposed transfer time is close to the full migration time."""
        engine = make_engine("ondemand", CONFIG)
        result = engine.run_decoder_iteration(single_iteration)
        transfer = PAPER_SYSTEM.expert_transfer_time(CONFIG.expert_bytes())
        for record in result.block_latencies:
            assert record.exposed_transfer_time >= 0.8 * transfer

    def test_pregated_hides_most_transfer(self, single_iteration):
        """Pre-gated MoE hides (nearly) all migration latency for non-first blocks."""
        engine = make_engine("pregated", CONFIG)
        result = engine.run_decoder_iteration(single_iteration)
        transfer = PAPER_SYSTEM.expert_transfer_time(CONFIG.expert_bytes())
        hidden_blocks = result.block_latencies[1:]
        assert all(r.exposed_transfer_time < 0.5 * transfer for r in hidden_blocks)


class TestEndToEnd:
    def test_request_result_fields(self, traces):
        engine = make_engine("pregated", CONFIG)
        result = engine.run_request(traces[0])
        assert result.total_time == pytest.approx(result.encoder_time + result.decode_time)
        assert result.tokens_per_second > 0
        assert result.peak_gpu_bytes > CONFIG.non_moe_bytes()

    def test_throughput_ordering_matches_figure_11(self, traces):
        results = compare_designs(CONFIG, traces)
        tput = {d: r.aggregate_tokens_per_second for d, r in results.items() if not r.oom}
        assert tput["gpu_only"] > tput["pregated"]
        assert tput["pregated"] > tput["ondemand"]
        assert tput["ondemand"] > tput["prefetch_all"]

    def test_peak_memory_ordering_matches_figure_12(self, traces):
        results = compare_designs(CONFIG, traces)
        peaks = {d: r.peak_gpu_bytes for d, r in results.items() if not r.oom}
        assert peaks["ondemand"] <= peaks["pregated"]
        assert peaks["pregated"] < peaks["prefetch_all"]
        assert peaks["prefetch_all"] < peaks["gpu_only"]

    def test_workload_aggregation(self, traces):
        engine = make_engine("pregated", CONFIG)
        result = engine.run_workload(traces)
        assert result.num_requests == len(traces)
        assert result.total_generated_tokens == sum(t.output_length for t in traces)
        summary = result.summary()
        assert summary["design"] == "pregated"
        assert summary["tokens_per_second"] > 0

    def test_oversubscription_mode_reports_instead_of_raising(self):
        engine = make_engine("gpu_only", "switch_large_128",
                             engine_config=EngineConfig(allow_oversubscription=True))
        engine.load_model()
        assert engine.gpu_pool.peak > engine.gpu_pool.capacity


class TestCachingIntegration:
    def test_cache_reduces_transfers_under_skewed_routing(self):
        """Figure 15: caching hot experts removes repeat migrations."""
        config = get_config("switch_base_64")
        gen = TraceGenerator(config, skew=1.5, seed=3)
        traces = gen.workload(3, input_length=8, output_length=8)

        def total_copies(**cache_knobs):
            engine = make_engine("ondemand", config, **cache_knobs)
            engine.load_model()
            timeline = ArrayTimeline(record_trace=True)
            for trace in traces:
                for step, acts in enumerate(trace.decode_activations):
                    engine.run_decoder_iteration(acts, self_kv_tokens=step + 1,
                                                 timeline=timeline)
            return len(timeline.ops_by_category("expert_transfer"))

        uncached = total_copies()
        cached = total_copies(cache_policy="lru", cache_capacity=100)
        assert cached < uncached

    def test_cache_hits_recorded(self):
        config = get_config("switch_base_8")
        engine = make_engine("pregated", config, cache_policy="lfu",
                             cache_capacity=50)
        gen = TraceGenerator(config, skew=1.0, seed=4)
        trace = gen.request_trace(input_length=8, output_length=8)
        engine.run_request(trace)
        assert engine.placement.residency.stats.accesses > 0

    @pytest.mark.parametrize("policy", ["lru", "lfu", "lifo"])
    def test_every_cache_miss_is_a_fetch(self, policy):
        """No expert runs from nowhere: a plan that relied on a resident
        expert keeps it pinned until its block has executed, so every miss
        is a charged transfer and every expert use is a hit or a miss.

        Figure 15's shape at 1% capacity, where evictions are frequent.
        """
        config = get_config("switch_large_128")
        traces = TraceGenerator(config, skew=1.5, seed=0).workload(
            2, input_length=8, output_length=12)
        capacity = cache_capacity_from_fraction(
            config.num_moe_blocks("all"), config.num_experts, 0.01)
        engine = make_engine("ondemand", config, cache_policy=policy,
                             cache_capacity=capacity)
        result = engine.run_workload(traces)
        stats = engine.placement.residency.stats
        uses = sum(len(set(block)) for trace in traces
                   for acts in [trace.encoder_activations,
                                *trace.decode_activations]
                   for block in acts)
        assert uses == 417
        assert stats.evictions > 0
        assert stats.misses == result.tier_stats.fetches
        assert stats.hits + stats.misses == uses

    @pytest.mark.parametrize("policy", ["lru", "lfu", "lifo"])
    def test_prefetch_all_cache_keeps_only_resident_bytes(self, policy):
        """prefetch_all fetches every expert of a block, activated or not;
        whatever the cache does not retain must be freed.

        End state: every byte in a GPU pool's ``experts`` category belongs
        to a resident entry, nothing stays pinned and at most ``capacity``
        entries are retained.  Peak: the uncached run's fetch slots plus
        at most ``2 * capacity`` experts — up to ``capacity`` retained
        entries, plus up to ``capacity`` residents a pass's registration
        pinned ahead (they were retained entries when pinned and, pinned,
        no longer count against the retained bound).
        """
        config = get_config("switch_base_64")
        traces = TraceGenerator(config, skew=1.2, seed=0).workload(
            3, input_length=8, output_length=4)
        capacity = 8
        uncached = make_engine("prefetch_all", config).run_workload(traces)
        engine = make_engine("prefetch_all", config, cache_policy=policy,
                             cache_capacity=capacity)
        cached = engine.run_workload(traces)
        residency = engine.placement.residency
        for shard in engine.placement.shards:
            assert (shard.pool.category_usage("experts")
                    == shard.residency.resident_bytes)
        assert residency.pinned_count == 0
        assert residency.retained_count <= capacity
        assert cached.peak_gpu_bytes <= (uncached.peak_gpu_bytes
                                         + 2 * capacity * config.expert_bytes())
