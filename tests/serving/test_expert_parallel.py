"""Tests for expert-parallel replicas: sharding, parity and all-to-all."""

import pytest

from repro.moe import get_config
from repro.serving import (
    ModelPlacement,
    ReplicaCluster,
    ShardAssignment,
    ShardedResidency,
    make_engine,
    serve_load,
)
from repro.system import PAPER_SYSTEM
from repro.workloads import POISSON_QA_LOAD, WorkloadSpec, generate_timed_requests

CONFIG = get_config("switch_base_64")
WORKLOAD = WorkloadSpec(name="ep_test", num_requests=3, input_length=6,
                        output_length=4, routing_skew=1.5, seed=0)
LOAD = POISSON_QA_LOAD.with_overrides(request_rate=4.0)
DESIGNS = ("pregated", "ondemand", "prefetch_all")


def serve(design, **kwargs):
    return serve_load(design, CONFIG, LOAD, workload=WORKLOAD,
                      max_batch_size=3, **kwargs)


class TestShardAssignment:
    def test_contiguous_slices_the_id_space(self):
        assignment = ShardAssignment(8, 2, policy="contiguous")
        assert [assignment.device_of(e) for e in range(8)] == [0] * 4 + [1] * 4

    def test_round_robin_interleaves(self):
        assignment = ShardAssignment(6, 3, policy="round_robin")
        assert [assignment.device_of(e) for e in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_load_balanced_spreads_hot_experts(self):
        # Two hot experts (ids 0, 1) under contiguous land on device 0;
        # load-balanced separates them.
        weights = [10.0, 10.0, 1.0, 1.0]
        contiguous = ShardAssignment(4, 2, policy="contiguous",
                                     expert_weights=weights)
        balanced = ShardAssignment(4, 2, policy="load_balanced",
                                   expert_weights=weights)
        assert contiguous.imbalance() > 1.5
        assert balanced.imbalance() == pytest.approx(1.0)
        assert balanced.device_of(0) != balanced.device_of(1)

    def test_load_balanced_uniform_weights_split_evenly(self):
        assignment = ShardAssignment(8, 4, policy="load_balanced")
        assert sorted(len(assignment.experts_on(d)) for d in range(4)) == [2, 2, 2, 2]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="shard policy"):
            ShardAssignment(8, 2, policy="alphabetical")

    def test_weight_validation(self):
        with pytest.raises(ValueError, match="entries"):
            ShardAssignment(4, 2, expert_weights=[1.0, 2.0])
        with pytest.raises(ValueError, match="non-negative"):
            ShardAssignment(2, 2, expert_weights=[1.0, -2.0])
        with pytest.raises(ValueError, match="all zero"):
            ShardAssignment(2, 2, policy="load_balanced",
                            expert_weights=[0.0, 0.0])

    def test_device_of_bounds(self):
        assignment = ShardAssignment(4, 2)
        with pytest.raises(ValueError):
            assignment.device_of(4)


class TestShardedPlacement:
    def test_one_shard_per_device(self):
        system = PAPER_SYSTEM.with_num_gpus(4)
        placement = ModelPlacement(CONFIG, system, offload_experts=True)
        assert placement.num_devices == 4
        assert len(placement.shards) == 4
        assert placement.gpu_pool is placement.shards[0].pool

    def test_load_model_replicates_dense_layers(self):
        system = PAPER_SYSTEM.with_num_gpus(2)
        placement = ModelPlacement(CONFIG, system, offload_experts=True)
        placement.load_model()
        for shard in placement.shards:
            assert shard.pool.has("non_moe_params")
            assert shard.pool.has("runtime_workspace")
        assert placement.peak_gpu_bytes == sum(s.pool.peak for s in placement.shards)

    def test_gpu_only_shards_the_expert_pool(self):
        system = PAPER_SYSTEM.with_num_gpus(2)
        placement = ModelPlacement(CONFIG, system, offload_experts=False)
        placement.load_model()
        total_moe = sum(shard.pool.category_usage("moe")
                        for shard in placement.shards)
        assert total_moe == CONFIG.moe_bytes()

    def test_expert_allocations_land_on_the_owner(self):
        system = PAPER_SYSTEM.with_num_gpus(2)
        placement = ModelPlacement(CONFIG, system, offload_experts=True)
        placement.load_model()
        hot = 0                               # contiguous: device 0
        cold = CONFIG.num_experts - 1         # contiguous: device 1
        tag_hot = placement.allocate_shared_expert("decoder", 0, hot)
        tag_cold = placement.allocate_shared_expert("decoder", 0, cold)
        assert placement.shards[0].pool.has(tag_hot)
        assert not placement.shards[1].pool.has(tag_hot)
        assert placement.shards[1].pool.has(tag_cold)
        placement.free_expert(tag_hot)
        placement.free_expert(tag_cold)
        assert placement.shards[0].pool.category_usage("experts") == 0
        assert placement.shards[1].pool.category_usage("experts") == 0

    def test_multi_gpu_residency_is_routed_and_split(self):
        system = PAPER_SYSTEM.with_num_gpus(2)
        placement = ModelPlacement(CONFIG, system, offload_experts=True,
                                   cache_policy="lru", cache_capacity=9)
        assert isinstance(placement.residency, ShardedResidency)
        assert placement.residency.capacity == 9
        # A pin charges the owning shard's pool.
        cold = CONFIG.num_experts - 1
        assert placement.residency.pin((0, cold)) is False
        assert placement.shards[1].pool.category_usage("experts") == CONFIG.expert_bytes()
        assert placement.shards[0].pool.category_usage("experts") == 0
        placement.residency.release((0, cold))


class TestSingleGpuParity:
    """num_gpus=1 is the degenerate topology: bit-parity with today's path."""

    @pytest.mark.parametrize("design", DESIGNS)
    def test_scheduler_parity(self, design):
        legacy = serve(design)
        topo = serve(design, num_gpus=1)
        assert topo.makespan == pytest.approx(legacy.makespan, abs=1e-9)
        assert topo.expert_bytes_transferred == legacy.expert_bytes_transferred
        assert topo.peak_gpu_bytes == legacy.peak_gpu_bytes
        assert topo.alltoall_bytes == 0
        assert topo.shard_imbalance is None
        for a, b in zip(topo.requests, legacy.requests):
            assert a.ttft == pytest.approx(b.ttft, abs=1e-9)
            assert a.completion_time == pytest.approx(b.completion_time, abs=1e-9)

    def test_scheduler_parity_with_cache(self):
        legacy = serve("pregated", cache_policy="lru", cache_capacity=16)
        topo = serve("pregated", cache_policy="lru", cache_capacity=16,
                     num_gpus=1)
        assert topo.makespan == pytest.approx(legacy.makespan, abs=1e-9)
        assert topo.expert_bytes_transferred == legacy.expert_bytes_transferred
        assert topo.cache_stats.hits == legacy.cache_stats.hits

    def test_engine_parity(self):
        requests = generate_timed_requests(CONFIG, LOAD, workload=WORKLOAD)
        legacy = make_engine("pregated", CONFIG).run_request(requests[0].trace)
        topo = make_engine("pregated", CONFIG, num_gpus=1).run_request(
            requests[0].trace)
        assert topo.total_time == pytest.approx(legacy.total_time, abs=1e-9)
        assert topo.peak_gpu_bytes == legacy.peak_gpu_bytes


class TestExpertParallelServing:
    @pytest.mark.parametrize("num_gpus", (2, 4))
    def test_multi_gpu_run_completes_and_reports(self, num_gpus):
        result = serve("pregated", num_gpus=num_gpus)
        assert result.num_requests == WORKLOAD.num_requests
        assert result.num_gpus == num_gpus
        assert result.alltoall_bytes > 0
        assert len(result.device_utilisation) == num_gpus
        assert result.shard_imbalance is not None
        summary = result.summary()
        assert summary["num_gpus"] == num_gpus
        assert summary["alltoall_mb"] > 0
        # Device 0 runs the dense layers, so it dominates utilisation.
        assert result.device_utilisation[0] == max(result.device_utilisation)

    def test_ordering_survives_expert_parallelism(self):
        pregated = serve("pregated", num_gpus=2)
        ondemand = serve("ondemand", num_gpus=2)
        prefetch = serve("prefetch_all", num_gpus=2)
        assert (pregated.sustained_tokens_per_second
                >= ondemand.sustained_tokens_per_second)
        assert (ondemand.sustained_tokens_per_second
                > prefetch.sustained_tokens_per_second)

    def test_load_balanced_never_loses_under_skew(self):
        import numpy as np

        ranks = np.arange(1, CONFIG.num_experts + 1, dtype=float)
        weights = (ranks ** -1.5).tolist()
        contiguous = serve("pregated", num_gpus=2, shard_policy="contiguous")
        balanced = serve("pregated", num_gpus=2, shard_policy="load_balanced",
                         expert_weights=weights)
        assert (balanced.sustained_tokens_per_second
                >= contiguous.sustained_tokens_per_second - 1e-9)
        assert balanced.shard_imbalance <= contiguous.shard_imbalance + 1e-9

    def test_exposed_transfer_time_zero_without_migrations(self):
        # gpu_only never migrates experts, so even a multi-device block
        # (dispatch → sharded exec → combine) exposes no transfer time;
        # the all-to-all cost must not leak into the migration-stall metric.
        requests = generate_timed_requests(CONFIG, LOAD, workload=WORKLOAD)
        engine = make_engine("gpu_only", CONFIG, num_gpus=2)
        result = engine.run_request(requests[0].trace)
        records = result.block_latencies()
        assert records
        assert all(r.exposed_transfer_time == pytest.approx(0.0, abs=1e-12)
                   for r in records)

    def test_single_gpu_summary_dashes_expert_parallel_columns(self):
        summary = serve("pregated").summary()
        assert summary["alltoall_mb"] is None
        assert summary["shard_imbalance"] is None

    def test_multi_gpu_with_cache_runs(self):
        result = serve("pregated", num_gpus=2, cache_policy="lru",
                       cache_capacity=32)
        assert result.cache_stats is not None
        assert result.cache_stats.misses > 0
        assert result.num_gpus == 2

    def test_engine_multi_gpu_request(self):
        requests = generate_timed_requests(CONFIG, LOAD, workload=WORKLOAD)
        engine = make_engine("pregated", CONFIG, num_gpus=2)
        single = make_engine("pregated", CONFIG)
        multi_result = engine.run_request(requests[0].trace)
        single_result = single.run_request(requests[0].trace)
        assert multi_result.output_length == single_result.output_length
        # Replicated dense layers cost HBM: the two-device peak exceeds one.
        assert multi_result.peak_gpu_bytes > single_result.peak_gpu_bytes
        assert engine.placement.alltoall_bytes > 0

    def test_cluster_threads_num_gpus(self):
        cluster = ReplicaCluster("pregated", CONFIG, num_replicas=2,
                                 num_gpus=2, max_batch_size=3)
        requests = generate_timed_requests(CONFIG, LOAD, workload=WORKLOAD)
        result = cluster.serve(requests)
        combined = result.combined()
        assert combined.num_gpus == 2
        assert combined.summary()["num_gpus"] == 2
        assert all(r.num_gpus == 2 for r in result.replica_results)
