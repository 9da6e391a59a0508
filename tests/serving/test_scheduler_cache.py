"""Scheduler + cluster tests for shared expert caching under load.

Pins the two contracts of the residency subsystem:

* a zero-capacity (or absent) cache leaves the continuous-batching
  scheduler byte- and time-identical to the uncached implementation;
* a warm cache strictly reduces CPU→GPU transfer volume and reports a
  positive hit rate for both Pre-gated MoE and MoE-OnDemand (the Figure 15
  result, under continuous batching).
"""

import pytest

from repro.moe import get_config
from repro.serving import ReplicaCluster, make_scheduler, serve_load
from repro.workloads import CLOSED_LOOP_QA_LOAD, TimedRequest, TraceGenerator, WorkloadSpec

CONFIG = get_config("switch_base_64")
DESIGNS = ("gpu_only", "pregated", "ondemand", "prefetch_all")
CACHED_DESIGNS = ("pregated", "ondemand")


def timed(traces, times):
    return [TimedRequest(request_id=i, arrival_time=t, trace=trace)
            for i, (t, trace) in enumerate(zip(times, traces))]


@pytest.fixture(scope="module")
def requests():
    """Skewed (hot-expert) traffic with overlapping in-flight requests."""
    traces = TraceGenerator(CONFIG, skew=1.5, seed=1).workload(
        4, input_length=8, output_length=6)
    return timed(traces, [0.0, 0.0, 0.1, 0.2])


class TestZeroCapacityParity:
    """Capacity 0 runs the full residency machinery but retains nothing —
    the timelines must match the uncached scheduler to 1e-9."""

    @pytest.mark.parametrize("design", DESIGNS)
    def test_timeline_and_byte_parity(self, design, requests):
        base = make_scheduler(design, CONFIG, max_batch_size=3).serve(requests)
        zero = make_scheduler(design, CONFIG, max_batch_size=3,
                              cache_capacity=0).serve(requests)
        assert zero.makespan == pytest.approx(base.makespan, abs=1e-9)
        assert zero.peak_gpu_bytes == base.peak_gpu_bytes
        assert zero.expert_bytes_transferred == base.expert_bytes_transferred
        for a, b in zip(base.requests, zero.requests):
            assert b.ttft == pytest.approx(a.ttft, abs=1e-9)
            assert b.completion_time == pytest.approx(a.completion_time, abs=1e-9)
            assert b.token_times == pytest.approx(a.token_times, abs=1e-9)

    def test_zero_capacity_still_reports_stats(self, requests):
        zero = make_scheduler("pregated", CONFIG, cache_capacity=0).serve(requests)
        assert zero.cache_stats is not None
        assert zero.cache_stats.bytes_transferred == zero.expert_bytes_transferred

    def test_gpu_only_ignores_cache(self, requests):
        result = make_scheduler("gpu_only", CONFIG, cache_policy="lru",
                                cache_capacity=64).serve(requests)
        assert result.cache_stats is None
        assert result.expert_bytes_transferred == 0


class TestWarmCache:
    @pytest.mark.parametrize("design", CACHED_DESIGNS)
    def test_lru_cache_cuts_transfers(self, design, requests):
        base = make_scheduler(design, CONFIG, max_batch_size=3).serve(requests)
        warm = make_scheduler(design, CONFIG, max_batch_size=3,
                              cache_policy="lru", cache_capacity=128).serve(requests)
        assert warm.expert_bytes_transferred < base.expert_bytes_transferred
        assert warm.cache_stats.hit_rate > 0.0
        assert warm.cache_stats.bytes_saved > 0
        # Conservation: transferred + saved covers exactly the uncached volume.
        assert (warm.expert_bytes_transferred + warm.cache_stats.bytes_saved
                == base.expert_bytes_transferred)
        assert warm.makespan <= base.makespan + 1e-9

    @pytest.mark.parametrize("policy", ("lifo", "lru", "lfu"))
    def test_all_policies_serve_correctly(self, policy, requests):
        result = make_scheduler("pregated", CONFIG, cache_policy=policy,
                                cache_capacity=32).serve(requests)
        assert result.num_requests == len(requests)
        for request in result.requests:
            assert len(request.token_times) == request.output_length

    def test_small_cache_evicts_and_stays_bounded(self, requests):
        scheduler = make_scheduler("ondemand", CONFIG, cache_policy="lru",
                                   cache_capacity=4)
        result = scheduler.serve(requests)
        assert result.cache_stats.evictions > 0
        assert scheduler.residency.retained_count <= 4

    def test_second_serve_starts_warm(self, requests):
        """Residency persists across serve() calls on one scheduler."""
        scheduler = make_scheduler("pregated", CONFIG, cache_policy="lru",
                                   cache_capacity=256)
        cold = scheduler.serve(requests)
        warm = scheduler.serve(requests)
        assert warm.expert_bytes_transferred < cold.expert_bytes_transferred
        assert warm.cache_stats.hit_rate > cold.cache_stats.hit_rate

    def test_summary_surfaces_cache_columns(self, requests):
        summary = make_scheduler("pregated", CONFIG, cache_policy="lru",
                                 cache_capacity=64).serve(requests).summary()
        assert summary["cache_hit_rate"] > 0.0
        assert summary["gb_transferred"] > 0.0
        assert summary["gb_saved"] > 0.0
        uncached = make_scheduler("pregated", CONFIG).serve(requests).summary()
        assert uncached["cache_hit_rate"] is None
        assert uncached["gb_saved"] == 0.0


class TestKnobs:
    def test_policy_without_capacity_rejected(self):
        """cache_policy alone must not silently run uncached."""
        from repro.serving import make_engine
        with pytest.raises(ValueError, match="cache_capacity"):
            make_scheduler("pregated", CONFIG, cache_policy="lru")
        with pytest.raises(ValueError, match="cache_capacity"):
            ReplicaCluster("pregated", CONFIG, cache_policy="lru")
        with pytest.raises(ValueError, match="cache_capacity"):
            make_engine("pregated", CONFIG, cache_policy="lru")

    def test_serve_load_accepts_cache_knobs(self):
        shape = WorkloadSpec(name="tiny_cached", num_requests=3, input_length=8,
                             output_length=4, routing_skew=1.5, seed=0)
        load = CLOSED_LOOP_QA_LOAD.with_overrides(concurrency=2)
        cached = serve_load("ondemand", CONFIG, load, workload=shape,
                            cache_policy="lru", cache_capacity=128)
        plain = serve_load("ondemand", CONFIG, load, workload=shape)
        assert cached.cache_stats is not None
        assert plain.cache_stats is None
        assert cached.expert_bytes_transferred < plain.expert_bytes_transferred


class TestClusterCaching:
    def test_per_replica_caches_and_merged_stats(self, requests):
        cluster = ReplicaCluster("pregated", CONFIG, num_replicas=2,
                                 cache_policy="lru", cache_capacity=64)
        assert all(r.residency is not None for r in cluster.replicas)
        assert cluster.replicas[0].residency is not cluster.replicas[1].residency
        result = cluster.serve(requests)
        combined = result.combined()
        assert combined.cache_stats is not None
        assert combined.expert_bytes_transferred == sum(
            r.expert_bytes_transferred for r in result.replica_results)
        assert combined.cache_stats.hits == sum(
            r.cache_stats.hits for r in result.replica_results)
        assert combined.num_requests == len(requests)

    def test_cache_aware_routing_groups_identical_requests(self):
        """Requests with identical activations should co-locate for hits."""
        gen = TraceGenerator(CONFIG, seed=3)
        blocks_enc = CONFIG.num_moe_blocks("encoder")
        blocks_dec = CONFIG.num_moe_blocks("decoder")
        hot = gen.request_trace(input_length=8, output_length=4)
        cold = gen.request_trace(input_length=8, output_length=4)
        # Force disjoint expert sets so affinity is unambiguous.
        hot.encoder_activations = [[0]] * blocks_enc
        hot.decode_activations = [[[1]] * blocks_dec] * hot.output_length
        cold.encoder_activations = [[2]] * blocks_enc
        cold.decode_activations = [[[3]] * blocks_dec] * cold.output_length
        reqs = timed([hot, cold, hot, cold], [0.0, 0.0, 0.0, 0.0])
        cluster = ReplicaCluster("pregated", CONFIG, num_replicas=2,
                                 policy="cache_aware",
                                 cache_policy="lru", cache_capacity=512)
        assignments = cluster.route(reqs)
        for assigned in assignments:
            traces = {id(r.trace) for r in assigned}
            assert len(traces) == 1          # each replica saw one trace shape
        assert all(len(a) == 2 for a in assignments)

    def test_cache_aware_works_without_cache(self, requests):
        """Affinity routing degrades gracefully when caching is off."""
        cluster = ReplicaCluster("pregated", CONFIG, num_replicas=2,
                                 policy="cache_aware")
        combined = cluster.serve(requests).combined()
        assert combined.num_requests == len(requests)
