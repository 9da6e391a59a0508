"""Tests for the multi-replica router and cluster aggregation."""

import pytest

from repro.moe import get_config
from repro.serving import ReplicaCluster, make_scheduler
from repro.serving.cluster import ROUTING_POLICIES
from repro.workloads import (POISSON_QA_LOAD, TimedRequest, TraceGenerator,
                             WorkloadSpec, generate_timed_requests)

CONFIG = get_config("switch_base_64")


def timed(traces, times):
    return [TimedRequest(request_id=i, arrival_time=t, trace=trace)
            for i, (t, trace) in enumerate(zip(times, traces))]


@pytest.fixture(scope="module")
def requests():
    traces = TraceGenerator(CONFIG, seed=0).workload(6, input_length=8, output_length=6)
    return timed(traces, [0.1 * i for i in range(len(traces))])


class TestRouting:
    def test_round_robin_assignment(self, requests):
        cluster = ReplicaCluster("pregated", CONFIG, num_replicas=3, policy="round_robin")
        assignments = cluster.route(requests)
        assert [len(a) for a in assignments] == [2, 2, 2]
        assert [r.request_id for r in assignments[0]] == [0, 3]

    def test_least_loaded_spreads_simultaneous_arrivals(self, requests):
        cluster = ReplicaCluster("pregated", CONFIG, num_replicas=2, policy="least_loaded")
        simultaneous = timed([r.trace for r in requests], [0.0] * len(requests))
        assignments = cluster.route(simultaneous)
        assert [len(a) for a in assignments] == [3, 3]

    def test_least_loaded_balances_heterogeneous_lengths(self):
        """One giant request must not drag three short ones onto its replica."""
        gen = TraceGenerator(CONFIG, seed=2)
        big = gen.request_trace(input_length=8, output_length=48)
        small = [gen.request_trace(input_length=8, output_length=4) for _ in range(3)]
        reqs = timed([big] + small, [0.0, 0.0, 0.0, 0.0])
        cluster = ReplicaCluster("pregated", CONFIG, num_replicas=2, policy="least_loaded")
        assignments = cluster.route(reqs)
        big_replica = next(i for i, a in enumerate(assignments)
                           if any(r.request_id == 0 for r in a))
        # All three short requests land on the other replica.
        assert len(assignments[1 - big_replica]) == 3

    def test_invalid_policy_and_replica_count(self):
        with pytest.raises(ValueError):
            ReplicaCluster("pregated", CONFIG, policy="random")
        with pytest.raises(ValueError):
            ReplicaCluster("pregated", CONFIG, num_replicas=0)


class TestClusterServe:
    def test_all_requests_served_exactly_once(self, requests):
        cluster = ReplicaCluster("pregated", CONFIG, num_replicas=2)
        result = cluster.serve(requests)
        combined = result.combined()
        assert combined.num_requests == len(requests)
        assert sorted(r.request_id for r in combined.requests) == list(range(len(requests)))
        replicas = {r.replica for r in combined.requests}
        assert replicas == {0, 1}

    def test_more_replicas_cut_latency_under_load(self, requests):
        single = make_scheduler("pregated", CONFIG).serve(requests)
        cluster = ReplicaCluster("pregated", CONFIG, num_replicas=3)
        combined = cluster.serve(requests).combined()
        assert combined.makespan <= single.makespan + 1e-12
        assert combined.e2e_stats.p99 <= single.e2e_stats.p99 + 1e-12
        assert combined.sustained_tokens_per_second >= single.sustained_tokens_per_second

    def test_combined_peak_memory_sums_replicas(self, requests):
        cluster = ReplicaCluster("pregated", CONFIG, num_replicas=2)
        result = cluster.serve(requests)
        combined = result.combined()
        assert combined.peak_gpu_bytes == sum(
            r.peak_gpu_bytes for r in result.replica_results)
        assert combined.num_replicas == 2

    def test_summary_includes_policy(self, requests):
        cluster = ReplicaCluster("pregated", CONFIG, num_replicas=2,
                                 policy="least_loaded")
        summary = cluster.serve(requests).summary()
        assert summary["policy"] == "least_loaded"
        assert summary["replicas"] == 2
        assert summary["sustained_tokens_per_second"] > 0

    def test_single_replica_cluster_matches_scheduler(self, requests):
        cluster = ReplicaCluster("pregated", CONFIG, num_replicas=1)
        combined = cluster.serve(requests).combined()
        direct = make_scheduler("pregated", CONFIG).serve(requests)
        assert combined.makespan == pytest.approx(direct.makespan, abs=1e-9)
        for a, b in zip(combined.requests, direct.requests):
            assert a.completion_time == pytest.approx(b.completion_time, abs=1e-9)

    def test_chained_serves_share_replica_state(self):
        """A second serve on the same cluster starts from warm replica caches."""
        workload = WorkloadSpec(name="chained", num_requests=6, input_length=6,
                                output_length=3, routing_skew=1.2, seed=0)
        load = POISSON_QA_LOAD.with_overrides(request_rate=12.0)
        stream = generate_timed_requests(CONFIG, load, workload=workload)
        cluster = ReplicaCluster("pregated", CONFIG, num_replicas=2,
                                 cache_policy="lru", cache_capacity=64)
        first = cluster.serve(stream, offered_load=12.0).combined()
        second = cluster.serve(stream, offered_load=12.0).combined()
        assert second.cache_stats.hits > first.cache_stats.hits
        assert all(r.last_timeline is not None for r in cluster.replicas)

    @pytest.mark.parametrize("policy", ROUTING_POLICIES)
    def test_fresh_clusters_serve_identically(self, requests, policy):
        results = [ReplicaCluster("pregated", CONFIG, num_replicas=3,
                                  policy=policy).serve(requests, offered_load=12.0)
                   for _ in range(2)]
        assert results[0].summary() == results[1].summary()
        for left, right in zip(results[0].replica_results,
                               results[1].replica_results):
            assert left.makespan == right.makespan
            assert [r.request_id for r in left.requests] == \
                [r.request_id for r in right.requests]

    @pytest.mark.parametrize("policy", ROUTING_POLICIES)
    def test_replica_results_follow_the_route(self, requests, policy):
        cluster = ReplicaCluster("pregated", CONFIG, num_replicas=3, policy=policy)
        routed = cluster.route(requests)
        result = cluster.serve(requests)
        assert len(result.replica_results) == 3
        for replica_id, (assigned, served) in enumerate(
                zip(routed, result.replica_results)):
            assert sorted(r.request_id for r in served.requests) == \
                sorted(r.request_id for r in assigned)
            assert all(r.replica == replica_id for r in served.requests)

    def test_max_workers_no_longer_accepted(self, requests):
        # Replicas serve in one process; there is no pool width to set.
        with pytest.raises(TypeError):
            ReplicaCluster("pregated", CONFIG, num_replicas=2, max_workers=2)
        cluster = ReplicaCluster("pregated", CONFIG, num_replicas=2)
        with pytest.raises(TypeError):
            cluster.serve(requests, max_workers=1)
