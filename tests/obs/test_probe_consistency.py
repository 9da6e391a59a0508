"""The probe-consistency contract: every gauge's forced final sample equals
the corresponding end-of-run aggregate on ``LoadTestResult`` (to 1e-9), and
the probe layer composes with replicas, replay and expert-parallel shards."""

import pytest

from repro.serving.cluster import ReplicaCluster
from repro.serving.scheduler import serve_load
from repro.system.hardware import SSD_SYSTEM
from repro.workloads.arrivals import POISSON_QA_LOAD, generate_timed_requests
from repro.workloads.generator import WorkloadSpec

WORKLOAD = WorkloadSpec(name="probe_test", num_requests=6, input_length=10,
                        output_length=8, routing_skew=1.0, seed=0)

TOL = 1e-9


def serve_probed(**kwargs):
    return serve_load("pregated", "switch_base_64", POISSON_QA_LOAD,
                      workload=WORKLOAD, max_batch_size=4,
                      probe_interval=0.02, **kwargs)


class TestFinalSampleMatchesAggregates:
    # Every executed op lands in one round's histogram bucket, so the
    # single-GPU case (where this load engages replay) serves step by step.
    @pytest.fixture(scope="class",
                    params=[{"num_gpus": 2}, {"round_replay": False}],
                    ids=["2gpu", "1gpu_no_replay"])
    def result(self, request):
        return serve_probed(**request.param)

    def test_timeline_ops(self, result):
        gauge = result.probes.gauges["timeline_ops"]
        assert gauge.last == pytest.approx(result.timeline_total_ops, abs=TOL)

    def test_device_utilisation(self, result):
        for d, util in enumerate(result.device_utilisation):
            gauge = result.probes.gauges[f"device{d}_utilisation"]
            assert gauge.mode == "mean"
            assert gauge.last == pytest.approx(util, abs=TOL)

    def test_queue_and_active_drain_to_zero(self, result):
        assert result.probes.gauges["queue_depth"].last == 0.0
        assert result.probes.gauges["active_requests"].last == 0.0

    def test_replay_rounds(self, result):
        gauge = result.probes.gauges["replay_rounds"]
        assert gauge.last == pytest.approx(result.replay_rounds, abs=TOL)

    def test_final_sample_at_makespan(self, result):
        for gauge in result.probes.gauges.values():
            assert gauge.times[-1] == pytest.approx(result.makespan, abs=TOL)

    def test_round_accounting(self, result):
        hist = result.probes.histograms["round_ops"]
        assert hist.count == result.probes.counters["rounds"].value
        assert hist.total == pytest.approx(result.timeline_total_ops, abs=TOL)

    def test_summary_surfaces_probe_columns(self, result):
        summary = result.summary()
        assert summary["probe_samples"] == len(
            result.probes.gauges["timeline_ops"])
        assert summary["max_queue_depth"] == (
            result.probes.gauges["queue_depth"].max_value)


class TestProbesWithReplay:
    def test_replayed_rounds_show_in_gauge(self):
        result = serve_probed(round_replay=True)
        assert result.replay_rounds > 0, "scenario must engage replay"
        gauge = result.probes.gauges["replay_rounds"]
        assert gauge.last == result.replay_rounds
        # Replayed rounds are not re-executed, so the rounds counter only
        # counts executed rounds.
        executed = result.probes.counters["rounds"].value
        total_rounds = executed + result.replay_rounds
        assert executed < total_rounds

    def test_no_probes_by_default(self):
        result = serve_load("pregated", "switch_base_64", POISSON_QA_LOAD,
                            workload=WORKLOAD, max_batch_size=4)
        assert result.probes is None
        assert result.probe_samples is None
        assert result.max_queue_depth is None
        assert result.summary()["probe_samples"] is None


class TestProbesWithStaging:
    def test_staged_and_resident_bytes_sampled(self):
        result = serve_probed(system=SSD_SYSTEM, stage_policy="lru",
                              stage_capacity=8, num_gpus=2)
        staged = result.probes.gauges["staged_expert_bytes"]
        assert staged.max_value > 0
        hbm = result.probes.gauges["hbm_used_bytes"]
        assert hbm.max_value > 0

    def test_cached_expert_bytes_sampled(self):
        result = serve_probed(cache_policy="lru", cache_capacity=16)
        resident = result.probes.gauges["resident_expert_bytes"]
        assert resident.max_value > 0


class TestClusterMerge:
    def test_merged_probes_and_spans(self):
        cluster = ReplicaCluster("pregated", "switch_base_64",
                                 num_replicas=2, probe_interval=0.02,
                                 span_log=True)
        requests = generate_timed_requests("switch_base_64", POISSON_QA_LOAD,
                                           workload=WORKLOAD)
        cluster_result = cluster.serve(requests, offered_load=4.0)
        combined = cluster_result.combined()
        assert combined.probes is not None
        # Extensive gauges sum at the final (union) sample point.
        per_replica = [r.probes.gauges["timeline_ops"].last
                       for r in cluster_result.replica_results]
        assert combined.probes.gauges["timeline_ops"].last == pytest.approx(
            sum(per_replica), abs=TOL)
        # Spans pool across replicas in request-id order.
        assert combined.spans is not None
        assert [t.request_id for t in combined.spans] == sorted(
            t.request_id for t in combined.spans)
        assert len(combined.spans) == len(requests)
