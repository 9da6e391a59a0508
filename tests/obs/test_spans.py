"""Tests for span-tree assembly: SpanLog unit behaviour plus the scheduler's
span logging on real serves (nesting, attribution, knob validation)."""

import pytest

from repro.obs.spans import (
    CAT_DECODE,
    CAT_FETCH,
    CAT_PREFILL,
    CAT_QUEUE,
    CAT_REQUEST,
    CAT_STAGE,
    PassFetch,
    SpanLog,
)
from repro.serving.scheduler import serve_load
from repro.system.hardware import SSD_SYSTEM
from repro.workloads.arrivals import POISSON_QA_LOAD
from repro.workloads.generator import WorkloadSpec

WORKLOAD = WorkloadSpec(name="span_test", num_requests=5, input_length=12,
                        output_length=6, routing_skew=1.0, seed=0)


class TestSpanLog:
    def test_tree_assembly(self):
        log = SpanLog()
        log.admit(7, arrival_time=1.0)
        fetch = PassFetch(kind=CAT_FETCH, start=1.6, end=1.7, device=0,
                          num_bytes=64.0, source_tier="dram", stage_hit=False)
        log.record_pass(7, CAT_PREFILL, 0, 1.5, 2.0, [fetch])
        log.record_pass(7, CAT_DECODE, 0, 2.0, 2.5, [])
        tree = log.finalise(7, completion_time=2.5)
        assert tree.request_id == 7
        root = tree.root
        assert root.category == CAT_REQUEST
        assert (root.start, root.end) == (1.0, 2.5)
        queue = tree.by_category(CAT_QUEUE)[0]
        assert (queue.start, queue.end) == (1.0, 1.5)
        prefill = tree.by_category(CAT_PREFILL)[0]
        assert prefill.parent == 0
        decode = tree.by_category(CAT_DECODE)[0]
        assert decode.name == "decode[0]"
        fetch_span = tree.by_category(CAT_FETCH)[0]
        assert fetch_span.parent == tree.spans.index(prefill)
        assert fetch_span.attrs["source_tier"] == "dram"
        assert fetch_span.attrs["stage_hit"] is False

    def test_queue_span_never_negative(self):
        log = SpanLog()
        log.admit(0, arrival_time=2.0)
        # Pass starting before arrival (cannot happen in practice, but the
        # queue span must still be well-formed).
        log.record_pass(0, CAT_PREFILL, 0, 1.0, 3.0, [])
        tree = log.finalise(0, completion_time=3.0)
        queue = tree.by_category(CAT_QUEUE)[0]
        assert queue.end >= queue.start

    def test_root_covers_last_pass(self):
        log = SpanLog()
        log.admit(0, arrival_time=0.0)
        log.record_pass(0, CAT_PREFILL, 0, 0.0, 4.0, [])
        tree = log.finalise(0, completion_time=1.0)
        assert tree.root.end == 4.0


class TestSchedulerSpanLogging:
    @pytest.fixture(scope="class")
    def result(self):
        return serve_load("pregated", "switch_base_64", POISSON_QA_LOAD,
                          workload=WORKLOAD, system=SSD_SYSTEM,
                          stage_policy="lru", stage_capacity=8, num_gpus=2,
                          max_batch_size=4, span_log=True)

    def test_one_tree_per_request(self, result):
        assert result.spans is not None
        assert len(result.spans) == len(result.requests)
        assert sorted(t.request_id for t in result.spans) == [
            r.request_id for r in result.requests]

    def test_tree_shape_matches_request(self, result):
        by_id = {t.request_id: t for t in result.spans}
        for req in result.requests:
            tree = by_id[req.request_id]
            assert tree.root.start == pytest.approx(req.arrival_time)
            assert tree.root.end == pytest.approx(req.completion_time)
            assert len(tree.by_category(CAT_PREFILL)) == 1
            decodes = tree.by_category(CAT_DECODE)
            assert len(decodes) == req.output_length
            assert [d.attrs["iteration"] for d in decodes] == list(
                range(req.output_length))

    def test_spans_nest_within_parents(self, result):
        for tree in result.spans:
            for span in tree.spans:
                if span.parent < 0:
                    continue
                parent = tree.spans[span.parent]
                assert span.start >= parent.start - 1e-9
                assert span.end <= parent.end + 1e-9

    def test_fetches_attributed_to_tiers(self, result):
        fetches = [s for tree in result.spans
                   for s in tree.by_category(CAT_FETCH)]
        stages = [s for tree in result.spans
                  for s in tree.by_category(CAT_STAGE)]
        assert fetches, "SSD-staged serve must issue expert fetches"
        assert stages, "SSD-staged serve must issue stage-in ops"
        for span in fetches + stages:
            assert span.attrs["source_tier"] in ("dram", "ssd")
            assert isinstance(span.attrs["stage_hit"], bool)
            assert span.attrs["bytes"] > 0
            assert span.attrs["device"] in (0, 1)
        # A warm staging cache must convert some fetches into stage hits.
        assert any(s.attrs["stage_hit"] for s in fetches)

    def test_span_log_disables_replay(self):
        result = serve_load("pregated", "switch_base_64", POISSON_QA_LOAD,
                            workload=WORKLOAD, max_batch_size=4,
                            span_log=True, round_replay=True)
        assert result.replay_windows == 0
        assert result.spans is not None

    def test_spans_off_by_default(self):
        result = serve_load("pregated", "switch_base_64", POISSON_QA_LOAD,
                            workload=WORKLOAD, max_batch_size=4)
        assert result.spans is None
