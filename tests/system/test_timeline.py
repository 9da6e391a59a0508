"""Tests for the dual-stream execution timeline (compute/copy overlap)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.system.timeline import ArrayTimeline, Stream


class TestScheduling:
    def test_compute_stream_is_fifo(self):
        tl = ArrayTimeline(record_trace=True)
        a = tl.add("a", Stream.COMPUTE, 1.0)
        b = tl.add("b", Stream.COMPUTE, 2.0)
        assert a.start == 0.0 and a.end == 1.0
        assert b.start == 1.0 and b.end == 3.0

    def test_streams_run_concurrently(self):
        tl = ArrayTimeline(record_trace=True)
        tl.add("compute", Stream.COMPUTE, 5.0)
        copy = tl.add("copy", Stream.COPY, 3.0)
        assert copy.start == 0.0
        assert tl.makespan == 5.0

    def test_dependency_across_streams(self):
        tl = ArrayTimeline(record_trace=True)
        gate = tl.add("gate", Stream.COMPUTE, 1.0)
        copy = tl.add("fetch", Stream.COPY, 2.0, depends_on=[gate.op_id])
        execute = tl.add("exec", Stream.COMPUTE, 1.0, depends_on=[copy.op_id])
        assert copy.start == pytest.approx(1.0)
        assert execute.start == pytest.approx(3.0)
        assert tl.makespan == pytest.approx(4.0)

    def test_overlap_hides_copy(self):
        """A copy issued early finishes under a long compute op (the pre-gated case)."""
        tl = ArrayTimeline(record_trace=True)
        tl.add("prefetch", Stream.COPY, 2.0)
        tl.add("block_n", Stream.COMPUTE, 3.0)
        execute = tl.add("block_n_plus_1", Stream.COMPUTE, 1.0, depends_on=[0])
        assert execute.start == pytest.approx(3.0)  # no stall
        assert tl.exposed_copy_time() == pytest.approx(0.0)
        assert tl.overlap_efficiency() == pytest.approx(1.0)

    def test_serialised_copy_is_exposed(self):
        """A copy that must follow the same block's gate stalls execution (on-demand)."""
        tl = ArrayTimeline(record_trace=True)
        gate = tl.add("gate", Stream.COMPUTE, 0.5)
        copy = tl.add("fetch", Stream.COPY, 2.0, depends_on=[gate.op_id])
        tl.add("exec", Stream.COMPUTE, 1.0, depends_on=[copy.op_id])
        assert tl.makespan == pytest.approx(3.5)
        assert tl.exposed_copy_time() == pytest.approx(2.0)
        assert tl.overlap_efficiency() == pytest.approx(0.0)

    def test_earliest_start_gates_ops(self):
        """An op may not start before its earliest_start (request arrival)."""
        tl = ArrayTimeline(record_trace=True)
        a = tl.add("a", Stream.COMPUTE, 1.0)
        b = tl.add("b", Stream.COMPUTE, 1.0, earliest_start=5.0)
        assert a.end == pytest.approx(1.0)
        assert b.start == pytest.approx(5.0)
        assert tl.makespan == pytest.approx(6.0)

    def test_earliest_start_in_past_is_ignored(self):
        tl = ArrayTimeline(record_trace=True)
        tl.add("a", Stream.COMPUTE, 3.0)
        b = tl.add("b", Stream.COMPUTE, 1.0, earliest_start=1.0)
        assert b.start == pytest.approx(3.0)

    def test_negative_earliest_start_rejected(self):
        with pytest.raises(ValueError):
            ArrayTimeline(record_trace=True).add("x", Stream.COMPUTE, 1.0, earliest_start=-1.0)

    def test_invalid_dependency_rejected(self):
        tl = ArrayTimeline(record_trace=True)
        with pytest.raises(ValueError):
            tl.add("x", Stream.COMPUTE, 1.0, depends_on=[5])

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            ArrayTimeline(record_trace=True).add("x", Stream.COMPUTE, -1.0)


class TestQueries:
    def make_timeline(self):
        tl = ArrayTimeline(record_trace=True)
        tl.add("a", Stream.COMPUTE, 1.0, category="non_moe")
        tl.add("b", Stream.COPY, 2.0, category="expert_transfer")
        tl.add("c", Stream.COMPUTE, 3.0, category="expert_execution", depends_on=[1])
        return tl

    def test_stream_busy_time(self):
        tl = self.make_timeline()
        assert tl.stream_busy_time(Stream.COMPUTE) == pytest.approx(4.0)
        assert tl.stream_busy_time(Stream.COPY) == pytest.approx(2.0)

    def test_category_time(self):
        tl = self.make_timeline()
        assert tl.category_time("expert_transfer") == pytest.approx(2.0)
        assert len(tl.ops_by_category("expert_execution")) == 1

    def test_op_lookup_and_records(self):
        tl = self.make_timeline()
        assert tl.op(0).name == "a"
        records = tl.to_records()
        assert len(records) == 3
        assert records[2]["stream"] == "compute"
        assert records[2]["start"] >= records[1]["end"] - 1e-12

    def test_empty_timeline(self):
        tl = ArrayTimeline(record_trace=True)
        assert tl.makespan == 0.0
        assert tl.overlap_efficiency() == 1.0
        assert tl.render_ascii() == "(empty timeline)"

    def test_render_ascii_has_both_streams(self):
        text = self.make_timeline().render_ascii(width=40)
        assert "compute" in text and "copy" in text
        assert "ms" in text


class TestExposedCopyTime:
    """``exposed_copy_time`` counts only copy-induced compute stalls.

    Regression tests for the old ``makespan - compute_busy`` formula, which
    wrongly counted compute-stream idle caused by compute-side dependencies,
    trailing copies and arrival gaps as "exposed copy time".
    """

    def test_trailing_copy_not_counted(self):
        """A copy extending past the last compute op stalls nothing."""
        tl = ArrayTimeline(record_trace=True)
        tl.add("a", Stream.COMPUTE, 1.0)
        tl.add("background", Stream.COPY, 5.0)
        # Old formula: makespan(5) - compute_busy(1) = 4.  No compute op
        # ever waited on the copy, so nothing is exposed.
        assert tl.exposed_copy_time() == pytest.approx(0.0)

    def test_arrival_gap_not_counted(self):
        """Idle time waiting for a request arrival is not a copy stall."""
        tl = ArrayTimeline(record_trace=True)
        tl.add("req0", Stream.COMPUTE, 1.0)
        tl.add("fetch", Stream.COPY, 1.5)
        tl.add("req1", Stream.COMPUTE, 1.0, earliest_start=10.0)
        assert tl.exposed_copy_time() == pytest.approx(0.0)

    def test_partial_stall_counted_exactly(self):
        """Only the portion of the copy outlasting compute is exposed."""
        tl = ArrayTimeline(record_trace=True)
        copy = tl.add("prefetch", Stream.COPY, 3.0)
        tl.add("block_n", Stream.COMPUTE, 2.0)
        execute = tl.add("block_n1", Stream.COMPUTE, 1.0, depends_on=[copy.op_id])
        assert execute.start == pytest.approx(3.0)
        assert tl.exposed_copy_time() == pytest.approx(1.0)

    def test_stall_after_arrival_gap_counted(self):
        """A copy stall following an arrival gap is still attributed to the copy."""
        tl = ArrayTimeline(record_trace=True)
        gate = tl.add("gate", Stream.COMPUTE, 1.0, earliest_start=5.0)
        copy = tl.add("fetch", Stream.COPY, 2.0, depends_on=[gate.op_id])
        tl.add("exec", Stream.COMPUTE, 1.0, depends_on=[copy.op_id])
        assert tl.exposed_copy_time() == pytest.approx(2.0)

    def test_multiple_stalls_accumulate(self):
        tl = ArrayTimeline(record_trace=True)
        g1 = tl.add("gate1", Stream.COMPUTE, 0.5)
        c1 = tl.add("fetch1", Stream.COPY, 2.0, depends_on=[g1.op_id])
        tl.add("exec1", Stream.COMPUTE, 1.0, depends_on=[c1.op_id])   # stalls 2.0
        g2 = tl.add("gate2", Stream.COMPUTE, 0.5)
        c2 = tl.add("fetch2", Stream.COPY, 2.0, depends_on=[g2.op_id])
        tl.add("exec2", Stream.COMPUTE, 1.0, depends_on=[c2.op_id])   # stalls 2.0
        assert tl.exposed_copy_time() == pytest.approx(4.0)


@settings(max_examples=40, deadline=None)
@given(durations=st.lists(st.floats(min_value=0.001, max_value=5.0), min_size=1, max_size=10))
def test_property_makespan_at_least_each_stream_busy_time(durations):
    """The makespan can never be shorter than either stream's total busy time."""
    tl = ArrayTimeline(record_trace=True)
    for i, duration in enumerate(durations):
        if i % 2 == 0:
            tl.add(f"c{i}", Stream.COMPUTE, duration)
        else:
            tl.add(f"x{i}", Stream.COPY, duration)
    assert tl.makespan >= tl.stream_busy_time(Stream.COMPUTE) - 1e-9
    assert tl.makespan >= tl.stream_busy_time(Stream.COPY) - 1e-9


@settings(max_examples=40, deadline=None)
@given(durations=st.lists(st.floats(min_value=0.001, max_value=5.0), min_size=2, max_size=10),
       seed=st.integers(min_value=0, max_value=99))
def test_property_dependencies_respected(durations, seed):
    """No op ever starts before all of its dependencies have finished."""
    import numpy as np
    rng = np.random.default_rng(seed)
    tl = ArrayTimeline(record_trace=True)
    for i, duration in enumerate(durations):
        deps = list(rng.choice(i, size=min(i, int(rng.integers(0, 3))), replace=False)) if i else []
        if rng.random() < 0.5:
            tl.add(f"c{i}", Stream.COMPUTE, duration, depends_on=[int(d) for d in deps])
        else:
            tl.add(f"x{i}", Stream.COPY, duration, depends_on=[int(d) for d in deps])
    for op in tl.ops:
        for dep in op.depends_on:
            assert op.start >= tl.op(dep).end - 1e-12
