"""Incremental-aggregate and op-retirement tests for the execution timeline.

The timeline folds makespan / per-lane busy time / exposed copy time /
per-category counters in as each batch commits (O(1) queries); the
test-only :class:`~.reference_timeline.ReferenceTimeline` recomputes them
by brute force over its own per-op schedule.  These tests pin the two
against each other on randomized op soups, and pin the retirement
semantics of the bounded-memory ``record_trace=False`` mode.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.system.timeline import ArrayTimeline, Stream

from .reference_timeline import ReferenceTimeline

STREAMS = (Stream.COMPUTE, Stream.COPY, Stream.STAGE, Stream.INTERCONNECT)
CATEGORIES = ("non_moe", "gate", "expert_execution", "expert_transfer", "stage_in")


def random_timeline(seed: int, num_ops: int = 60,
                    record_trace: bool = True):
    """A random but structurally valid op soup over 2 devices / 4 streams.

    Returns the kernel timeline and the reference fed the same ops.
    """
    rng = np.random.default_rng(seed)
    tl = ArrayTimeline(record_trace=record_trace)
    reference = ReferenceTimeline()
    for i in range(num_ops):
        stream = STREAMS[int(rng.integers(len(STREAMS)))]
        num_deps = int(rng.integers(0, min(i, 3) + 1)) if i else 0
        deps = [int(d) for d in rng.choice(i, size=num_deps, replace=False)] if num_deps else []
        spec = dict(
            category=CATEGORIES[int(rng.integers(len(CATEGORIES)))],
            earliest_start=float(rng.uniform(0.0, 3.0)) if rng.random() < 0.3 else 0.0,
            device=int(rng.integers(0, 2)),
            num_bytes=float(rng.integers(0, 10)) * 1e6)
        duration = float(rng.uniform(0.0, 2.0))
        tl.add(f"op{i}", stream, duration, depends_on=deps, **spec)
        reference.add(stream, duration, deps, **spec)
    return tl, reference


class TestIncrementalParity:
    """Incremental aggregates == the reference's brute-force sums, to 1e-9."""

    @pytest.mark.parametrize("seed", range(12))
    def test_all_aggregates_match_reference(self, seed):
        tl, reference = random_timeline(seed)
        assert tl.makespan == reference.makespan
        for stream in STREAMS:
            assert tl.stream_busy_time(stream) == pytest.approx(
                reference.stream_busy_time(stream), abs=1e-9)
            for device in tl.devices():
                assert tl.stream_busy_time(stream, device) == pytest.approx(
                    reference.stream_busy_time(stream, device), abs=1e-9)
        for category in CATEGORIES:
            assert tl.category_time(category) == pytest.approx(
                reference.category_time(category), abs=1e-9)
            assert tl.category_count(category) == reference.category_count(category)
            assert tl.category_count(category) == len(tl.ops_by_category(category))
            assert tl.category_bytes(category) == pytest.approx(
                reference.category_bytes(category), abs=1e-9)
        assert tl.exposed_copy_time() == pytest.approx(
            reference.exposed_copy_time(), abs=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_per_device_exposed_sums_to_total(self, seed):
        tl, reference = random_timeline(seed)
        per_device = sum(tl.exposed_copy_time(device=d) for d in tl.devices())
        assert per_device == pytest.approx(tl.exposed_copy_time(), abs=1e-9)
        for device in tl.devices():
            assert tl.exposed_copy_time(device) == pytest.approx(
                reference.exposed_copy_time(device), abs=1e-9)

    def test_device_utilisation_matches_definition(self):
        tl, reference = random_timeline(3)
        for device in tl.devices():
            expected = (reference.stream_busy_time(Stream.COMPUTE, device)
                        / reference.makespan)
            assert tl.device_utilisation(device) == pytest.approx(expected, abs=1e-9)

    def test_op_count_telemetry(self):
        tl, _ = random_timeline(4, num_ops=25)
        assert tl.num_ops == 25
        assert tl.live_op_count == 25
        assert tl.peak_live_ops == 25


class TestNoTraceMode:
    def test_aggregates_identical_to_trace_mode(self):
        trace, _ = random_timeline(7, record_trace=True)
        bare, _ = random_timeline(7, record_trace=False)
        assert bare.makespan == trace.makespan
        assert bare.exposed_copy_time() == trace.exposed_copy_time()
        for stream in STREAMS:
            assert bare.stream_busy_time(stream) == trace.stream_busy_time(stream)
        for category in CATEGORIES:
            assert bare.category_count(category) == trace.category_count(category)
            assert bare.category_bytes(category) == trace.category_bytes(category)

    def test_trace_only_queries_raise(self):
        tl, _ = random_timeline(0, num_ops=5, record_trace=False)
        for query in (lambda: tl.ops, tl.to_records, tl.render_ascii,
                      lambda: tl.ops_by_category("gate"),
                      lambda: tl.stream_ops(Stream.COMPUTE)):
            with pytest.raises(RuntimeError):
                query()

    def test_retirement_bounds_memory_and_keeps_aggregates(self):
        tl = ArrayTimeline(record_trace=False)
        for i in range(50):
            tl.add(f"c{i}", Stream.COMPUTE, 1.0)
            retired = tl.retire_completed()
            assert retired == 1
            assert tl.live_op_count == 0
        assert tl.num_ops == 50
        assert tl.peak_live_ops == 1
        assert tl.makespan == pytest.approx(50.0)
        assert tl.stream_busy_time(Stream.COMPUTE) == pytest.approx(50.0)
        # Lane clocks survive retirement: the next op still queues FIFO.
        op = tl.add("tail", Stream.COMPUTE, 2.0)
        assert op.start == pytest.approx(50.0)

    def test_keep_preserves_named_ops(self):
        tl = ArrayTimeline(record_trace=False)
        a = tl.add("a", Stream.COMPUTE, 1.0)
        b = tl.add("b", Stream.COPY, 1.0)
        tl.retire_completed(keep=[b.op_id])
        assert tl.live_op_count == 1
        # A kept op remains a valid dependency; a retired one does not.
        tl.add("c", Stream.COMPUTE, 1.0, depends_on=[b.op_id])
        with pytest.raises(ValueError):
            tl.add("d", Stream.COMPUTE, 1.0, depends_on=[a.op_id])

    def test_retire_is_noop_in_trace_mode(self):
        tl, _ = random_timeline(1, num_ops=10, record_trace=True)
        assert tl.retire_completed() == 0
        assert tl.live_op_count == 10

    def test_op_lookup_after_retirement_raises(self):
        tl = ArrayTimeline(record_trace=False)
        op = tl.add("a", Stream.COMPUTE, 1.0)
        tl.retire_completed()
        with pytest.raises(KeyError):
            tl.op(op.op_id)


@settings(max_examples=30, deadline=None)
@given(durations=st.lists(st.floats(min_value=0.001, max_value=5.0),
                          min_size=1, max_size=16),
       seed=st.integers(min_value=0, max_value=99))
def test_property_incremental_exposed_matches_reference(durations, seed):
    """Property: online exposed-copy accounting equals the reference's."""
    rng = np.random.default_rng(seed)
    tl = ArrayTimeline(record_trace=False)
    reference = ReferenceTimeline()
    for i, duration in enumerate(durations):
        deps = ([int(d) for d in rng.choice(i, size=int(rng.integers(0, min(i, 2) + 1)),
                                            replace=False)] if i else [])
        stream = Stream.COMPUTE if rng.random() < 0.6 else Stream.COPY
        device = int(rng.integers(0, 2))
        tl.add(f"op{i}", stream, duration, depends_on=deps, device=device)
        reference.add(stream, duration, deps, device=device)
    assert tl.exposed_copy_time() == pytest.approx(reference.exposed_copy_time(), abs=1e-9)
    assert tl.makespan == reference.makespan
