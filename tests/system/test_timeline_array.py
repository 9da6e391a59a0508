"""Array-kernel timeline parity: ``ArrayTimeline`` vs the test-only reference.

The batched columnar kernel must be *the same simulator* as the naive
per-op :class:`~.reference_timeline.ReferenceTimeline`, not an
approximation of it:

* randomized op streams (mixed streams/devices/deps/arrival gates, emitted
  through both scalar adds and multi-op batches) produce bit-identical
  start/end times, and every summed aggregate matches the reference's
  brute-force sum to 1e-9 (the kernel folds sums with vectorized
  reductions, which may reassociate float additions);
* the trace-recording kernel reports each op exactly as emitted, with the
  reference's start/end times;
* batch validation points at the offending op and lane;
* ``fast_forward`` applies absolute aggregate values and refuses trace
  mode and makespan rewinds.
"""

import random

import pytest

from repro.system.timeline import (STREAM_CODE, ArrayTimeline, Stream,
                                   category_code)

from .reference_timeline import ReferenceTimeline

STREAMS = (Stream.COMPUTE, Stream.COPY, Stream.STAGE, Stream.INTERCONNECT)
CATEGORIES = ("compute", "copy", "stage_in", "alltoall", "generic")


def random_program(rng, num_rounds=12, max_round_ops=9):
    """A random schedule as (round) -> [(stream, device, dur, deps, ...)].

    Dependencies reach both backward across rounds and forward *within* a
    round (to earlier ops of the same round), mirroring how the scheduler
    emits one round as one batch with intra-batch deps.
    """
    program = []
    next_id = 0
    for _ in range(num_rounds):
        round_ops = []
        for _ in range(rng.randint(1, max_round_ops)):
            candidates = range(max(0, next_id - 12), next_id)
            deps = rng.sample(list(candidates), k=min(rng.randint(0, 3),
                                                      next_id))
            round_ops.append({
                "stream": rng.choice(STREAMS),
                "device": rng.choice([0, 0, 0, 1]),
                "duration": rng.choice([0.0, rng.uniform(0.0, 2.0)]),
                "earliest": rng.choice([0.0, 0.0, rng.uniform(0.0, 5.0)]),
                "bytes": rng.choice([0.0, float(rng.randint(1, 9) * 1024)]),
                "category": rng.choice(CATEGORIES),
                "deps": deps,
            })
            next_id += 1
        program.append(round_ops)
    return program


def run_reference(program):
    reference = ReferenceTimeline()
    times = []
    for round_ops in program:
        for spec in round_ops:
            op = reference.add(spec["stream"], spec["duration"], spec["deps"],
                               category=spec["category"], device=spec["device"],
                               earliest_start=spec["earliest"],
                               num_bytes=spec["bytes"])
            times.append((op.start, op.end))
    return reference, times


def program_round(timeline, round_ops):
    """Add a round's ops one :meth:`ArrayTimeline.add` at a time."""
    for spec in round_ops:
        op = timeline.add(f"op{timeline.num_ops}", spec["stream"],
                          spec["duration"], depends_on=spec["deps"],
                          category=spec["category"],
                          earliest_start=spec["earliest"],
                          device=spec["device"], num_bytes=spec["bytes"])
        yield (op.start, op.end)


def run_array(program, record_trace):
    timeline = ArrayTimeline(record_trace=record_trace)
    times = []
    for round_ops in program:
        batch = timeline.begin_batch()
        for spec in round_ops:
            batch.add(STREAM_CODE[spec["stream"]],
                      spec["duration"], deps=spec["deps"],
                      category=category_code(spec["category"]),
                      device=spec["device"], earliest_start=spec["earliest"],
                      num_bytes=spec["bytes"],
                      name=f"op{batch.base_id + len(batch)}")
        starts, ends = timeline.commit_batch(batch)
        times.extend(zip(starts.tolist(), ends.tolist()))
    return timeline, times


def assert_aggregate_parity(reference, array):
    # Time-like maxima are bit-identical; summed aggregates may be folded in
    # a different association order, so 1e-9.
    assert array.makespan == reference.makespan
    assert array.num_ops == reference.num_ops
    for stream in STREAMS:
        for device in (None, 0, 1):
            assert array.stream_busy_time(stream, device) == pytest.approx(
                reference.stream_busy_time(stream, device), abs=1e-9)
            assert array.stream_free_time(stream, device) == \
                reference.stream_free_time(stream, device)
    assert array.devices() == reference.devices()
    for device in reference.devices():
        assert array.device_utilisation(device) == pytest.approx(
            reference.device_utilisation(device), abs=1e-9)
        assert array.exposed_copy_time(device) == pytest.approx(
            reference.exposed_copy_time(device), abs=1e-9)
    for category in CATEGORIES:
        assert array.category_count(category) == reference.category_count(category)
        assert array.category_time(category) == pytest.approx(
            reference.category_time(category), abs=1e-9)
        assert array.category_bytes(category) == pytest.approx(
            reference.category_bytes(category), abs=1e-9)
    copy_busy = reference.stream_busy_time(Stream.COPY)
    assert array.overlap_efficiency() == pytest.approx(
        max(0.0, 1.0 - reference.exposed_copy_time() / copy_busy)
        if copy_busy else 1.0, abs=1e-9)


class TestRandomizedParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_batched_kernel_matches_reference(self, seed):
        program = random_program(random.Random(seed))
        reference, reference_times = run_reference(program)
        array, array_times = run_array(program, record_trace=False)
        # Start/end chains are max() compositions — bit-identical.
        assert array_times == reference_times
        assert_aggregate_parity(reference, array)

    @pytest.mark.parametrize("seed", range(4))
    def test_scalar_adds_match_reference(self, seed):
        """ArrayTimeline.add (one-op batches) is the same kernel."""
        program = random_program(random.Random(seed), num_rounds=6)
        reference, reference_times = run_reference(program)
        array = ArrayTimeline(record_trace=False)
        array_times = []
        for round_ops in program:
            array_times.extend(program_round(array, round_ops))
        assert array_times == reference_times
        assert_aggregate_parity(reference, array)

    @pytest.mark.parametrize("seed", range(4))
    def test_trace_reports_ops_as_emitted(self, seed):
        program = random_program(random.Random(seed), num_rounds=6)
        reference, _ = run_reference(program)
        array, _ = run_array(program, record_trace=True)
        records = array.to_records()
        assert [r["op_id"] for r in records] == list(range(reference.num_ops))
        for record, op in zip(records, reference.ops):
            assert (record["stream"], record["device"], record["category"],
                    record["duration"], record["earliest_start"],
                    record["num_bytes"], record["start"], record["end"]) == \
                (op.stream.value, op.device, op.category, op.duration,
                 op.earliest_start, op.num_bytes, op.start, op.end)
            assert record["name"] == f"op{record['op_id']}"
        for stream in STREAMS:
            lane = array.stream_ops(stream)
            assert [op.op_id for op in lane] == \
                [i for i, op in enumerate(reference.ops) if op.stream is stream]
            for op in lane:
                assert tuple(op.depends_on) == reference.ops[op.op_id].deps
                assert array.op(op.op_id) == op

    def test_trace_keeps_emitted_value_types(self):
        """Integer byte counts come back as the emitter's ints."""
        timeline = ArrayTimeline(record_trace=True)
        batch = timeline.begin_batch()
        batch.add(STREAM_CODE[Stream.COPY], 0.5, num_bytes=18874368,
                  category=category_code("expert_transfer"), name="fetch")
        timeline.commit_batch(batch)
        [record] = timeline.to_records()
        assert record["num_bytes"] == 18874368
        assert type(record["num_bytes"]) is int
        assert timeline.category_bytes("expert_transfer") == 18874368.0


class TestBatchValidation:
    def test_negative_duration_names_op_and_lane(self):
        timeline = ArrayTimeline(record_trace=True)
        batch = timeline.begin_batch()
        batch.add(0, 1.0, name="warmup")
        batch.add(1, -0.5, device=2, name="bad_copy")
        with pytest.raises(ValueError, match=r"'bad_copy'.*copy, device 2"):
            timeline.commit_batch(batch)

    def test_unknown_dependency_names_op(self):
        timeline = ArrayTimeline(record_trace=True)
        batch = timeline.begin_batch()
        batch.add(0, 1.0, deps=[41], name="orphan")
        with pytest.raises(ValueError, match=r"'orphan'.*41"):
            timeline.commit_batch(batch)

    def test_batches_may_not_interleave(self):
        timeline = ArrayTimeline(record_trace=True)
        batch = timeline.begin_batch()
        batch.add(0, 1.0)
        timeline.add("sneaky", Stream.COMPUTE, 1.0)
        with pytest.raises(RuntimeError, match="interleave"):
            timeline.commit_batch(batch)


class TestFastForward:
    def test_fast_forward_applies_absolute_aggregates(self):
        timeline = ArrayTimeline(record_trace=False)
        timeline.add("seed", Stream.COMPUTE, 1.0, category="compute")
        snapshot = timeline.replay_snapshot()
        snapshot["makespan"] = 5.0
        snapshot["lane_free"][(Stream.COMPUTE, 0)] = 5.0
        snapshot["lane_busy"][(Stream.COMPUTE, 0)] = 5.0
        snapshot["category_count"]["compute"] = 5
        snapshot["category_duration"]["compute"] = 5.0
        timeline.fast_forward(num_ops=4, **snapshot)
        assert timeline.num_ops == 5
        assert timeline.makespan == 5.0
        assert timeline.stream_free_time(Stream.COMPUTE, 0) == 5.0
        assert timeline.category_count("compute") == 5
        assert timeline.category_time("compute") == 5.0
        assert timeline.live_op_count == 1          # no per-op state created
        # The next op queues behind the fast-forwarded lane clock.
        op = timeline.add("next", Stream.COMPUTE, 1.0, category="compute")
        assert op.start == 5.0

    def test_fast_forward_refuses_trace_mode_and_rewinds(self):
        traced = ArrayTimeline(record_trace=True)
        traced.add("seed", Stream.COMPUTE, 1.0)
        with pytest.raises(RuntimeError, match="record_trace"):
            traced.fast_forward(num_ops=1, **traced.replay_snapshot())
        plain = ArrayTimeline(record_trace=False)
        plain.add("seed", Stream.COMPUTE, 1.0)
        snapshot = plain.replay_snapshot()
        snapshot["makespan"] = 0.5
        with pytest.raises(ValueError, match="rewind"):
            plain.fast_forward(num_ops=1, **snapshot)
