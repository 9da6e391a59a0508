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
* batch validation points at the offending op and lane, and a batch that
  fails it leaves the timeline exactly as it was;
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

    #: Last-op defect → (OpBatch.add overrides, the error it must raise).
    BAD_LAST_OPS = {
        "unknown_dep": ({"deps": [999]}, r"dependency 999 does not"),
        "negative_duration": ({"duration": -0.5}, r"duration must be"),
        "negative_earliest_start": ({"earliest_start": -1.0},
                                    r"earliest_start must be"),
        "negative_device": ({"device": -1}, r"device must be"),
    }

    @staticmethod
    def seeded(timeline):
        """One committed batch: a copy, a compute op stalled on it."""
        batch = timeline.begin_batch()
        copy = batch.add(STREAM_CODE[Stream.COPY], 2.0,
                         category=category_code("copy"), name="seed_copy")
        batch.add(STREAM_CODE[Stream.COMPUTE], 1.0, deps=[copy],
                  category=category_code("compute"), name="seed_exec")
        timeline.commit_batch(batch)
        return timeline

    @staticmethod
    def state(timeline):
        return (timeline.num_ops, timeline.live_op_count, timeline.peak_live_ops,
                timeline.makespan, timeline.devices(),
                timeline.exposed_copy_time(),
                [timeline.stream_free_time(s, d) for s in STREAMS for d in (0, 1)],
                [timeline.stream_busy_time(s) for s in STREAMS],
                [(timeline.category_count(c), timeline.category_time(c),
                  timeline.category_bytes(c)) for c in CATEGORIES])

    @pytest.mark.parametrize("bad", sorted(BAD_LAST_OPS))
    @pytest.mark.parametrize("record_trace", [False, True])
    def test_failed_commit_changes_nothing(self, bad, record_trace):
        """A batch whose last op is invalid raises and moves no state.

        The ops before it would advance lane clocks on both lanes, book an
        exposed copy stall on device 1 and go live; none of that may stick,
        and the next batch reuses the ids and schedules as if the bad batch
        had never been offered.
        """
        overrides, message = self.BAD_LAST_OPS[bad]
        timeline = self.seeded(ArrayTimeline(record_trace=record_trace))
        before = self.state(timeline)
        batch = timeline.begin_batch()
        copy = batch.add(STREAM_CODE[Stream.COPY], 3.0, device=1,
                         category=category_code("copy"), num_bytes=64.0,
                         name="copy")
        batch.add(STREAM_CODE[Stream.COMPUTE], 1.0, deps=[copy], device=1,
                  category=category_code("compute"), name="exec")
        batch.add(**{"stream_code": STREAM_CODE[Stream.COMPUTE],
                     "duration": 1.0, "name": "bad", **overrides})
        # The error names the last op: by name when names are recorded.
        label = "'bad'" if record_trace else "#4"
        with pytest.raises(ValueError, match=rf"^op {label} .*{message}"):
            timeline.commit_batch(batch)
        assert self.state(timeline) == before

        untouched = self.seeded(ArrayTimeline(record_trace=record_trace))
        for t in (timeline, untouched):
            retry = t.begin_batch()
            retry.add(STREAM_CODE[Stream.COMPUTE], 1.0,
                      category=category_code("compute"), name="next")
            assert retry.base_id == 2
            starts, ends = t.commit_batch(retry)
            assert (starts.tolist(), ends.tolist()) == ([3.0], [4.0])
        assert self.state(timeline) == self.state(untouched)
        if record_trace:
            assert timeline.to_records() == untouched.to_records()

    def test_nan_does_not_hide_a_negative_value(self):
        """A NaN (which the kernel lets through, as op-by-op checks did)
        ahead of a negative value must not mask it."""
        timeline = ArrayTimeline(record_trace=True)
        batch = timeline.begin_batch()
        batch.add(0, float("nan"), earliest_start=float("nan"), name="nan")
        batch.add(0, 1.0, earliest_start=-2.0, name="late")
        with pytest.raises(ValueError, match=r"'late'.*earliest_start"):
            timeline.commit_batch(batch)
        assert timeline.num_ops == 0

    def test_batches_may_not_interleave(self):
        timeline = ArrayTimeline(record_trace=True)
        batch = timeline.begin_batch()
        batch.add(0, 1.0)
        timeline.add("sneaky", Stream.COMPUTE, 1.0)
        with pytest.raises(RuntimeError, match="interleave"):
            timeline.commit_batch(batch)


class TestAddRun:
    def test_run_gates_only_its_first_op(self):
        timeline = ArrayTimeline(record_trace=True)
        copy = timeline.add("copy", Stream.COPY, 2.0)
        batch = timeline.begin_batch()
        first = batch.add_run([1.0, 0.5], [category_code("compute")] * 2,
                              deps=[copy.op_id], earliest_start=0.25,
                              names=["attention", "gate"])
        assert first == 1
        assert (batch.stream, batch.device, batch.earliest, batch.num_bytes,
                batch.dep_ids, batch.dep_offsets) == (
            [0, 0], [0, 0], [0.25, 0.0], [0.0, 0.0], [copy.op_id], [0, 1, 1])
        starts, ends = timeline.commit_batch(batch)
        assert (starts.tolist(), ends.tolist()) == ([2.0, 3.0], [3.0, 3.5])
        assert [r["name"] for r in timeline.to_records()] == [
            "copy", "attention", "gate"]

    def test_empty_run_is_rejected(self):
        batch = ArrayTimeline().begin_batch()
        with pytest.raises(ValueError, match="at least one op"):
            batch.add_run([], [])
        assert len(batch) == 0 and batch.earliest == []


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
