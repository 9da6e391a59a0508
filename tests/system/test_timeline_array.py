"""Array-kernel timeline parity: ``ArrayTimeline`` vs the per-op reference.

The batched columnar engine must be *the same simulator* as the per-op
:class:`ExecutionTimeline` reference, not an approximation of it:

* randomized op streams (mixed streams/devices/deps/arrival gates, emitted
  through both scalar adds and multi-op batches) produce bit-identical
  start/end times on both engines, and every summed aggregate matches to
  1e-9 (the kernel folds sums with vectorized reductions, which may
  reassociate float additions);
* the trace-recording array engine reconstructs the full per-op trace
  (``ops``/``to_records``/``stream_ops``) identically to the scalar one;
* batch validation points at the offending op and lane, exactly like the
  scalar validation (same message, either engine);
* ``fast_forward`` applies absolute aggregate values and refuses trace
  mode and makespan rewinds on both engines.
"""

import random

import pytest

from repro.system.timeline import (STREAM_CODE, ArrayTimeline,
                                   ExecutionTimeline, Stream, category_code)

STREAMS = (Stream.COMPUTE, Stream.COPY, Stream.STAGE, Stream.INTERCONNECT)
#: Contracts both timeline classes honour identically.
BOTH_TIMELINES = pytest.mark.parametrize(
    "engine", (ArrayTimeline, ExecutionTimeline), ids=["array", "reference"])
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


def run_scalar(program, record_trace):
    timeline = ExecutionTimeline(record_trace=record_trace)
    times = []
    for round_ops in program:
        for spec in program_round(timeline, round_ops):
            times.append(spec)
    return timeline, times


def program_round(timeline, round_ops):
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


def assert_aggregate_parity(scalar, array):
    # Time-like maxima are bit-identical; summed aggregates may be folded in
    # a different association order, so 1e-9.
    assert array.makespan == scalar.makespan
    assert array.num_ops == scalar.num_ops
    for stream in STREAMS:
        for device in (None, 0, 1):
            assert array.stream_busy_time(stream, device) == pytest.approx(
                scalar.stream_busy_time(stream, device), abs=1e-9)
            assert array.stream_free_time(stream, device) == \
                scalar.stream_free_time(stream, device)
    assert array.devices() == scalar.devices()
    for device in scalar.devices():
        assert array.device_utilisation(device) == pytest.approx(
            scalar.device_utilisation(device), abs=1e-9)
        assert array.exposed_copy_time(device) == pytest.approx(
            scalar.exposed_copy_time(device), abs=1e-9)
    for category in CATEGORIES:
        assert array.category_count(category) == scalar.category_count(category)
        assert array.category_time(category) == pytest.approx(
            scalar.category_time(category), abs=1e-9)
        assert array.category_bytes(category) == pytest.approx(
            scalar.category_bytes(category), abs=1e-9)
    assert array.overlap_efficiency() == pytest.approx(
        scalar.overlap_efficiency(), abs=1e-9)


class TestRandomizedParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_batched_kernel_matches_scalar_engine(self, seed):
        program = random_program(random.Random(seed))
        scalar, scalar_times = run_scalar(program, record_trace=False)
        array, array_times = run_array(program, record_trace=False)
        # Start/end chains are max() compositions — bit-identical.
        assert array_times == scalar_times
        assert_aggregate_parity(scalar, array)

    @pytest.mark.parametrize("seed", range(4))
    def test_scalar_adds_on_array_engine_match(self, seed):
        """ArrayTimeline.add (one-op batches) is the same kernel."""
        program = random_program(random.Random(seed), num_rounds=6)
        scalar, scalar_times = run_scalar(program, record_trace=False)
        array = ArrayTimeline(record_trace=False)
        array_times = []
        for round_ops in program:
            array_times.extend(program_round(array, round_ops))
        assert array_times == scalar_times
        assert_aggregate_parity(scalar, array)

    @pytest.mark.parametrize("seed", range(4))
    def test_trace_reconstruction_matches_scalar_trace(self, seed):
        program = random_program(random.Random(seed), num_rounds=6)
        scalar, _ = run_scalar(program, record_trace=True)
        array, _ = run_array(program, record_trace=True)
        assert array.to_records() == scalar.to_records()
        for stream in STREAMS:
            scalar_ops = scalar.stream_ops(stream)
            array_ops = array.stream_ops(stream)
            assert [op.op_id for op in array_ops] == \
                [op.op_id for op in scalar_ops]
            for a, b in zip(array_ops, scalar_ops):
                assert (a.start, a.end, a.duration, a.device) == \
                    (b.start, b.end, b.duration, b.device)
                assert a.depends_on == b.depends_on
        assert array.scan_makespan() == scalar.scan_makespan()
        assert array.scan_exposed_copy_time() == pytest.approx(
            scalar.scan_exposed_copy_time(), abs=1e-9)


class TestBatchValidation:
    @BOTH_TIMELINES
    def test_negative_duration_names_op_and_lane(self, engine):
        timeline = engine(record_trace=True)
        batch = timeline.begin_batch()
        batch.add(0, 1.0, name="warmup")
        batch.add(1, -0.5, device=2, name="bad_copy")
        with pytest.raises(ValueError, match=r"'bad_copy'.*copy, device 2"):
            timeline.commit_batch(batch)

    @BOTH_TIMELINES
    def test_unknown_dependency_names_op(self, engine):
        timeline = engine(record_trace=True)
        batch = timeline.begin_batch()
        batch.add(0, 1.0, deps=[41], name="orphan")
        with pytest.raises(ValueError, match=r"'orphan'.*41"):
            timeline.commit_batch(batch)

    @BOTH_TIMELINES
    def test_batches_may_not_interleave(self, engine):
        timeline = engine(record_trace=True)
        batch = timeline.begin_batch()
        batch.add(0, 1.0)
        timeline.add("sneaky", Stream.COMPUTE, 1.0)
        with pytest.raises(RuntimeError, match="interleave"):
            timeline.commit_batch(batch)


class TestFastForward:
    @BOTH_TIMELINES
    def test_fast_forward_applies_absolute_aggregates(self, engine):
        timeline = engine(record_trace=False)
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

    @BOTH_TIMELINES
    def test_fast_forward_refuses_trace_mode_and_rewinds(self, engine):
        traced = engine(record_trace=True)
        traced.add("seed", Stream.COMPUTE, 1.0)
        with pytest.raises(RuntimeError, match="record_trace"):
            traced.fast_forward(num_ops=1, **traced.replay_snapshot())
        plain = engine(record_trace=False)
        plain.add("seed", Stream.COMPUTE, 1.0)
        snapshot = plain.replay_snapshot()
        snapshot["makespan"] = 0.5
        with pytest.raises(ValueError, match="rewind"):
            plain.fast_forward(num_ops=1, **snapshot)
