"""The timeline kernel against the independent reference on real serve batches.

Every :class:`~repro.system.timeline.OpBatch` a replay-off serve hands to
:meth:`ArrayTimeline.commit_batch` is captured with the kernel's start/end
arrays, then re-committed in order into the test-only
:class:`~tests.system.reference_timeline.ReferenceTimeline`, a naive per-op
scheduler that shares no scheduling or aggregate code with the kernel.
Times must agree bit for bit; summed aggregates (which the kernel folds per
batch) to 1e-9.  Kernels broken in each of the ways the oracle exists to
catch must fail the same comparison.

The scenarios cover the op shapes serving produces: plain rounds, expert
caches, SSD fetches through a DRAM stage, expert-parallel shards whose
trailing all-to-all combines carry into the next round's batch (one
request at a time, and four at once under Poisson arrivals), and Poisson
arrivals that gate ops through ``earliest_start``.
"""

import copy

import numpy as np
import pytest

from repro.moe import get_config
from repro.serving import make_scheduler
from repro.system import SSD_SYSTEM
from repro.system.timeline import ArrayTimeline, Stream, category_code
from repro.workloads import TimedRequest, TraceGenerator

from ..system.reference_timeline import ReferenceTimeline

CONFIG = get_config("switch_base_64")

#: name → (design, scheduler kwargs, Poisson arrivals?).  The batch-1 2-GPU
#: case serves one request at a time, so a request's next pass directly
#: follows its previous one on device 0 and the carried combine gates it;
#: the batch-4 one carries several requests' combines into one round.
SCENARIOS = {
    "pregated_plain": ("pregated", {}, False),
    "ondemand_lru": ("ondemand", {"cache_policy": "lru",
                                  "cache_capacity": 32}, False),
    "pregated_ssd_stage": ("pregated", {"system": SSD_SYSTEM,
                                        "stage_policy": "lru",
                                        "stage_capacity": 64}, False),
    "pregated_2gpu": ("pregated", {"num_gpus": 2, "max_batch_size": 1},
                      False),
    "pregated_2gpu_b4_poisson": ("pregated", {"num_gpus": 2}, True),
    "prefetch_all_poisson": ("prefetch_all", {}, True),
}

CATEGORIES = ("non_moe", "gate", "sync", "expert_transfer",
              "expert_execution", "stage_in", "alltoall")


def requests_for(poisson: bool):
    generator = TraceGenerator(CONFIG, skew=1.2, seed=3)
    rng = np.random.default_rng(3)
    arrivals = (np.cumsum(rng.exponential(1.0 / 40.0, size=6)) if poisson
                else np.zeros(6))
    return [TimedRequest(request_id=i, arrival_time=float(arrivals[i]),
                         trace=generator.request_trace(input_length=8,
                                                       output_length=5))
            for i in range(6)]


def captured_serve(monkeypatch, name):
    """Serve one scenario with replay off.

    Returns the load result, the kernel timeline and every committed batch
    with the kernel's start/end arrays.
    """
    design, kwargs, poisson = SCENARIOS[name]
    captured = []
    commit = ArrayTimeline.commit_batch

    def recording_commit(self, batch):
        starts, ends = commit(self, batch)
        captured.append((batch, starts.copy(), ends.copy()))
        return starts, ends

    with monkeypatch.context() as patch:
        patch.setattr(ArrayTimeline, "commit_batch", recording_commit)
        scheduler = make_scheduler(design, CONFIG, round_replay=False,
                                   **{"max_batch_size": 4, **kwargs})
        result = scheduler.serve(requests_for(poisson))
    return result, scheduler.last_timeline, captured


def assert_matches_reference(kernel, committed):
    """``kernel`` committed ``committed`` [(batch, starts, ends)]; check it.

    Starts and ends must be bit-identical to the reference's; every
    aggregate the kernel reports must match the reference's brute-force
    value to 1e-9 (exactly for counts).
    """
    reference = ReferenceTimeline()
    for batch, starts, ends in committed:
        ref_starts, ref_ends = reference.commit(batch)
        assert starts.tolist() == ref_starts
        assert ends.tolist() == ref_ends

    assert kernel.num_ops == reference.num_ops
    assert kernel.makespan == reference.makespan
    assert kernel.devices() == reference.devices()
    assert kernel.exposed_copy_time() == pytest.approx(
        reference.exposed_copy_time(), abs=1e-9)
    for device in reference.devices():
        assert kernel.exposed_copy_time(device) == pytest.approx(
            reference.exposed_copy_time(device), abs=1e-9)
        assert kernel.device_utilisation(device) == pytest.approx(
            reference.device_utilisation(device), abs=1e-9)
        for stream in Stream:
            assert kernel.stream_busy_time(stream, device) == pytest.approx(
                reference.stream_busy_time(stream, device), abs=1e-9)
            assert kernel.stream_free_time(stream, device) == \
                reference.stream_free_time(stream, device)
    for category in CATEGORIES:
        assert kernel.category_count(category) == \
            reference.category_count(category)
        assert kernel.category_time(category) == pytest.approx(
            reference.category_time(category), abs=1e-9)
        assert kernel.category_bytes(category) == pytest.approx(
            reference.category_bytes(category), abs=1e-9)
    return reference


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_kernel_matches_reference(monkeypatch, name):
    _, kernel, batches = captured_serve(monkeypatch, name)
    assert len(batches) > 1
    reference = assert_matches_reference(kernel, batches)
    # The sums compared above are non-trivial: every scenario moves bytes,
    # stalls compute on a transfer and runs the core op categories.
    present = {c for c in CATEGORIES if reference.category_time(c)}
    assert {"non_moe", "gate", "expert_execution",
            "expert_transfer"} <= present
    assert reference.category_bytes("expert_transfer") > 0.0
    assert reference.exposed_copy_time() > 0.0


class _StaleLaneClock(dict):
    """Lane clocks read one op late: the end of the op before the last."""

    def __init__(self):
        super().__init__()
        self.previous = {}

    def __setitem__(self, lane, end):
        self.previous[lane] = dict.get(self, lane, 0.0)
        super().__setitem__(lane, end)

    def get(self, lane, default=None):
        return self.previous.get(lane, default)


class _ForgetfulDeps(dict):
    """Ops of earlier batches read as having ended at time 0."""

    def get(self, op_id, default=None):
        info = super().get(op_id, default)
        return info if info is None else (0.0, info[1])


class _DroppedStalls(dict):
    """Compute stalls are never booked as exposed copy time."""

    def __setitem__(self, device, stall):
        pass


class LaneFreeOffByOne(ArrayTimeline):
    def __init__(self):
        super().__init__()
        self._lane_free = _StaleLaneClock()


class IgnoresEarliestStart(ArrayTimeline):
    def commit_batch(self, batch):
        ungated = copy.copy(batch)
        ungated.earliest = [0.0] * len(batch)
        return super().commit_batch(ungated)


class IgnoresCrossBatchDeps(ArrayTimeline):
    def __init__(self):
        super().__init__()
        self._live_info = _ForgetfulDeps()


class UncountedStalls(ArrayTimeline):
    def __init__(self):
        super().__init__()
        self._lane_exposed = _DroppedStalls()


#: Broken kernel → the scenario whose op shapes expose the flaw.
BROKEN_KERNELS = {
    "lane_free_off_by_one": (LaneFreeOffByOne, "pregated_plain"),
    "earliest_start_ignored": (IgnoresEarliestStart, "prefetch_all_poisson"),
    "cross_batch_deps_ignored": (IgnoresCrossBatchDeps, "pregated_2gpu"),
    "stalls_not_exposed": (UncountedStalls, "ondemand_lru"),
}


def recommit(kernel, batches):
    return [(batch, *kernel.commit_batch(batch)) for batch, _, _ in batches]


@pytest.mark.parametrize("broken", sorted(BROKEN_KERNELS))
def test_reference_catches_broken_kernel(monkeypatch, broken):
    """The oracle can fail: each deliberately broken kernel is caught."""
    broken_kernel, scenario = BROKEN_KERNELS[broken]
    _, _, batches = captured_serve(monkeypatch, scenario)
    sound = ArrayTimeline()
    assert_matches_reference(sound, recommit(sound, batches))
    kernel = broken_kernel()
    with pytest.raises(AssertionError):
        assert_matches_reference(kernel, recommit(kernel, batches))


@pytest.mark.parametrize("name,feature", [
    ("pregated_2gpu", "carried"), ("prefetch_all_poisson", "gated"),
    ("pregated_ssd_stage", "staged"), ("ondemand_lru", "cached"),
    ("pregated_2gpu_b4_poisson", "batched_alltoall")])
def test_scenarios_exercise_their_op_shapes(monkeypatch, name, feature):
    """Each scenario really emits the op shape it is in the matrix for."""
    result, _, batches = captured_serve(monkeypatch, name)
    if feature == "batched_alltoall":
        # A round holding several all-to-alls has an op past its first one
        # (so another request's ops precede it) waiting on a combine
        # carried in from an earlier round.
        alltoall = category_code("alltoall")
        assert any(
            batch.category.count(alltoall) > 2
            and any(dep < batch.base_id
                    for dep in batch.dep_ids[batch.dep_offsets[1]:])
            for batch, _, _ in batches)
        assert any(start > 0.0 for batch, _, _ in batches
                   for start in batch.earliest)
    elif feature == "carried":
        # A combine emitted in one round gates an op of the next round:
        # the op starts exactly when the carried dependency ends.
        end_of = {batch.base_id + i: end for batch, _, ends in batches
                  for i, end in enumerate(ends.tolist())}
        assert any(starts[i] == end_of[dep] > 0.0
                   for batch, starts, _ in batches for i in range(len(batch))
                   for dep in batch.dep_ids[batch.dep_offsets[i]:
                                            batch.dep_offsets[i + 1]]
                   if dep < batch.base_id)
    elif feature == "gated":
        assert any(start > 0.0 for batch, _, _ in batches
                   for start in batch.earliest)
    elif feature == "staged":
        assert result.tier_stats.stage_hits > 0
        assert result.tier_stats.stage_misses > 0
    else:
        assert result.cache_stats.hits > 0


@pytest.mark.parametrize("num_gpus", [1, 2])
def test_trace_mode_emits_the_same_columns(monkeypatch, num_gpus):
    """One emission path: trace mode differs from no-trace only by names.

    A batch-8 Poisson stream is served with and without trace recording
    (replay off); every committed batch must carry identical columns, and
    every op of the traced serve a non-empty name.
    """
    committed = {True: [], False: []}
    commit = ArrayTimeline.commit_batch

    def recording_commit(self, batch):
        committed[self.record_trace].append(batch)
        return commit(self, batch)

    monkeypatch.setattr(ArrayTimeline, "commit_batch", recording_commit)
    generator = TraceGenerator(CONFIG, skew=1.2, seed=5)
    arrivals = np.cumsum(np.random.default_rng(5).exponential(1.0 / 20.0,
                                                              size=16))
    requests = [TimedRequest(request_id=i, arrival_time=float(arrivals[i]),
                             trace=generator.request_trace(input_length=8,
                                                           output_length=6))
                for i in range(16)]
    for record_trace in (True, False):
        make_scheduler("pregated", CONFIG, max_batch_size=8,
                       num_gpus=num_gpus, round_replay=False,
                       record_trace=record_trace).serve(requests)
    traced, plain = committed[True], committed[False]
    assert len(traced) == len(plain) > 1
    assert max(len(batch) for batch in plain) > 100
    for a, b in zip(traced, plain):
        for column in ("base_id", "stream", "device", "duration", "earliest",
                       "category", "num_bytes", "dep_ids", "dep_offsets"):
            assert getattr(a, column) == getattr(b, column), column
        assert b.names is None
        assert len(a.names) == len(a) and all(a.names)
