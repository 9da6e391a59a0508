"""The array kernel against the per-op reference on real serve batches.

Every :class:`~repro.system.timeline.OpBatch` a replay-off serve hands to
:meth:`ArrayTimeline.commit_batch` is captured with the kernel's start/end
arrays, then re-committed in order into a fresh trace-recording
:class:`~repro.system.timeline.ExecutionTimeline`, which resolves the same
ops one :meth:`~ExecutionTimeline.add` at a time.  Times must agree bit for
bit; summed aggregates (which the kernel folds per batch) to 1e-9.

The scenarios cover the op shapes serving produces: plain rounds, expert
caches, SSD fetches through a DRAM stage, expert-parallel shards whose
trailing all-to-all combines carry into the next round's batch, and Poisson
arrivals that gate ops through ``earliest_start``.
"""

import numpy as np
import pytest

from repro.moe import get_config
from repro.serving import make_scheduler
from repro.system import SSD_SYSTEM
from repro.system.timeline import ArrayTimeline, ExecutionTimeline, Stream
from repro.workloads import TimedRequest, TraceGenerator

CONFIG = get_config("switch_base_64")

#: name → (design, scheduler kwargs, Poisson arrivals?).  The 2-GPU case
#: serves one request at a time, so a request's next pass directly follows
#: its previous one on device 0 and the carried combine gates it.
SCENARIOS = {
    "pregated_plain": ("pregated", {}, False),
    "ondemand_lru": ("ondemand", {"cache_policy": "lru",
                                  "cache_capacity": 32}, False),
    "pregated_ssd_stage": ("pregated", {"system": SSD_SYSTEM,
                                        "stage_policy": "lru",
                                        "stage_capacity": 64}, False),
    "pregated_2gpu": ("pregated", {"num_gpus": 2, "max_batch_size": 1},
                      False),
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


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_kernel_matches_per_op_reference(monkeypatch, name):
    _, kernel, batches = captured_serve(monkeypatch, name)
    assert len(batches) > 1
    reference = ExecutionTimeline(record_trace=True)
    for batch, starts, ends in batches:
        ref_starts, ref_ends = reference.commit_batch(batch)
        assert starts.tolist() == ref_starts.tolist(), name
        assert ends.tolist() == ref_ends.tolist(), name

    assert kernel.num_ops == reference.num_ops
    assert kernel.makespan == pytest.approx(reference.makespan, abs=1e-9)
    assert kernel.exposed_copy_time() == pytest.approx(
        reference.exposed_copy_time(), abs=1e-9)
    assert kernel.devices() == reference.devices()
    # Sums are compared where the reference accumulated something, so no
    # check degenerates into 0.0 == 0.0.
    for device in reference.devices():
        assert kernel.device_utilisation(device) == pytest.approx(
            reference.device_utilisation(device), abs=1e-9)
        for stream in Stream:
            busy = reference.stream_busy_time(stream, device)
            if busy:
                assert kernel.stream_busy_time(stream, device) == \
                    pytest.approx(busy, abs=1e-9)
    present = [c for c in CATEGORIES if reference.category_count(c)]
    assert {"non_moe", "gate", "expert_execution"} <= set(present)
    for category in CATEGORIES:
        assert kernel.category_count(category) == \
            reference.category_count(category)
    for category in present:
        assert kernel.category_time(category) == pytest.approx(
            reference.category_time(category), abs=1e-9)
        moved = reference.category_bytes(category)
        if moved:
            assert kernel.category_bytes(category) == pytest.approx(
                moved, abs=1e-9)


@pytest.mark.parametrize("name,feature", [
    ("pregated_2gpu", "carried"), ("prefetch_all_poisson", "gated"),
    ("pregated_ssd_stage", "staged"), ("ondemand_lru", "cached")])
def test_scenarios_exercise_their_op_shapes(monkeypatch, name, feature):
    """Each scenario really emits the op shape it is in the matrix for."""
    result, _, batches = captured_serve(monkeypatch, name)
    if feature == "carried":
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
