"""Tests for the cross-request prefetcher over shared expert residency."""

import pytest

from repro.moe import get_config
from repro.serving import CrossRequestPrefetcher, IterationSimulator, ModelPlacement
from repro.system.hardware import PAPER_SYSTEM
from repro.system.performance import GpuLatencyModel
from repro.system.timeline import ArrayTimeline
from repro.workloads import TraceGenerator

CONFIG = get_config("switch_base_64")


def make_stack(design="ondemand", capacity=64, policy="lru"):
    placement = ModelPlacement(CONFIG, PAPER_SYSTEM, offload_experts=True,
                               cache_policy=policy, cache_capacity=capacity)
    placement.load_model()
    simulator = IterationSimulator(CONFIG, PAPER_SYSTEM,
                                   GpuLatencyModel(PAPER_SYSTEM.gpu),
                                   design, placement)
    prefetcher = CrossRequestPrefetcher(placement.residency)
    return placement, simulator, prefetcher


def decode(simulator, timeline, activations, **kwargs):
    """Emit one decoder iteration as a batch and commit it to ``timeline``."""
    batch = timeline.begin_batch()
    simulator.emit_decoder_iteration(batch, activations, **kwargs)
    timeline.commit_batch(batch)


def activations_for(seed=6):
    return TraceGenerator(CONFIG, seed=seed).iteration_activations(
        1, CONFIG.num_moe_blocks("decoder"))


class TestPrefetchRound:
    def test_identical_requests_share_one_fetch(self):
        placement, simulator, prefetcher = make_stack()
        activations = activations_for()
        plan = simulator.make_plan("decoder", activations)

        timeline = ArrayTimeline(record_trace=True)
        batch_round = prefetcher.begin_round()
        for _ in range(3):
            batch_round.register_plan(placement, "decoder", plan, activations)
        for request_id in range(3):
            decode(simulator, timeline, activations,
                   batch_round=batch_round, label=f"r{request_id}.")
        copies = timeline.ops_by_category("expert_transfer")
        unique = sum(len(block) for block in activations)
        assert len(copies) == unique               # one migration per expert
        assert placement.residency.stats.misses == unique
        # All experts released to refcount zero and retained for later rounds.
        assert placement.residency.retained_count == unique
        assert placement.gpu_pool.category_usage("experts") == unique * CONFIG.expert_bytes()

    def test_second_round_hits_retained_experts(self):
        placement, simulator, prefetcher = make_stack()
        activations = activations_for()
        timeline = ArrayTimeline(record_trace=True)
        for round_index in range(2):
            batch_round = prefetcher.begin_round()
            plan = simulator.make_plan("decoder", activations)
            batch_round.register_plan(placement, "decoder", plan, activations)
            decode(simulator, timeline, activations,
                   batch_round=batch_round, label=f"it{round_index}.",
                   plan=plan)
            batch_round.drain(placement)
        unique = sum(len(block) for block in activations)
        copies = timeline.ops_by_category("expert_transfer")
        assert len(copies) == unique               # round 2 re-fetched nothing
        assert placement.residency.stats.hits == unique
        assert placement.residency.stats.bytes_saved == unique * CONFIG.expert_bytes()
        assert prefetcher.rounds == 2

    def test_registration_pins_resident_experts(self):
        """A plan that assumes residency pins those experts for the round."""
        placement, _, prefetcher = make_stack(capacity=2)
        residency = placement.residency
        residency.pin((0, 5))
        residency.release((0, 5))                  # retained, unpinned
        batch_round = prefetcher.begin_round()

        from repro.core.migration import MigrationPlan
        plan = MigrationPlan(design="ondemand")    # nothing to transfer...
        batch_round.register_plan(placement, "encoder", plan, [[5]])
        assert residency.pins((0, 5)) == 1         # ...but block 0 relies on expert 5
        assert batch_round.is_fetched((0, 5))
        assert batch_round.copy_op((0, 5)) is None  # resident: no dependency

        for key in batch_round.release_keys(placement, "encoder", plan, [[5]], 0):
            batch_round.release(placement, key)
        assert residency.pins((0, 5)) == 0
        assert residency.is_resident((0, 5))       # back to retained

    def test_zero_capacity_round_frees_everything(self):
        placement, simulator, prefetcher = make_stack(capacity=0)
        activations = activations_for()
        plan = simulator.make_plan("decoder", activations)
        timeline = ArrayTimeline(record_trace=True)
        batch_round = prefetcher.begin_round()
        batch_round.register_plan(placement, "decoder", plan, activations)
        decode(simulator, timeline, activations,
               batch_round=batch_round, plan=plan)
        batch_round.drain(placement)
        assert len(placement.residency) == 0
        assert placement.gpu_pool.category_usage("experts") == 0

    def test_drain_hands_back_held_pins(self):
        placement, _, prefetcher = make_stack(capacity=8)
        residency = placement.residency
        residency.pin((0, 3))
        residency.release((0, 3))
        batch_round = prefetcher.begin_round()
        from repro.core.migration import MigrationPlan
        batch_round.register_plan(placement, "encoder", MigrationPlan(design="ondemand"),
                                  [[3]])
        assert residency.pins((0, 3)) == 1
        batch_round.drain(placement)               # abnormal exit: round abandoned
        assert residency.pins((0, 3)) == 0
        assert residency.is_resident((0, 3))

    def test_prefetcher_requires_residency(self):
        with pytest.raises(ValueError):
            CrossRequestPrefetcher(None)


class TestPlanIntegration:
    def test_make_plan_skips_retained_experts(self):
        placement, simulator, _ = make_stack(design="pregated", capacity=16)
        residency = placement.residency
        activations = [[1, 2]] + [[0]] * (CONFIG.num_moe_blocks("decoder") - 1)
        full_plan = simulator.make_plan("decoder", activations)
        # Make expert 1 of decoder block 0 resident (global index offset by
        # the encoder blocks) and re-plan: one transfer disappears.
        gb = placement.global_block_index("decoder", 0)
        residency.pin((gb, 1))
        residency.release((gb, 1))
        lean_plan = simulator.make_plan("decoder", activations)
        assert lean_plan.total_experts() == full_plan.total_experts() - 1
        assert all(not (t.block_index == 0 and t.expert_id == 1)
                   for t in lean_plan.transfers)
