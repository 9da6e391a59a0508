"""Steady-state round replay: fast-forwarded serving equals step-by-step.

The replay controller (:class:`repro.serving.scheduler._RoundReplay`)
detects structurally identical decode rounds and advances them in closed
form instead of re-simulating each one.  These tests pin its contract:

* serve-level parity — for every single-replica scenario in the matrix,
  replay-enabled serving matches the replay-disabled kernel engine to
  1e-9 on the makespan, every request's token clock, device utilisation
  and the byte/op counters (which must be *exactly* equal: replay may
  only skip rounds it can reproduce, never approximate counters);
* replay engages on plain single-GPU and multi-GPU shard placements
  whenever the workload reaches a steady state whose rounds are
  structurally identical (for shards that is the hot-expert regime:
  stable activations, so a stable owner-device pattern);
* it stands down, with exact parity preserved, when the steady state
  genuinely churns (low-skew routing over a shard map), when trace
  recording needs every op materialised, and up front on any placement
  with an expert cache or DRAM stage (even at capacity 0): no controller
  is built there;
* boundary behaviour — staggered arrivals and completions land on the
  same timestamps with and without replay, i.e. fast-forward windows
  never cross an admission or completion event;
* every planned window that stands down is counted under the reason it
  stood down for;
* the scheduler defaults to the array timeline with replay on.
"""

import numpy as np
import pytest

from repro.moe import get_config
from repro.serving import make_scheduler
from repro.serving.metrics import merge_load_results
from repro.serving.scheduler import ContinuousBatchingScheduler, _RoundReplay
from repro.system import SSD_SYSTEM
from repro.system.timeline import ArrayTimeline
from repro.workloads import TimedRequest, TraceGenerator

CONFIG = get_config("switch_base_64")

#: Routing skew of the "mixed" regime: enough of a hot set for the plain
#: scenarios' anonymised signatures to chain, but shard maps see churning
#: owner devices and must stand down.
MIXED_SKEW = 1.2
#: Routing skew of the hot-expert steady state: decode rounds activate a
#: stable expert set, so owner-device patterns repeat and replay engages
#: on shard maps.
HOT_SKEW = 8.0

#: Single-replica serving matrix: design + scheduler knobs + whether replay
#: must engage + the routing skew that produces the scenario's regime.
SCENARIOS = {
    "pregated": ("pregated", {}, True, MIXED_SKEW),
    "ondemand": ("ondemand", {}, True, MIXED_SKEW),
    "prefetch_all": ("prefetch_all", {}, True, MIXED_SKEW),
    "gpu_only": ("gpu_only", {}, True, MIXED_SKEW),
    "ondemand_ssd": ("ondemand", {"system": SSD_SYSTEM}, True, MIXED_SKEW),
    # Multi-GPU shards: the emitted round (dispatch/combine all-to-alls,
    # per-device exec ops) follows the experts' owner devices, so replay
    # engages once the hot expert set — and with it the device pattern —
    # is stable.
    "pregated_2gpu": ("pregated", {"num_gpus": 2}, True, HOT_SKEW),
    "ondemand_4gpu": ("ondemand", {"num_gpus": 4,
                                   "shard_policy": "round_robin"}, True,
                      HOT_SKEW),
    # DRAM stage / expert caches: replay stands down up front on any
    # residency map, in every regime and at every capacity (0 included);
    # serving must still match the replay-off kernel exactly.
    "pregated_ssd_staged": ("pregated", {"system": SSD_SYSTEM,
                                         "stage_policy": "lru",
                                         "stage_capacity": 64}, False,
                            HOT_SKEW),
    "pregated_cached": ("pregated", {"cache_policy": "lru",
                                     "cache_capacity": 32}, False, HOT_SKEW),
    "pregated_cached_lifo": ("pregated", {"cache_policy": "lifo",
                                          "cache_capacity": 32}, False,
                             HOT_SKEW),
    "pregated_cached_lfu": ("pregated", {"cache_policy": "lfu",
                                         "cache_capacity": 32}, False,
                            HOT_SKEW),
    "pregated_cached_cap0": ("pregated", {"cache_policy": "lru",
                                          "cache_capacity": 0}, False,
                             MIXED_SKEW),
    "pregated_staged_cap0": ("pregated", {"system": SSD_SYSTEM,
                                          "stage_policy": "lru",
                                          "stage_capacity": 0}, False,
                             MIXED_SKEW),
    "pregated_cached_2gpu": ("pregated", {"num_gpus": 2,
                                          "cache_policy": "lru",
                                          "cache_capacity": 32}, False,
                             HOT_SKEW),
    "pregated_cached_churn": ("pregated", {"cache_policy": "lru",
                                           "cache_capacity": 32}, False,
                              MIXED_SKEW),
    # Honest stand-down: churning experts over a shard map flip the
    # owner-device pattern, so no window is ever exactly replayable — the
    # controller must keep out of the way.
    "pregated_2gpu_churn": ("pregated", {"num_gpus": 2}, False, MIXED_SKEW),
}


def steady_requests(n=5, out=40, gap=0.05, skew=MIXED_SKEW, seed=11):
    gen = TraceGenerator(CONFIG, skew=skew, seed=seed)
    return [TimedRequest(request_id=i, arrival_time=gap * i,
                         trace=gen.request_trace(input_length=6,
                                                 output_length=out))
            for i in range(n)]


def serve(design, kwargs, replay, requests):
    scheduler = make_scheduler(design, CONFIG, max_batch_size=2,
                               round_replay=replay, **kwargs)
    return scheduler.serve(requests)


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


def assert_replay_parity(kernel, replayed, label):
    """Replay-enabled result vs the step-by-step kernel result."""
    assert rel(kernel.makespan, replayed.makespan) < 1e-9, label
    # Structural and byte counters are exact: replay only skips rounds whose
    # counter deltas it reproduced bit-for-bit.
    assert replayed.timeline_total_ops == kernel.timeline_total_ops, label
    assert replayed.expert_bytes_transferred == \
        kernel.expert_bytes_transferred, label
    assert replayed.peak_gpu_bytes == kernel.peak_gpu_bytes, label
    assert replayed.alltoall_bytes == kernel.alltoall_bytes, label
    if kernel.tier_stats is not None:
        assert replayed.tier_stats.as_dict() == \
            kernel.tier_stats.as_dict(), label
    if kernel.cache_stats is not None:
        assert replayed.cache_stats.as_dict() == \
            kernel.cache_stats.as_dict(), label
    # Every request's every token lands on the same clock (1e-9: token
    # clocks inside a window are extrapolated quadratics).
    for a, b in zip(kernel.requests, replayed.requests):
        assert len(a.token_times) == len(b.token_times), label
        for x, y in zip(a.token_times, b.token_times):
            assert rel(x, y) < 1e-9, (label, a.request_id)
        assert rel(a.completion_time, b.completion_time) < 1e-9, label
        assert rel(a.first_token_time, b.first_token_time) < 1e-9, label
    for u_k, u_r in zip(kernel.device_utilisation, replayed.device_utilisation):
        assert rel(u_k, u_r) < 1e-9, label


class TestServeParityMatrix:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_replay_matches_step_by_step(self, name):
        design, kwargs, expect_replay, skew = SCENARIOS[name]
        requests = steady_requests(skew=skew)
        kernel = serve(design, kwargs, False, requests)
        replayed = serve(design, kwargs, True, requests)
        assert_replay_parity(kernel, replayed, name)
        if expect_replay:
            assert replayed.replay_windows > 0, name
            assert replayed.replay_rounds >= replayed.replay_windows
            assert replayed.replay_ops > 0
        else:
            # A residency map or a churning shard pattern: the controller
            # must never fire — correctness over speed.
            assert replayed.replay_windows == 0, name
            assert replayed.replay_ops == 0, name


class TestReplayEngagement:
    def test_replay_skips_most_steady_decode_rounds(self):
        """Batch-1 decode (the paper's serving mode) replays almost fully.

        A solo top-1 request's decode rounds all share one structural
        signature, so after the 4-round history warms up the controller
        should fast-forward nearly the whole generation.
        """
        requests = steady_requests(n=2, out=96, gap=0.0)
        scheduler = make_scheduler("pregated", CONFIG, max_batch_size=1,
                                   round_replay=True)
        replayed = scheduler.serve(requests)
        kernel = make_scheduler("pregated", CONFIG, max_batch_size=1,
                                round_replay=False).serve(requests)
        assert_replay_parity(kernel, replayed, "steady_decode")
        # Long identical decode tails: replay should cover over half the ops.
        assert replayed.replay_ops > replayed.timeline_total_ops / 2
        assert replayed.replay_rounds > 0

    @pytest.mark.parametrize("name", ["pregated_2gpu"])
    def test_hot_steady_state_replays_meaningful_share(self, name):
        """Multi-GPU shards in the hot regime replay a real share of the
        rounds."""
        design, kwargs, _, skew = SCENARIOS[name]
        requests = steady_requests(skew=skew)
        scheduler = make_scheduler(design, CONFIG, max_batch_size=2,
                                   round_replay=True, **kwargs)
        replayed = scheduler.serve(requests)
        assert replayed.replay_windows > 0, name
        assert replayed.replay_ops > replayed.timeline_total_ops / 4, name

    @pytest.mark.parametrize("knobs,mapped", [
        ({"cache_policy": "lru", "cache_capacity": 0}, True),
        ({"cache_policy": "lru", "cache_capacity": 32}, True),
        ({"system": SSD_SYSTEM, "stage_policy": "lru", "stage_capacity": 0},
         True),
        ({"system": SSD_SYSTEM, "stage_policy": "lru", "stage_capacity": 64},
         True),
        # The tiered perf workload's placement: 2 GPUs, cache and stage.
        ({"system": SSD_SYSTEM, "num_gpus": 2, "shard_policy": "round_robin",
          "cache_policy": "lru", "cache_capacity": 64,
          "stage_policy": "lru", "stage_capacity": 256}, True),
        ({"num_gpus": 2}, False),
    ], ids=["cache0", "cache32", "stage0", "stage64", "tiered_2gpu",
            "unmapped_2gpu"])
    def test_residency_maps_stand_down_up_front(self, knobs, mapped):
        """Any cache or stage map, whatever its capacity: no controller."""
        scheduler = make_scheduler("pregated", CONFIG, max_batch_size=2,
                                   round_replay=True, **knobs)
        result = scheduler.serve(steady_requests(n=2, out=8))
        if mapped:
            assert scheduler.last_replay is None
            assert result.replay_standdowns == {}
        else:
            assert isinstance(scheduler.last_replay, _RoundReplay)

    def test_trace_recording_disables_replay(self):
        requests = steady_requests(n=2, out=24)
        scheduler = make_scheduler("pregated", CONFIG, max_batch_size=2,
                                   round_replay=True, record_trace=True)
        result = scheduler.serve(requests)
        assert result.replay_windows == 0
        # The trace really contains every op it claims to cover.
        assert len(scheduler.last_timeline.ops) == result.timeline_total_ops

    def test_replay_respects_arrival_boundaries(self):
        """Late arrivals are admitted at the same round with replay on.

        Request 0 decodes solo with a free batch slot while the later
        arrivals are still pending, so every replay window is clipped by
        the arrival bound; parity on every token/completion clock proves
        no window ever skipped past an admission.
        """
        gen = TraceGenerator(CONFIG, skew=1.2, seed=7)
        requests = [TimedRequest(request_id=i, arrival_time=arrival,
                                 trace=gen.request_trace(input_length=6,
                                                         output_length=48))
                    for i, arrival in enumerate([0.0, 0.35, 0.9, 1.3])]
        kernel = serve("pregated", {}, False, requests)
        replayed = serve("pregated", {}, True, requests)
        assert_replay_parity(kernel, replayed, "arrivals")
        assert replayed.replay_windows > 0


def poisson_requests(n=24, rate=5.0, out=24, seed=1):
    gen = TraceGenerator(CONFIG, skew=MIXED_SKEW, seed=seed)
    arrivals = np.cumsum(np.random.default_rng(seed).exponential(1.0 / rate,
                                                                 size=n))
    return [TimedRequest(request_id=i, arrival_time=float(arrivals[i]),
                         trace=gen.request_trace(input_length=8,
                                                 output_length=out))
            for i in range(n)]


class TestStanddownCounts:
    def test_batch8_poisson_counts_every_failed_plan(self, monkeypatch):
        """Each ``try_apply`` that returns False is counted exactly once."""
        outcomes = []
        try_apply = _RoundReplay.try_apply

        def recording(self, *args):
            applied = try_apply(self, *args)
            outcomes.append(applied)
            return applied

        monkeypatch.setattr(_RoundReplay, "try_apply", recording)
        result = make_scheduler("pregated", CONFIG, max_batch_size=8,
                                probe_interval=0.05).serve(poisson_requests())
        counts = result.replay_standdowns
        assert tuple(counts) == _RoundReplay.STANDDOWN_REASONS
        assert sum(counts.values()) == outcomes.count(False) > 0
        assert result.replay_windows == outcomes.count(True) > 0
        assert result.summary()["replay_standdowns"] == counts
        # The probe gauges end on the same counts.
        for reason, count in counts.items():
            assert result.probes.gauges[
                f"replay_standdowns.{reason}"].last == count

    def test_counts_sum_across_replicas(self):
        result = make_scheduler("pregated", CONFIG, max_batch_size=8).serve(
            poisson_requests())
        merged = merge_load_results([result, result])
        assert merged.replay_standdowns == {
            reason: 2 * count
            for reason, count in result.replay_standdowns.items()}

    def test_disabled_replay_reports_no_standdowns(self):
        result = make_scheduler("pregated", CONFIG, max_batch_size=8,
                                round_replay=False).serve(poisson_requests())
        assert result.replay_standdowns == {}


class TestKnobValidation:
    def test_defaults_are_array_with_replay(self):
        scheduler = ContinuousBatchingScheduler("pregated", CONFIG)
        assert scheduler.round_replay is True
        scheduler.serve(steady_requests(n=1, out=4))
        assert type(scheduler.last_timeline) is ArrayTimeline
