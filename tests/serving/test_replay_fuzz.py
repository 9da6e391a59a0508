"""Adversarial / randomized fuzzing of the round-replay controller.

Replay is only allowed to fast-forward windows of *structurally
identical* rounds.  These tests attack that precondition directly with
hand-crafted traces whose adjacent rounds differ in exactly one aspect —
expert-collision sets, cache hit/miss outcomes, or shard (owner-device)
maps — and with randomized workloads across regimes.  The invariants:

* a window never forms across rounds that differ in any signature-bearing
  aspect (``replay_windows == 0`` on the alternating traces);
* anonymised expert identities are used only where they are sound: a
  plain placement replays rounds that rotate through equivalent experts,
  but the same rotation over a multi-GPU shard map must stand down
  (identity decides owner devices);
* a placement with an expert cache or DRAM stage never replays: the
  controller stands down up front there;
* whatever the controller decides, serving output matches the
  replay-disabled kernel exactly (parity is unconditional).
"""

import pytest

from repro.moe import get_config
from repro.serving import make_scheduler
from repro.system import SSD_SYSTEM
from repro.workloads import RequestTrace, TimedRequest, TraceGenerator

from .test_round_replay import assert_replay_parity

CONFIG = get_config("switch_base_64")
ENC_BLOCKS = CONFIG.num_moe_blocks("encoder")
DEC_BLOCKS = CONFIG.num_moe_blocks("decoder")


def crafted_request(request_id, per_round_experts, input_length=4):
    """A request whose decode round *i* activates ``per_round_experts[i]``.

    Every decoder MoE block of an iteration activates the same expert
    list, and the encoder pass activates expert 0 — the adversarial
    structure lives purely in the decode rounds.
    """
    decode = [[sorted(experts) for _ in range(DEC_BLOCKS)]
              for experts in per_round_experts]
    trace = RequestTrace(input_length=input_length,
                         output_length=len(per_round_experts),
                         encoder_activations=[[0] for _ in range(ENC_BLOCKS)],
                         decode_activations=decode)
    return TimedRequest(request_id=request_id, arrival_time=0.0, trace=trace)


def serve_pair(design, kwargs, requests, max_batch_size=2):
    """(kernel, replayed) results for the same workload."""
    results = []
    for replay in (False, True):
        scheduler = make_scheduler(design, CONFIG,
                                   max_batch_size=max_batch_size,
                                   round_replay=replay, **kwargs)
        results.append(scheduler.serve(list(requests)))
    return results


class TestAlternatingRoundsNeverReplay:
    """Adjacent rounds differ in one signature aspect -> no window, parity."""

    def test_differing_collision_sets(self):
        """Two-request batch alternating collide/diverge rounds.

        Odd rounds route both requests to expert 0 (full collision, one
        distinct expert per block); even rounds split them across experts
        0 and 1.  The round DAG differs every step, so no 4-round history
        can chain.
        """
        out = 32
        a = crafted_request(0, [[0]] * out)
        b = crafted_request(1, [[0] if i % 2 else [1] for i in range(out)])
        kernel, replayed = serve_pair("pregated", {}, [a, b])
        assert_replay_parity(kernel, replayed, "collision_sets")
        assert replayed.replay_windows == 0
        assert replayed.replay_ops == 0

    def test_differing_cache_outcomes(self):
        """A capacity-1 cache thrashed by two alternating experts.

        Every round misses and evicts the other expert, so the resident
        set alternates {0} / {1}; replay stands down on the cache.
        """
        out = 32
        req = crafted_request(0, [[i % 2] for i in range(out)])
        kernel, replayed = serve_pair(
            "pregated", {"cache_policy": "lru", "cache_capacity": 1}, [req],
            max_batch_size=1)
        assert_replay_parity(kernel, replayed, "cache_outcomes")
        assert replayed.replay_windows == 0
        assert kernel.cache_stats.misses > 0

    def test_differing_stage_outcomes(self):
        """DRAM-stage thrash: alternating stage hit/miss rounds stand down."""
        out = 32
        req = crafted_request(0, [[i % 2] for i in range(out)])
        kernel, replayed = serve_pair(
            "pregated", {"system": SSD_SYSTEM, "stage_policy": "lru",
                         "stage_capacity": 1}, [req], max_batch_size=1)
        assert_replay_parity(kernel, replayed, "stage_outcomes")
        assert replayed.replay_windows == 0

    def test_differing_shard_maps(self):
        """Rounds alternate between experts owned by different devices.

        Round-robin sharding over 2 GPUs puts experts 0 and 1 on
        different devices; alternating between them flips which device
        hosts the round's compute, so owner-aware signatures differ.
        """
        out = 32
        req = crafted_request(0, [[i % 2] for i in range(out)])
        kernel, replayed = serve_pair(
            "pregated", {"num_gpus": 2, "shard_policy": "round_robin"},
            [req], max_batch_size=1)
        assert_replay_parity(kernel, replayed, "shard_maps")
        assert replayed.replay_windows == 0


class TestAnonymisationBoundary:
    """Expert identity is abstracted away exactly where that is sound."""

    def test_rotating_experts_replay_on_plain_placement(self):
        """No cache, one GPU: rounds rotating through experts 0..7 are
        structurally interchangeable, so anonymised signatures chain and
        replay engages."""
        out = 48
        req = crafted_request(0, [[i % 8] for i in range(out)])
        kernel, replayed = serve_pair("pregated", {}, [req], max_batch_size=1)
        assert_replay_parity(kernel, replayed, "rotating_plain")
        assert replayed.replay_windows > 0

    def test_rotating_experts_stand_down_on_retentive_cache(self):
        """Same rotation over an LRU cache big enough to hold every
        (block, expert) key: every round hits after warmup and the round
        *structure* repeats, but the LRU order keeps mutating with
        different keys.  Anonymised matching would wrongly skip those
        policy updates; replay stands down on the cache."""
        out = 48
        req = crafted_request(0, [[i % 8] for i in range(out)])
        kernel, replayed = serve_pair(
            "pregated", {"cache_policy": "lru", "cache_capacity": 64},
            [req], max_batch_size=1)
        assert_replay_parity(kernel, replayed, "rotating_cached")
        assert replayed.replay_windows == 0
        # The workload really was all-hits after warmup (the dangerous case:
        # outcome-identical rounds with different keys).
        assert kernel.cache_stats.hits > kernel.cache_stats.misses

    def test_rotating_experts_stand_down_across_shards(self):
        """Rotating experts across a 2-GPU round-robin shard map bounce
        between owner devices; the owner-aware signature must not let an
        anonymised match replay device-0 rounds as device-1 rounds."""
        out = 48
        req = crafted_request(0, [[i % 8] for i in range(out)])
        kernel, replayed = serve_pair(
            "pregated", {"num_gpus": 2, "shard_policy": "round_robin"},
            [req], max_batch_size=1)
        assert_replay_parity(kernel, replayed, "rotating_sharded")
        assert replayed.replay_windows == 0

    def test_constant_expert_replays_everywhere(self):
        """Control: a truly constant round replays on every placement
        without a residency map, and on none with one."""
        out = 48
        req = crafted_request(0, [[3]] * out)
        for label, kwargs, replays in [
                ("plain", {}, True),
                ("cached", {"cache_policy": "lru", "cache_capacity": 16},
                 False),
                ("sharded", {"num_gpus": 2, "shard_policy": "round_robin"},
                 True),
                ("staged", {"system": SSD_SYSTEM, "stage_policy": "lru",
                            "stage_capacity": 16}, False)]:
            kernel, replayed = serve_pair("pregated", kwargs, [req],
                                          max_batch_size=1)
            assert_replay_parity(kernel, replayed, f"constant_{label}")
            assert (replayed.replay_windows > 0) == replays, label


class TestRandomizedParityFuzz:
    """Randomized workloads: parity is unconditional, engagement honest."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("scenario", [
        ("pregated", {"cache_policy": "lru", "cache_capacity": 24}),
        ("ondemand", {"num_gpus": 2}),
        ("pregated", {"system": SSD_SYSTEM, "stage_policy": "lru",
                      "stage_capacity": 24}),
    ])
    def test_random_traces_hold_parity(self, seed, scenario):
        design, kwargs = scenario
        # Random regime per seed: skew spans churny to hot, so some runs
        # replay and some stand down — parity must hold either way.
        skew = [0.0, 1.2, 3.0, 6.0, 9.0][seed % 5]
        gen = TraceGenerator(CONFIG, skew=skew, seed=seed * 101)
        requests = [TimedRequest(request_id=i, arrival_time=0.04 * i,
                                 trace=gen.request_trace(input_length=5,
                                                         output_length=24))
                    for i in range(4)]
        kernel, replayed = serve_pair(design, kwargs, requests)
        assert_replay_parity(kernel, replayed, f"{design}-{kwargs}-s{seed}")
        if replayed.replay_windows == 0:
            assert replayed.replay_ops == 0

    def test_random_alternating_structures_never_replay(self):
        """Randomly shuffled two-class rounds: whenever the 4-round history
        mixes classes no window forms; with classes this finely interleaved
        the controller should never fire."""
        import random
        rng = random.Random(2024)
        for trial in range(4):
            # Two structural classes: single-expert round vs two-expert
            # round.  A random interleaving with both classes present in
            # every 3-round span leaves no replayable window.
            pattern = []
            while len(pattern) < 28:
                pattern.extend([[0]] * rng.randint(1, 2))
                pattern.extend([[0, 1]] * rng.randint(1, 2))
            req = crafted_request(0, pattern[:28])
            kernel, replayed = serve_pair("pregated", {}, [req],
                                          max_batch_size=1)
            assert_replay_parity(kernel, replayed, f"shuffled_{trial}")
            assert replayed.replay_windows == 0, trial
