"""Bit-exact golden of :class:`~repro.serving.engine.ServingEngine` outputs.

Pins every number the engine reports — encoder/decode time, each
iteration's duration, each MoE block's latency / exposed transfer time /
active-expert count, peak GPU bytes and tier stats — as ``float.hex``
strings over a grid of designs × placements, plus the full op records of a
Figure 9 trace-recording ``ArrayTimeline`` passed in by the caller.  Any
change to the emission path or the timeline kernel that moves a single bit
fails here.

Regenerate (only when a change is *meant* to move these numbers)::

    PYTHONPATH=src python -m tests.serving.test_engine_golden
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.moe import get_config
from repro.serving import make_engine
from repro.system import PAPER_SYSTEM, SSD_SYSTEM, ArrayTimeline
from repro.workloads import TraceGenerator

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_engine.json")

CONFIG = get_config("switch_base_64")
DESIGNS = ("gpu_only", "pregated", "ondemand", "prefetch_all")

#: Placement variants: name → make_engine keyword arguments.
VARIANTS = {
    "plain": {},
    "lru_cache": {"cache_policy": "lru", "cache_capacity": 32},
    "lfu_cache": {"cache_policy": "lfu", "cache_capacity": 32},
    "ssd": {"system": SSD_SYSTEM},
    "ssd_stage": {"system": SSD_SYSTEM, "stage_policy": "lru",
                  "stage_capacity": 64},
    "gpu2": {"num_gpus": 2},
    "gpu4_cache": {"num_gpus": 4, "cache_policy": "lru", "cache_capacity": 32},
}
#: GPU-only never migrates experts, so caches and stages do not apply.
GPU_ONLY_SKIPS = {"lru_cache", "lfu_cache", "ssd_stage", "gpu4_cache"}

CASES = [(design, variant) for design in DESIGNS for variant in VARIANTS
         if not (design == "gpu_only" and variant in GPU_ONLY_SKIPS)]


def _hex(value) -> str:
    return float(value).hex()


def _workload_case(design: str, variant: str) -> dict:
    # Skewed routing so the caches and the DRAM stage see real hits.
    traces = TraceGenerator(CONFIG, skew=1.2, seed=0).workload(
        2, input_length=16, output_length=6)
    kwargs = dict(VARIANTS[variant])
    system = kwargs.pop("system", PAPER_SYSTEM)
    result = make_engine(design, CONFIG, system=system,
                         **kwargs).run_workload(traces)
    requests = []
    for request in result.requests:
        requests.append({
            "encoder_time": _hex(request.encoder_time),
            "decode_time": _hex(request.decode_time),
            "iterations": [
                {"duration": _hex(it.duration),
                 "blocks": [[_hex(b.latency), _hex(b.exposed_transfer_time),
                             b.num_active_experts]
                            for b in it.block_latencies]}
                for it in request.iterations],
        })
    tier_stats = (dataclasses.asdict(result.tier_stats)
                  if result.tier_stats is not None else None)
    return {"requests": requests, "peak_gpu_bytes": result.peak_gpu_bytes,
            "tier_stats": tier_stats}


def _fig09_case() -> dict:
    """One decoder iteration per design on a caller-owned trace timeline."""
    activations = TraceGenerator(CONFIG, seed=0).iteration_activations(
        num_tokens=1, num_moe_blocks=CONFIG.num_moe_blocks("decoder"))
    out = {}
    for design in DESIGNS:
        timeline = ArrayTimeline(record_trace=True)
        make_engine(design, CONFIG).run_decoder_iteration(
            activations, timeline=timeline)
        out[design] = [
            [_hex(value) if isinstance(value, float) else value
             for _, value in sorted(record.items())]
            for record in timeline.to_records()]
    return out


def record_all() -> dict:
    golden = {f"{design}/{variant}": _workload_case(design, variant)
              for design, variant in CASES}
    golden["fig09"] = _fig09_case()
    return golden


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_grid_covers_every_golden_case(golden):
    assert set(golden) == {f"{d}/{v}" for d, v in CASES} | {"fig09"}
    assert len(CASES) == 24


@pytest.mark.parametrize("design,variant", CASES,
                         ids=[f"{d}-{v}" for d, v in CASES])
def test_engine_matches_golden(golden, design, variant):
    assert _workload_case(design, variant) == golden[f"{design}/{variant}"]


def test_fig09_timeline_records_match_golden(golden):
    assert _fig09_case() == golden["fig09"]


if __name__ == "__main__":
    # One case per line keeps the fixture compact and its diffs readable.
    cases = record_all()
    with open(GOLDEN_PATH, "w") as handle:
        handle.write("{\n" + ",\n".join(
            f"{json.dumps(key)}: {json.dumps(cases[key], sort_keys=True, separators=(',', ':'))}"
            for key in sorted(cases)) + "\n}\n")
    print(f"wrote {GOLDEN_PATH}")
