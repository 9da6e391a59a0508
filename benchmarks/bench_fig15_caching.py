"""Figure 15 — expert caching (LIFO / LFU / LRU at 1% / 10% / 20% capacity).

Paper result (Switch-Large 128, normalised to Pre-gated MoE without a
cache): caching helps both Pre-gated MoE and MoE-OnDemand under hot-expert
workloads, but helps MoE-OnDemand more, because Pre-gated MoE already hides
most of the migration latency it would otherwise save.
"""

import pytest

from conftest import ENGINE_CONFIG, emit
from repro.analysis import FigureReport
from repro.moe import get_config
from repro.serving import DESIGN_LABELS, make_engine
from repro.system import cache_capacity_from_fraction
from repro.workloads import TraceGenerator, WorkloadSpec

CONFIG = get_config("switch_large_128")
POLICIES = ("lifo", "lfu", "lru")
FRACTIONS = (0.01, 0.10, 0.20)
DESIGNS = ("pregated", "ondemand")

#: Hot-expert serving workload (skewed routing, as observed by Huang et al.).
WORKLOAD = WorkloadSpec(name="fig15_hot_experts", num_requests=2, input_length=8,
                        output_length=12, routing_skew=1.5, seed=0)


def _throughput(design, policy=None, capacity=None):
    engine = make_engine(design, CONFIG, cache_policy=policy,
                         cache_capacity=capacity, engine_config=ENGINE_CONFIG)
    generator = TraceGenerator(CONFIG, skew=WORKLOAD.routing_skew, seed=WORKLOAD.seed)
    traces = generator.workload(WORKLOAD.num_requests, WORKLOAD.input_length,
                                WORKLOAD.output_length)
    return engine.run_workload(traces).aggregate_tokens_per_second


def run_caching_study():
    results = {}
    for design in DESIGNS:
        results[(design, "w/o cache", 0.0)] = _throughput(design)
        for policy in POLICIES:
            for fraction in FRACTIONS:
                capacity = cache_capacity_from_fraction(
                    CONFIG.num_moe_blocks("all"), CONFIG.num_experts, fraction)
                results[(design, policy, fraction)] = _throughput(
                    design, policy, capacity)
    return results


@pytest.mark.benchmark(group="fig15")
def test_fig15_expert_caching(benchmark, results_dir):
    results = benchmark.pedantic(run_caching_study, rounds=1, iterations=1)
    baseline = results[("pregated", "w/o cache", 0.0)]
    report = FigureReport(
        figure="Figure 15",
        description="Throughput with expert caching, Switch-Large 128 "
                    "(normalised to Pre-gated MoE without cache)",
        headers=["design", "policy", "cache %", "tokens/s", "normalised"],
        paper_reference="Caching helps both designs; the benefit is larger for "
                        "MoE-OnDemand than for Pre-gated MoE.",
    )
    for (design, policy, fraction), tput in results.items():
        report.add_row(DESIGN_LABELS[design], policy, int(fraction * 100),
                       round(tput, 2), round(tput / baseline, 3))
    emit(report, results_dir, "fig15_caching.csv")

    # Caching at 20% improves both designs under the skewed workload.
    for design in DESIGNS:
        uncached = results[(design, "w/o cache", 0.0)]
        best_cached = max(results[(design, p, 0.20)] for p in POLICIES)
        assert best_cached >= uncached
    # The relative gain is at least as large for MoE-OnDemand.
    pregated_gain = max(results[("pregated", p, 0.20)] for p in POLICIES) / baseline
    ondemand_gain = (max(results[("ondemand", p, 0.20)] for p in POLICIES)
                     / results[("ondemand", "w/o cache", 0.0)])
    assert ondemand_gain >= pregated_gain * 0.9
