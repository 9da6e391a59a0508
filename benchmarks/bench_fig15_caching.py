"""Figure 15 — expert caching (LIFO / LFU / LRU), one request at a time and under load.

Paper result (Switch-Large 128, normalised to Pre-gated MoE without a
cache): caching helps both Pre-gated MoE and MoE-OnDemand under hot-expert
workloads, but helps MoE-OnDemand more, because Pre-gated MoE already hides
most of the migration latency it would otherwise save.

The under-load study re-runs it the way a serving fleet would see it: a
stream of skewed (hot-expert) requests through the
:class:`~repro.serving.scheduler.ContinuousBatchingScheduler`, whose shared
refcounted residency map caches experts *across* concurrent requests,
sweeping replacement policy × cache capacity × offered load.  Targets, for
both Pre-gated MoE and MoE-OnDemand:

* a warm cache strictly reduces total CPU→GPU transfer volume and reports a
  positive hit rate at every swept load;
* a zero-capacity cache is byte-identical to running without one (the
  parity contract of the residency subsystem).
"""

import pytest

from conftest import ENGINE_CONFIG, emit
from repro.analysis import FigureReport
from repro.moe import get_config
from repro.serving import DESIGN_LABELS, make_engine, serve_load
from repro.sweeps import open_loop, run_grid
from repro.system import cache_capacity_from_fraction
from repro.workloads import TraceGenerator, WorkloadSpec

POLICIES = ("lifo", "lfu", "lru")
DESIGNS = ("pregated", "ondemand")

#: The paper's one-request study: Switch-Large 128, hot-expert serving
#: workload (skewed routing, as observed by Huang et al.).
CONFIG = get_config("switch_large_128")
FRACTIONS = (0.01, 0.10, 0.20)
WORKLOAD = WorkloadSpec(name="fig15_hot_experts", num_requests=2, input_length=8,
                        output_length=12, routing_skew=1.5, seed=0)

#: The under-load study: Switch-Base 64, hot-expert open-loop traffic.
LOAD_CONFIG = get_config("switch_base_64")
LOAD_FRACTIONS = (0.05, 0.20)
LOADS = (4.0, 16.0)
LOAD_WORKLOAD = WorkloadSpec(name="fig15_load_hot_experts", num_requests=6,
                             input_length=8, output_length=8, routing_skew=1.5,
                             seed=0)


def _capacity(config, fraction):
    if fraction is None:
        return None
    return cache_capacity_from_fraction(
        config.num_moe_blocks("all"), config.num_experts, fraction)


def _cache_rows(results):
    """Each result with its leading (design, policy, cache %, ...) cells."""
    for (design, policy, fraction, *rest), value in results.items():
        yield [DESIGN_LABELS[design], policy, int(fraction * 100), *rest], value


def _throughput(design, policy=None, fraction=None):
    engine = make_engine(design, CONFIG, cache_policy=policy,
                         cache_capacity=_capacity(CONFIG, fraction),
                         engine_config=ENGINE_CONFIG)
    generator = TraceGenerator(CONFIG, skew=WORKLOAD.routing_skew, seed=WORKLOAD.seed)
    traces = generator.workload(WORKLOAD.num_requests, WORKLOAD.input_length,
                                WORKLOAD.output_length)
    return engine.run_workload(traces).aggregate_tokens_per_second


def _serve(design, rate, policy=None, fraction=None):
    return serve_load(design, LOAD_CONFIG, open_loop(rate),
                      workload=LOAD_WORKLOAD, engine_config=ENGINE_CONFIG,
                      max_batch_size=4, cache_policy=policy,
                      cache_capacity=_capacity(LOAD_CONFIG, fraction))


def run_caching_study():
    results = {}
    for design in DESIGNS:
        results[(design, "w/o cache", 0.0)] = _throughput(design)
        for policy in POLICIES:
            for fraction in FRACTIONS:
                results[(design, policy, fraction)] = _throughput(
                    design, policy, fraction)
    return results


def run_cache_load_study():
    baseline = run_grid(_serve, design=DESIGNS, rate=LOADS)
    cached = run_grid(_serve, design=DESIGNS, policy=POLICIES,
                      fraction=LOAD_FRACTIONS, rate=LOADS)
    results = {(design, "w/o cache", 0.0, rate): result
               for (design, rate), result in baseline.items()}
    results.update(cached)
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
    for cells, tput in _cache_rows(results):
        report.add_row(*cells, round(tput, 2), round(tput / baseline, 3))
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


@pytest.mark.benchmark(group="fig15_load")
def test_fig15_expert_cache_under_load(benchmark, results_dir):
    results = benchmark.pedantic(run_cache_load_study, rounds=1, iterations=1)
    report = FigureReport(
        figure="Figure 15 (under load)",
        description="Expert caching in the continuous-batching scheduler, "
                    "Switch-Base 64, skewed routing",
        headers=["design", "policy", "cache %", "load rps", "tokens/s",
                 "p99 ttft ms", "hit rate", "GB transferred", "GB saved",
                 "evictions"],
        paper_reference="Caching compounds the pre-gated prefetch wins; the "
                        "relative benefit is larger for MoE-OnDemand.",
        notes="Cache capacity as a fraction of all experts; shared residency "
              "map refcounts in-flight experts across concurrent requests.")
    for cells, result in _cache_rows(results):
        stats = result.cache_stats
        report.add_row(
            *cells,
            round(result.sustained_tokens_per_second, 2),
            round(result.ttft_stats.p99 * 1e3, 2),
            round(stats.hit_rate, 3) if stats else "-",
            round(result.expert_bytes_transferred / 1e9, 3),
            round(stats.bytes_saved / 1e9, 3) if stats else "-",
            stats.evictions if stats else "-")
    emit(report, results_dir, "fig15_expert_cache_load.csv")

    for design in DESIGNS:
        for rate in LOADS:
            uncached = results[(design, "w/o cache", 0.0, rate)]
            for policy in POLICIES:
                warm = results[(design, policy, max(LOAD_FRACTIONS), rate)]
                # Transferred bytes strictly decrease and hits appear.
                # (Exact transferred+saved conservation only holds when round
                # composition matches the uncached run — caching shifts
                # completion times and therefore round membership, so it is
                # asserted in the fixed-arrival unit tests instead.)
                assert (warm.expert_bytes_transferred
                        < uncached.expert_bytes_transferred)
                assert warm.cache_stats.hit_rate > 0.0
                assert warm.cache_stats.bytes_saved > 0
            # Bigger caches never transfer more than smaller ones (LRU).
            small = results[(design, "lru", min(LOAD_FRACTIONS), rate)]
            large = results[(design, "lru", max(LOAD_FRACTIONS), rate)]
            assert large.expert_bytes_transferred <= small.expert_bytes_transferred


@pytest.mark.benchmark(group="fig15_load")
def test_fig15_zero_capacity_parity(benchmark):
    def run():
        base = _serve("pregated", 8.0)
        zero = serve_load("pregated", LOAD_CONFIG, open_loop(8.0),
                          workload=LOAD_WORKLOAD, engine_config=ENGINE_CONFIG,
                          max_batch_size=4, cache_policy="lru", cache_capacity=0)
        return base, zero

    base, zero = benchmark.pedantic(run, rounds=1, iterations=1)
    assert zero.makespan == pytest.approx(base.makespan, abs=1e-9)
    assert zero.expert_bytes_transferred == base.expert_bytes_transferred
    assert zero.peak_gpu_bytes == base.peak_gpu_bytes
