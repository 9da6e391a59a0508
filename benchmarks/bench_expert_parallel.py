"""Expert-parallel multi-GPU replicas — design × num_gpus × load sweep.

The paper evaluates one GPU per machine; production MoE serving shards the
expert pool across several GPUs inside one replica (expert parallelism) and
routes tokens over an intra-node interconnect.  This benchmark asks the
paper's question at that scale: does the design ordering (pregated ≥
ondemand ≫ prefetch_all) survive when expert fetches compete with all-to-all
dispatch/combine traffic and per-device fetch lanes?

Reproduction targets:

* a 1-GPU topology reproduces the single-GPU serving numbers to 1e-9 (time,
  bytes and peak memory — the degenerate-topology parity contract);
* the paper's ordering holds at 2, 4 and 8 GPUs: pregated ≥ ondemand >
  prefetch_all at every load (prefetch_all closes some of the gap as per-
  device PCIe lanes parallelise its bulk transfers — reported, not hidden);
* load-balanced expert sharding never loses to contiguous sharding on a
  skewed (hot-expert) gate distribution, which piles the hot low-id experts
  onto device 0 under contiguous assignment;
* per-device utilisation, all-to-all bytes and shard imbalance are reported
  for every multi-GPU cell.
"""

import numpy as np
import pytest

from conftest import ENGINE_CONFIG, emit
from repro.analysis import FigureReport
from repro.moe import get_config
from repro.serving import DESIGN_LABELS, serve_load
from repro.sweeps import open_loop, run_grid
from repro.workloads import WorkloadSpec

CONFIG = get_config("switch_base_64")
DESIGNS = ("pregated", "ondemand", "prefetch_all")
GPU_COUNTS = (1, 2, 4, 8)
MULTI_GPU_COUNTS = tuple(n for n in GPU_COUNTS if n > 1)
LOADS = (2.0, 8.0)
SKEW = 1.5

#: Hot-expert open-loop traffic (same skew the caching studies use): the
#: imbalanced gate distribution that separates the sharding policies.
WORKLOAD = WorkloadSpec(name="expert_parallel_hot_experts", num_requests=4,
                        input_length=8, output_length=6, routing_skew=SKEW,
                        seed=0)


def gate_weights():
    """Expected per-expert gate load matching the trace generator's skew."""
    ranks = np.arange(1, CONFIG.num_experts + 1, dtype=np.float64)
    weights = ranks ** (-SKEW)
    return (weights / weights.sum()).tolist()


def _serve(design, num_gpus, rate, shard_policy="contiguous",
           expert_weights=None):
    return serve_load(design, CONFIG, open_loop(rate), workload=WORKLOAD,
                      engine_config=ENGINE_CONFIG, max_batch_size=4,
                      num_gpus=num_gpus, shard_policy=shard_policy,
                      expert_weights=expert_weights)


def run_expert_parallel_study():
    results = run_grid(_serve, design=DESIGNS, num_gpus=GPU_COUNTS, rate=LOADS)
    weights = gate_weights()
    balanced = run_grid(
        lambda design, num_gpus, rate: _serve(
            design, num_gpus, rate, shard_policy="load_balanced",
            expert_weights=weights),
        design=("pregated", "ondemand"), num_gpus=MULTI_GPU_COUNTS, rate=LOADS)
    return results, balanced


@pytest.mark.benchmark(group="expert_parallel")
def test_expert_parallel_sweep(benchmark, results_dir):
    results, balanced = benchmark.pedantic(run_expert_parallel_study,
                                           rounds=1, iterations=1)
    report = FigureReport(
        figure="Expert parallelism",
        description="Design ordering across expert-parallel replica sizes, "
                    "Switch-Base 64, skewed routing",
        headers=["design", "shard policy", "gpus", "load rps", "tokens/s",
                 "p99 ttft ms", "alltoall MB", "device util", "imbalance"],
        paper_reference="Single-GPU ordering (Figs. 10-11): pregated >= "
                        "ondemand >> prefetch_all; parallel per-device fetch "
                        "lanes narrow (but never close) prefetch_all's gap.",
        notes="Imbalance is max-over-mean fetched bytes across devices; "
              "contiguous sharding piles hot low-id experts on device 0, "
              "load-balanced spreads them by expected gate load.")
    rows = [((design, "contiguous", n, rate), result)
            for (design, n, rate), result in results.items()]
    rows += [((design, "load_balanced", n, rate), result)
             for (design, n, rate), result in balanced.items()]
    for (design, policy, n, rate), result in rows:
        report.add_row(
            DESIGN_LABELS[design], policy, n, rate,
            round(result.sustained_tokens_per_second, 2),
            round(result.ttft_stats.p99 * 1e3, 2),
            round(result.alltoall_bytes / 1e6, 3),
            "|".join(f"{u:.2f}" for u in result.device_utilisation),
            round(result.shard_imbalance, 2)
            if result.shard_imbalance is not None else "-")
    emit(report, results_dir, "expert_parallel.csv")

    for rate in LOADS:
        for n in MULTI_GPU_COUNTS:
            pregated = results[("pregated", n, rate)]
            ondemand = results[("ondemand", n, rate)]
            prefetch = results[("prefetch_all", n, rate)]
            # (b) the paper's ordering survives at every replica size.
            assert (pregated.sustained_tokens_per_second
                    >= ondemand.sustained_tokens_per_second)
            assert (ondemand.sustained_tokens_per_second
                    > prefetch.sustained_tokens_per_second)
            # All-to-all traffic and the per-device breakdown are reported.
            assert pregated.alltoall_bytes > 0
            assert len(pregated.device_utilisation) == n
            assert pregated.shard_imbalance is not None
        # At small replica sizes prefetch_all stays far behind (the paper's
        # ">>"); wider replicas parallelise its bulk fetches, narrowing but
        # never closing the gap (asserted strictly above).
        assert (results[("prefetch_all", 2, rate)].sustained_tokens_per_second
                < 0.75 * results[("ondemand", 2, rate)].sustained_tokens_per_second)
        # (c) load-balanced sharding never loses to contiguous under skew.
        for design in ("pregated", "ondemand"):
            for n in MULTI_GPU_COUNTS:
                contiguous = results[(design, n, rate)]
                lb = balanced[(design, n, rate)]
                assert (lb.sustained_tokens_per_second
                        >= contiguous.sustained_tokens_per_second - 1e-9)
                assert lb.shard_imbalance <= contiguous.shard_imbalance + 1e-9


@pytest.mark.benchmark(group="expert_parallel")
def test_expert_parallel_single_gpu_parity(benchmark):
    """(a) A 1-GPU topology reproduces today's single-GPU path to 1e-9."""

    def run():
        pairs = {}
        for design in DESIGNS:
            legacy = serve_load(design, CONFIG, open_loop(4.0),
                                workload=WORKLOAD, engine_config=ENGINE_CONFIG,
                                max_batch_size=4)
            topo = _serve(design, 1, 4.0)
            pairs[design] = (legacy, topo)
        return pairs

    pairs = benchmark.pedantic(run, rounds=1, iterations=1)
    for design, (legacy, topo) in pairs.items():
        assert topo.makespan == pytest.approx(legacy.makespan, abs=1e-9)
        assert topo.expert_bytes_transferred == legacy.expert_bytes_transferred
        assert topo.peak_gpu_bytes == legacy.peak_gpu_bytes
        assert topo.alltoall_bytes == 0
        for a, b in zip(topo.requests, legacy.requests):
            assert a.ttft == pytest.approx(b.ttft, abs=1e-9)
            assert a.completion_time == pytest.approx(b.completion_time, abs=1e-9)
