"""Minimal command-line entry point: run a named benchmark sweep.

``python -m repro <sweep>`` serves a small named load study and prints the
paper-style load report (optionally also writing it as CSV) — the smoke path
CI runs and the quickest way to see the simulator end-to-end without pytest:

* ``expert_parallel`` — design × num_gpus on one replica (the expert-
  parallel sharding study);
* ``serving_load`` — design × offered load on a single-GPU replica;
* ``trace`` — one observability run: a multi-GPU SSD-staged pregated serve
  with span logging and probes on, written as Chrome trace-event JSON
  (``--out``, openable at https://ui.perfetto.dev) with the sampled
  metrics optionally exported via ``--metrics-out``.

``--quick`` shrinks the request count and grid for CI smoke runs;
``--seed N`` reseeds the sweep's workload and arrival process;
``--metrics-out PATH`` exports every cell's sampled probe series as JSONL
(or CSV when PATH ends in ``.csv``); ``--profile`` wraps the sweep in
:mod:`cProfile` and prints the 25 highest-cumulative-time functions.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from typing import Dict, List, Optional

from .analysis.report import FigureReport, load_test_report
from .moe.configs import get_config
from .obs.probes import append_metrics_rows, write_metrics_rows
from .obs.trace_export import write_chrome_trace
from .serving.scheduler import make_scheduler, serve_load
from .sweeps import profiled, run_grid
from .system.hardware import SSD_SYSTEM
from .workloads.arrivals import POISSON_QA_LOAD, generate_timed_requests
from .workloads.generator import WorkloadSpec

#: Probe cadence (simulated seconds) for sweep cells when ``--metrics-out``
#: is given, and for the ``trace`` scenario (always probed).
PROBE_INTERVAL = 0.05

#: Default output path of the ``trace`` sweep.
TRACE_JSON = "trace.json"


def _workload(quick: bool, seed: int = 0) -> WorkloadSpec:
    return WorkloadSpec(name="cli_sweep", num_requests=2 if quick else 4,
                        input_length=8, output_length=4 if quick else 8,
                        routing_skew=1.5, seed=seed)


def _serve_expert_parallel(design: str, num_gpus: int, quick: bool = False,
                           seed: int = 0, probes: bool = False):
    return serve_load(design, get_config("switch_base_64"),
                      POISSON_QA_LOAD.with_overrides(request_rate=4.0, seed=seed),
                      workload=_workload(quick, seed), max_batch_size=4,
                      num_gpus=num_gpus,
                      probe_interval=PROBE_INTERVAL if probes else None)


def _serve_load_cell(design: str, rate: float, quick: bool = False,
                     seed: int = 0, probes: bool = False):
    return serve_load(design, get_config("switch_base_64"),
                      POISSON_QA_LOAD.with_overrides(request_rate=rate, seed=seed),
                      workload=_workload(quick, seed), max_batch_size=4,
                      probe_interval=PROBE_INTERVAL if probes else None)


def _export_grid_metrics(results: Dict, axis_names: List[str],
                         path: str) -> None:
    """Write every probed cell's metric records, tagged with its axis values."""
    rows: List[Dict[str, object]] = []
    for combo, result in results.items():
        if result.probes is None:
            continue
        append_metrics_rows(rows, result.probes, dict(zip(axis_names, combo)))
    write_metrics_rows(rows, path)


def run_expert_parallel(quick: bool, seed: int = 0,
                        metrics_out: Optional[str] = None) -> FigureReport:
    """Design × num_gpus sweep on one expert-parallel replica."""
    designs = ("pregated", "ondemand") if quick else ("pregated", "ondemand",
                                                      "prefetch_all")
    gpu_counts = (1, 2) if quick else (1, 2, 4)
    results = run_grid(partial(_serve_expert_parallel, quick=quick, seed=seed,
                               probes=metrics_out is not None),
                       design=list(designs), num_gpus=list(gpu_counts))
    if metrics_out:
        _export_grid_metrics(results, ["design", "num_gpus"], metrics_out)
    return load_test_report(
        list(results.values()), figure="expert_parallel sweep",
        description="Design ordering across expert-parallel replica sizes")


def run_serving_load(quick: bool, seed: int = 0,
                     metrics_out: Optional[str] = None) -> FigureReport:
    """Design × offered load on a single-GPU replica."""
    designs = ("pregated", "ondemand") if quick else ("pregated", "ondemand",
                                                      "prefetch_all")
    rates = (4.0,) if quick else (2.0, 8.0)
    results = run_grid(partial(_serve_load_cell, quick=quick, seed=seed,
                               probes=metrics_out is not None),
                       design=list(designs), rate=list(rates))
    if metrics_out:
        _export_grid_metrics(results, ["design", "rate"], metrics_out)
    return load_test_report(
        list(results.values()), figure="serving_load sweep",
        description="Sustained throughput and tail latency under load")


def run_trace(quick: bool, out: str = TRACE_JSON, seed: int = 0,
              metrics_out: Optional[str] = None) -> FigureReport:
    """One observed serve: spans + probes on, exported as a Perfetto trace."""
    config = get_config("switch_base_64")
    workload = _workload(quick, seed).with_overrides(
        name="cli_trace", num_requests=4 if quick else 8)
    load = POISSON_QA_LOAD.with_overrides(request_rate=4.0, seed=seed)
    scheduler = make_scheduler("pregated", config, system=SSD_SYSTEM,
                               stage_policy="lru", stage_capacity=8,
                               num_gpus=2, max_batch_size=4,
                               record_trace=True, span_log=True,
                               probe_interval=PROBE_INTERVAL)
    requests = generate_timed_requests(config, load, workload=workload)
    result = scheduler.serve(requests, offered_load=load.request_rate)
    write_chrome_trace(out, timeline=scheduler.last_timeline,
                       spans=result.spans,
                       metadata={"design": scheduler.design,
                                 "config": config.name,
                                 "system": SSD_SYSTEM.name,
                                 "num_gpus": 2, "seed": seed})
    if metrics_out:
        rows: List[Dict[str, object]] = []
        append_metrics_rows(rows, result.probes, {"design": scheduler.design})
        write_metrics_rows(rows, metrics_out)
    return load_test_report(
        [result], figure="trace",
        description=f"SSD-staged 2-GPU pregated serve, trace written to {out} "
                    "(open at https://ui.perfetto.dev)")


SWEEPS: Dict[str, object] = {
    "expert_parallel": run_expert_parallel,
    "serving_load": run_serving_load,
    "trace": run_trace,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run a named benchmark sweep of the Pre-gated MoE "
                    "serving simulator.")
    parser.add_argument("sweep", choices=sorted(SWEEPS) + ["list"],
                        help="sweep to run ('list' prints the available names)")
    parser.add_argument("--quick", action="store_true",
                        help="shrink the grid for a CI smoke run")
    parser.add_argument("--seed", type=int, default=None, metavar="N",
                        help="reseed the sweep's workload and arrival "
                             "process (default 0)")
    parser.add_argument("--profile", action="store_true",
                        help="run the sweep under cProfile and print the top "
                             "25 functions by cumulative time")
    parser.add_argument("--csv", metavar="PATH", default=None,
                        help="also write the report as CSV to PATH")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="trace only: trace-event JSON output path "
                             f"(default {TRACE_JSON})")
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="export sampled probe series as JSONL "
                             "(CSV when PATH ends in .csv)")
    args = parser.parse_args(argv)
    if args.out is not None and args.sweep != "trace":
        parser.error("--out only applies to the trace sweep")
    if args.sweep == "list":
        for name, runner in sorted(SWEEPS.items()):
            print(f"{name}: {runner.__doc__.strip().splitlines()[0]}")
        return 0
    runner = SWEEPS[args.sweep]
    if args.sweep == "trace":
        kwargs = {"out": args.out if args.out is not None else TRACE_JSON,
                  "seed": args.seed or 0, "metrics_out": args.metrics_out}
    else:
        kwargs = {"seed": args.seed or 0, "metrics_out": args.metrics_out}
    if args.profile:
        report = profiled(runner, args.quick, **kwargs)
    else:
        report = runner(args.quick, **kwargs)
    print(report.render())
    if args.csv:
        with open(args.csv, "w") as handle:
            handle.write(report.as_csv())
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
