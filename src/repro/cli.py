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
  metrics optionally exported via ``--metrics-out``;
* ``simperf`` — the simulator's own performance (simulated requests per
  wall-clock second, peak resident op count) across the serving-engine
  modes (trace / kernel / kernel+replay / kernel+probes) plus the
  multi-GPU placement rung; ``--full`` runs the recorded
  1.6k/16k/100k/1M scaling ladder and rewrites ``BENCH_simperf.json``,
  and quick runs fail if any mode's throughput drops below its recorded
  floor or replay fails to engage on a placement rung (the CI perf
  smoke);
* ``tensorperf`` — the real-model tensor engine's performance (forward /
  train-step / generate throughput per precision policy) on the model
  shape ladder, with speedups reported against the recorded
  pre-optimisation baseline; ``--full`` adds the serving-scale rung and
  the accuracy-parity protocol and rewrites ``BENCH_tensorperf.json``, and
  every run fails if any bar of
  :func:`~repro.analysis.tensorperf.check_tensorperf` fails (precision
  parity budgets, train-throughput floors, and on ``--full`` the
  serving-rung and accuracy bars).

``--quick`` shrinks the request count and grid for CI smoke runs;
``--seed N`` reseeds the sweep's workload and arrival process;
``--workers N`` fans the sweep's grid cells out over a process pool (cells
are independent simulations and the merged report is identical to the
serial one); ``--metrics-out PATH`` exports every cell's sampled probe
series as JSONL (or CSV when PATH ends in ``.csv``); ``--profile`` wraps
the in-process sweep in :mod:`cProfile` and prints the 25
highest-cumulative-time functions.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from typing import Dict, List, Optional

from .analysis.report import FigureReport, load_test_report
from .analysis.simperf import SIMPERF_FILENAME, run_simperf, write_simperf
from .analysis.tensorperf import (TENSORPERF_FILENAME, check_tensorperf,
                                  run_tensorperf, write_tensorperf)
from .moe.configs import get_config
from .obs.probes import append_metrics_rows, write_metrics_rows
from .obs.trace_export import write_chrome_trace
from .serving.scheduler import make_scheduler, serve_load
from .sweeps import profiled, run_grid
from .system.hardware import SSD_SYSTEM
from .workloads.arrivals import POISSON_QA_LOAD, generate_timed_requests
from .workloads.generator import WorkloadSpec

#: Default output path of the ``simperf`` sweep (in the current directory).
SIMPERF_JSON = SIMPERF_FILENAME

#: Default output path of the ``tensorperf`` sweep (in the current directory).
TENSORPERF_JSON = TENSORPERF_FILENAME

#: Probe cadence (simulated seconds) for sweep cells when ``--metrics-out``
#: is given, and for the ``trace`` scenario (always probed).
PROBE_INTERVAL = 0.05

#: Default output path of the ``trace`` sweep.
TRACE_JSON = "trace.json"


def _workload(quick: bool, seed: int = 0) -> WorkloadSpec:
    return WorkloadSpec(name="cli_sweep", num_requests=2 if quick else 4,
                        input_length=8, output_length=4 if quick else 8,
                        routing_skew=1.5, seed=seed)


# The grid cells run through repro.sweeps.run_grid, which may dispatch them
# to a process pool — so the serve callables are top-level functions
# (picklable), parameterised with functools.partial.
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


def run_expert_parallel(quick: bool, workers: Optional[int] = None,
                        seed: int = 0,
                        metrics_out: Optional[str] = None) -> FigureReport:
    """Design × num_gpus sweep on one expert-parallel replica."""
    designs = ("pregated", "ondemand") if quick else ("pregated", "ondemand",
                                                      "prefetch_all")
    gpu_counts = (1, 2) if quick else (1, 2, 4)
    results = run_grid(partial(_serve_expert_parallel, quick=quick, seed=seed,
                               probes=metrics_out is not None),
                       max_workers=workers,
                       design=list(designs), num_gpus=list(gpu_counts))
    if metrics_out:
        _export_grid_metrics(results, ["design", "num_gpus"], metrics_out)
    return load_test_report(
        list(results.values()), figure="expert_parallel sweep",
        description="Design ordering across expert-parallel replica sizes")


def run_serving_load(quick: bool, workers: Optional[int] = None,
                     seed: int = 0,
                     metrics_out: Optional[str] = None) -> FigureReport:
    """Design × offered load on a single-GPU replica."""
    designs = ("pregated", "ondemand") if quick else ("pregated", "ondemand",
                                                      "prefetch_all")
    rates = (4.0,) if quick else (2.0, 8.0)
    results = run_grid(partial(_serve_load_cell, quick=quick, seed=seed,
                               probes=metrics_out is not None),
                       max_workers=workers,
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


def run_simperf_sweep(quick: bool, workers: Optional[int] = None,
                      full: bool = False) -> FigureReport:
    """Simulator self-performance: serving-engine modes across request counts."""
    # Always serial: the measurement is the wall clock (main() rejects
    # --workers for this sweep).
    payload = run_simperf(quick=quick, full=full)
    if full:
        # Only the full 1.6k/16k/100k ladder is worth committing; smoke
        # shapes must not overwrite the recorded artifact.
        write_simperf(payload, SIMPERF_JSON)
    written = f" (written to {SIMPERF_JSON})" if full else ""
    report = FigureReport(
        figure="simperf",
        description=(f"Simulator throughput serving "
                     f"{payload['design']}/{payload['config']} "
                     f"decode-heavy batch-1 requests{written}"),
        headers=["requests", "mode", "wall (s)", "sim req/s", "total ops",
                 "peak resident ops", "replayed rounds"],
    )
    for size, by_mode in sorted(payload["scaling"].items(),
                                key=lambda kv: int(kv[0])):
        for mode, row in by_mode.items():
            report.add_row(int(size), mode, round(row["wall_seconds"], 3),
                           round(row["simulated_requests_per_second"], 1),
                           row["total_ops"], row["peak_resident_ops"],
                           row["replay_rounds"])
    for name, rung in payload["placements"].items():
        for mode in ("kernel", "kernel_replay"):
            row = rung[mode]
            report.add_row(f"{rung['requests']} [{name}]", mode,
                           round(row["wall_seconds"], 3),
                           round(row["simulated_requests_per_second"], 1),
                           row["total_ops"], row["peak_resident_ops"],
                           row["replay_rounds"])
    floors = payload["floors"]
    # The probed mode shares the kernel floor: the sampled probe layer
    # must not cost a kernel run more than the floor's jitter headroom.
    floor_by_mode = {
        "kernel": floors["kernel_req_per_s"],
        "kernel_probed": floors["kernel_req_per_s"],
        "kernel_replay": floors["kernel_replay_req_per_s"],
    }
    for size, by_mode in payload["scaling"].items():
        for mode, floor in floor_by_mode.items():
            measured_mode = by_mode.get(mode)
            if measured_mode is None:
                continue
            measured = measured_mode["simulated_requests_per_second"]
            if measured < floor:
                raise SystemExit(
                    f"simperf regression: {mode} mode served {measured:.1f} "
                    f"sim req/s at {size} requests, below the recorded floor "
                    f"of {floor:.1f} (see {SIMPERF_FILENAME})")
    # The placement rung exists to prove replay covers multi-GPU serving:
    # a rung where no window fires is a regression even if the throughput
    # floor holds.
    for name, rung in payload["placements"].items():
        if rung["kernel_replay"]["replay_windows"] <= 0:
            raise SystemExit(
                f"simperf regression: round replay never engaged on the "
                f"{name} placement rung (see {SIMPERF_FILENAME})")
    return report


def run_tensorperf_sweep(quick: bool, workers: Optional[int] = None,
                         full: bool = False) -> FigureReport:
    """Real-model tensor-path performance per precision across the shape ladder."""
    # Always serial: the measurement is the wall clock (main() rejects
    # --workers for this sweep).
    payload = run_tensorperf(quick=quick, full=full)
    if full:
        # Only the full ladder (including the serving-scale rung) is worth
        # committing; smoke shapes must not overwrite the recorded artifact.
        write_tensorperf(payload, TENSORPERF_JSON)
    written = f" (written to {TENSORPERF_JSON})" if full else ""
    report = FigureReport(
        figure="tensorperf",
        description=("Real-model tensor engine throughput per precision "
                     "policy, against the recorded pre-optimisation "
                     f"baseline{written}"),
        headers=["rung", "precision", "train steps/s", "train tok/s",
                 "forward tok/s", "generate tok/s", "train speedup vs recorded"],
    )
    speedups = payload["speedup_over_recorded_baseline"]
    for name, row in payload["ladder"].items():
        for precision, metrics in row["cells"].items():
            speedup = speedups.get(name, {}).get("train_steps_per_s")
            report.add_row(
                name, precision,
                round(metrics["train_steps_per_s"], 2),
                round(metrics["train_tokens_per_s"]),
                round(metrics["forward_tokens_per_s"]),
                round(metrics["generate_tokens_per_s"]),
                f"{speedup:.1f}x" if precision == "pure_fp64" and speedup
                else "")
    failures = check_tensorperf(payload)
    if failures:
        raise SystemExit("tensorperf regression (see "
                         f"{TENSORPERF_FILENAME}):\n  " + "\n  ".join(failures))
    return report


SWEEPS: Dict[str, object] = {
    "expert_parallel": run_expert_parallel,
    "serving_load": run_serving_load,
    "simperf": run_simperf_sweep,
    "tensorperf": run_tensorperf_sweep,
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
    parser.add_argument("--full", action="store_true",
                        help="simperf only: run the recorded 1.6k/16k/100k "
                             "scaling ladder and rewrite BENCH_simperf.json "
                             "(minutes of wall time)")
    parser.add_argument("--seed", type=int, default=None, metavar="N",
                        help="reseed the sweep's workload and arrival "
                             "process (default 0)")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="run the sweep's grid cells on an N-process pool")
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
    if args.workers is not None and args.workers < 1:
        parser.error("--workers must be >= 1")
    if args.sweep in ("simperf", "tensorperf") and args.workers is not None:
        parser.error(f"{args.sweep} measures wall-clock serially; "
                     "--workers would distort it")
    if args.sweep == "trace" and args.workers is not None:
        parser.error("trace serves one scenario; --workers does not apply")
    if args.full and args.sweep not in ("simperf", "tensorperf"):
        parser.error("--full only applies to the simperf and tensorperf sweeps")
    if args.full and args.quick:
        parser.error("--full and --quick are mutually exclusive")
    if args.out is not None and args.sweep != "trace":
        parser.error("--out only applies to the trace sweep")
    if args.seed is not None and args.sweep in ("simperf", "tensorperf"):
        parser.error(f"{args.sweep} measures the recorded (seed-pinned) "
                     "scenario; --seed does not apply")
    if args.metrics_out is not None and args.sweep in ("simperf", "tensorperf"):
        parser.error(f"{args.sweep} reports wall-clock, not probe series; "
                     "--metrics-out does not apply")
    if args.profile and args.workers is not None and args.workers > 1:
        parser.error("--profile profiles the in-process sweep; it cannot "
                     "see into --workers subprocesses")
    if args.sweep == "list":
        for name, runner in sorted(SWEEPS.items()):
            print(f"{name}: {runner.__doc__.strip().splitlines()[0]}")
        return 0
    runner = SWEEPS[args.sweep]
    if args.sweep == "trace":
        kwargs = {"out": args.out if args.out is not None else TRACE_JSON,
                  "seed": args.seed or 0, "metrics_out": args.metrics_out}
    elif args.sweep in ("simperf", "tensorperf"):
        kwargs = {"workers": args.workers, "full": args.full}
    else:
        kwargs = {"workers": args.workers, "seed": args.seed or 0,
                  "metrics_out": args.metrics_out}
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
