"""Run the benchmark: ``python -m benchmarks.perf [--workload NAME] --seed N``.

Each workload runs in its own child process (``benchmarks.perf.child``)
with ``src`` on the path and single-threaded BLAS.  Every metric is printed
by name with its unit, and the last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  Without ``--workload`` every workload runs and
the metric names carry a ``<workload>.`` prefix.

``--repeat N`` runs the benchmark N times, on seeds S..S+N-1 for
``--seed S``, and prints
each end-to-end metric's median, interquartile range and max/min spread per
workload beside its bound.

This parent process imports neither numpy nor the repo, so a missing
``src`` fails in the child and the command exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

#: Per-child wall-clock cap; the whole command must finish within 180 s.
CHILD_TIMEOUT_S = 175


def load_spec() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # Single-threaded BLAS is bit-identical and faster on the measured
    # host, and it keeps the benchmark to one core.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(workload: str, seed: int, args: argparse.Namespace,
              trace: int) -> Dict[str, object]:
    cmd = [sys.executable, "-m", "benchmarks.perf.child", "--workload", workload,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--golden-dir", args.golden_dir]
    if args.quick:
        cmd.append("--quick")
    if args.record_golden:
        cmd.append("--record-golden")
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line, flush=True)
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"workload {workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def select(result: Dict[str, object], specs: List[Dict[str, str]],
           source: str) -> Dict[str, Dict[str, object]]:
    """The metrics ``BENCHMARK.json`` names, checked against the child's units."""
    produced = result[source]
    chosen = {}
    for spec in specs:
        name = spec["name"]
        if name not in produced:
            raise SystemExit(f"{result['workload']}: metric {name} was not produced")
        if produced[name]["unit"] != spec["unit"]:
            raise SystemExit(f"{result['workload']}: metric {name} is in "
                             f"{produced[name]['unit']}, BENCHMARK.json says "
                             f"{spec['unit']}")
        chosen[name] = {"value": produced[name]["value"], "unit": spec["unit"]}
    return chosen


def stability(spec: Dict[str, object], workloads: List[str],
              args: argparse.Namespace) -> Dict[str, object]:
    """Run everything ``args.repeat`` times on successive seeds; summarise."""
    values: Dict[str, Dict[str, List[float]]] = {w: {} for w in workloads}
    attempted = failed = 0
    for rep in range(args.repeat):
        for workload in workloads:
            result = run_child(workload, args.seed + rep, args, trace=0)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, entry in select(result, spec["end_to_end"], "e2e").items():
                values[workload].setdefault(name, []).append(entry["value"])
    print(f"stability over {args.repeat} runs, seeds {args.seed}.."
          f"{args.seed + args.repeat - 1} (spread = IQR / median)")
    summary: Dict[str, Dict[str, object]] = {}
    for workload in workloads:
        for metric in spec["end_to_end"]:
            samples = values[workload][metric["name"]]
            median = statistics.median(samples)
            q1, _, q3 = (statistics.quantiles(samples, n=4) if len(samples) > 1
                         else (median, median, median))
            row = {"median": median, "q1": q1, "q3": q3,
                   "spread": (q3 - q1) / median, "min": min(samples),
                   "max": max(samples), "max_over_min": max(samples) / min(samples),
                   "bound": metric["bound"], "unit": metric["unit"]}
            summary[f"{workload}.{metric['name']}"] = row
            print(f"  {workload:18s} {metric['name']:14s} median {median:12.5g} "
                  f"{metric['unit']:6s} IQR {q3 - q1:10.4g}  spread "
                  f"{row['spread']:6.2%}  max/min {row['max_over_min']:.3f}  "
                  f"bound {metric['bound']:.0%}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {key: {"value": row["median"], "unit": row["unit"]}
                        for key, row in summary.items()},
            "stability": summary}


def main(argv: List[str] = None) -> None:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured time per run, after set-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also run traced and report per-layer metrics")
    parser.add_argument("--repeat", type=int, default=0,
                        help="stability mode: N runs on successive seeds")
    parser.add_argument("--quick", action="store_true",
                        help="tiny shapes for the harness test; never recorded")
    parser.add_argument("--record-golden", action="store_true",
                        help="write this seed's modelled outputs as the golden")
    parser.add_argument("--golden-dir", default=os.path.join(HERE, "golden"))
    args = parser.parse_args(argv)
    workloads = [args.workload] if args.workload else names

    if args.repeat:
        print(json.dumps(stability(spec, workloads, args)))
        return
    source, specs = (("layers", spec["per_layer"]) if args.trace
                     else ("e2e", spec["end_to_end"]))
    attempted = failed = 0
    metrics: Dict[str, Dict[str, object]] = {}
    for workload in workloads:
        result = run_child(workload, args.seed, args, args.trace)
        attempted += result["attempted"]
        failed += result["failed"]
        chosen = select(result, specs, source)
        prefix = "" if args.workload else f"{workload}."
        metrics.update({prefix + name: entry for name, entry in chosen.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
