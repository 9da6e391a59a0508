"""One workload in its own process: set up, measure, check, report.

``python -m benchmarks.perf`` starts this module once per workload, with
``src`` on the path and single-threaded BLAS.  It prints human-readable
lines, then one JSON object as the last line of standard output.

A run sets the workload up from the seed several times (``setup_s`` is the
median; see :data:`~workloads.SETUP_REPS`), then times units of work until
at least ``--seconds`` have passed and the workload's minimum unit count is
done.
End-to-end metrics are host time with tracing off.  ``--trace 1`` then
repeats the run with every layer wrapped (see :mod:`tracer`) and reports
the per-layer table; its modelled outputs must equal the untraced run's.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import repro

from .tracer import Boundary, SpanRecorder, installed
from .workloads import (MODELLED_UNITS, SETUP_REPS, SETUP_SHARE, WORKLOAD_NAMES,
                        DecodeWorkload, get_workload, modelled_scalars,
                        outputs_equal)

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
GOLDEN_DIR = os.path.join(HERE, "golden")
OUT_DIR = os.path.join(HERE, "out")

#: The traced run fails when its spans cover less of the measured wall.
MIN_SELF_COVERAGE = 0.95

#: ``tokens_per_s`` takes this percentile of per-unit throughput among the
#: units that repeat the same work.  A code change moves every such unit,
#: while bursts from other tenants of a shared host slow only some: the fast
#: end of the distribution repeats from run to run better than the median
#: (README.md has the measurements).
RATE_PERCENTILE = 90

Metrics = Dict[str, Dict[str, object]]


@dataclass
class Phase:
    setup_ns: List[int]
    unit_ns: List[int]
    #: Per unit: its key (units with one key repeat the same work) and tokens.
    keys: List[int]
    tokens: List[int]
    session: object
    boundary: Optional[Boundary] = None

    @property
    def rates(self) -> List[float]:
        return [tok / (ns / 1e9) for tok, ns in zip(self.tokens, self.unit_ns)]

    def tokens_per_s(self) -> float:
        """Tokens over time, each key's units at their RATE_PERCENTILE rate.

        Keys differ in work (serve streams differ in cache hits and replay),
        so the fast end is taken per key and the keys are then combined as
        one pass over all of them.
        """
        by_key: Dict[int, List[int]] = {}
        for i, key in enumerate(self.keys):
            by_key.setdefault(key, []).append(i)
        rates = self.rates
        tokens = seconds = 0.0
        for units in by_key.values():
            mean_tokens = statistics.fmean(self.tokens[i] for i in units)
            tokens += mean_tokens
            seconds += mean_tokens / _percentile([rates[i] for i in units],
                                                 RATE_PERCENTILE)
        return tokens / seconds


def _set_recording(rec: Optional[SpanRecorder], on: bool) -> None:
    if rec is not None:
        rec.recording = on


def run_phase(workload, seed: int, seconds: float,
              rec: Optional[SpanRecorder] = None) -> Phase:
    """Set up repeatedly (see SETUP_REPS), then time units for ``seconds``."""
    workload.prepare_run(seed)
    setup_ns: List[int] = []
    session = None
    while len(setup_ns) < SETUP_REPS or sum(setup_ns) < SETUP_SHARE * seconds * 1e9:
        session = None
        gc.collect()
        _set_recording(rec, True)
        started = time.perf_counter_ns()
        session = workload.setup(seed)
        setup_ns.append(time.perf_counter_ns() - started)
        _set_recording(rec, False)
    boundary = rec.snapshot() if rec is not None else None
    unit_ns: List[int] = []
    keys: List[int] = []
    tokens: List[int] = []
    gc.collect()
    began = time.perf_counter()
    while (len(unit_ns) < session.min_units or len(unit_ns) % session.cycle
           or time.perf_counter() - began < seconds):
        session.prepare()
        if rec is not None and workload.kind == "tensor":
            rec.current_id = len(unit_ns)
        _set_recording(rec, True)
        started = time.perf_counter_ns()
        value = session.step()
        elapsed = time.perf_counter_ns() - started
        _set_recording(rec, False)
        unit_ns.append(elapsed)
        keys.append(session.key)
        tokens.append(session.record(value))
    session.finish()
    return Phase(setup_ns, unit_ns, keys, tokens, session, boundary)


def _percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(round(pct / 100 * (len(ordered) - 1))))]


def e2e_metrics(phase: Phase) -> Metrics:
    return {
        "tokens_per_s": {"value": phase.tokens_per_s(), "unit": "tok/s"},
        "setup_s": {"value": statistics.median(phase.setup_ns) / 1e9, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }


def describe_units(name: str, phase: Phase) -> str:
    """Unit count, median throughput and unit-time tail, beside the metrics."""
    ms = [ns / 1e6 for ns in phase.unit_ns]
    line = (f"{name}  units {len(ms)}  tokens_per_s p50 "
            f"{statistics.median(phase.rates):.6g}  unit_ms p50 "
            f"{statistics.median(ms):.3f}")
    for pct in (99, 90):
        if len(ms) * (100 - pct) / 100 >= 10:
            line += f"  unit_ms p{pct} {_percentile(ms, pct):.3f}"
            break
    return line


def layer_metrics(rec: SpanRecorder, traced: Phase, untraced: Phase,
                  outputs: Dict[str, object],
                  reference: Dict[str, object]) -> Tuple[Metrics, Dict[str, object]]:
    """Per-layer metrics of the traced run, and the full layer table."""
    measure_ns = sum(traced.unit_ns)
    table = rec.table(traced.boundary, sum(traced.setup_ns), measure_ns)
    metrics: Metrics = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    # Counts are per measured unit (serve, train step or decode batch), set-up
    # excluded, so they do not grow with host speed or ``--seconds``.
    units = len(traced.unit_ns)
    for layer, row in table.items():
        put(f"{layer}.calls_per_unit", (row["calls"] - row["setup_calls"]) / units,
            "count/unit")
        put(f"{layer}.self_frac", row["self_frac"], "frac")
        put(f"{layer}.setup_frac", row["setup_frac"], "frac")
    for name in ("timeline.commit.ops", "scheduler.replay.applied"):
        put(f"{name}_per_unit", rec.measured_count(traced.boundary, name) / units,
            "count/unit")
    scalars = modelled_scalars(outputs)
    for name, value in scalars.items():
        put(name, value, MODELLED_UNITS[name])
    # Over every stream; the other sim.* metrics are stream 0's.
    sim_ops, replay_ops = (sum(float(value) for key, value in outputs.items()
                               if key.endswith(name))
                           for name in ("sim.timeline_ops", "sim.replay_ops"))
    put("scheduler.replay.op_share", replay_ops / sim_ops if sim_ops else 0.0, "frac")
    put("decode.token_match",
        DecodeWorkload.token_match(outputs, reference)
        if "decode.tokens" in outputs else 0.0, "frac")
    put("trace.overhead_frac",
        untraced.tokens_per_s() / traced.tokens_per_s() - 1.0, "frac")
    put("trace.self_coverage", rec.coverage(traced.boundary, measure_ns), "frac")
    committed = rec.counts.get("timeline.commit.ops", 0)
    extras = {
        "units": units,
        "timeline.commit.ns_per_op": (table["timeline.commit"]["total_s"] * 1e9
                                      / committed if committed else 0.0),
        "measure_wall_s": measure_ns / 1e9,
        "setup_wall_s": sum(traced.setup_ns) / 1e9,
    }
    return metrics, {"layers": table, "extras": extras}


def print_layers(name: str, table: Dict[str, Dict[str, float]]) -> None:
    print(f"{name}  per-layer host time (traced run; self_frac = share of the "
          f"measured wall)")
    rows = sorted(((row["self_frac"], layer, row) for layer, row in table.items()
                   if row["calls"]), reverse=True)
    for frac, layer, row in rows:
        tail = next(((k, v) for k, v in row.items()
                     if k.startswith("us_p") and k != "us_p50"), None)
        print(f"  {layer:28s} calls {row['calls']:>9d}  self_s {row['self_s']:9.4f}"
              f"  self_frac {frac:7.4f}  setup_frac {row['setup_frac']:6.4f}"
              f"  us_p50 {row.get('us_p50', 0.0):10.2f}"
              + (f"  {tail[0]} {tail[1]:10.2f}" if tail else ""))


def write_json(path: str, payload: Dict[str, object],
               indent: Optional[int] = 1) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=indent, sort_keys=True)
        handle.write("\n")


def golden_path(golden_dir: str, name: str, quick: bool) -> str:
    return os.path.join(golden_dir, f"{name}{'.quick' if quick else ''}.json")


def load_golden(path: str) -> Dict[str, object]:
    if not os.path.exists(path):
        return {}
    with open(path) as handle:
        return json.load(handle)


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--record-golden", action="store_true")
    parser.add_argument("--golden-dir", default=GOLDEN_DIR)
    args = parser.parse_args(argv)
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"repro was imported from {repro.__file__}, not from "
                         f"this checkout's {SRC}: refusing to measure it")

    name = args.workload
    workload = get_workload(name, quick=args.quick)
    untraced = run_phase(workload, args.seed, args.seconds)
    e2e = e2e_metrics(untraced)
    outputs = untraced.session.outputs()
    attempted = untraced.session.attempted
    failed = untraced.session.failed
    problems = list(untraced.session.problems)

    path = golden_path(args.golden_dir, name, args.quick)
    golden = load_golden(path)
    key = str(args.seed)
    if args.record_golden:
        golden[key] = workload.golden_record(outputs)
        os.makedirs(args.golden_dir, exist_ok=True)
        write_json(path, golden)
        print(f"{name}  recorded golden outputs for seed {key} in {path}")
    elif key in golden:
        mismatch = workload.compare(outputs, golden[key])
        if mismatch:
            problems.extend(mismatch)
            failed = attempted
    for metric, entry in e2e.items():
        print(f"{name}  {metric}  {entry['value']:.6g} {entry['unit']}")
    print(describe_units(name, untraced))

    layers: Metrics = {}
    if args.trace:
        rec = SpanRecorder()
        with installed(rec):
            traced = run_phase(workload, args.seed, args.seconds, rec)
        attempted += traced.session.attempted
        failed += traced.session.failed
        problems.extend(traced.session.problems)
        traced_outputs = traced.session.outputs()
        reference = (DecodeWorkload.from_golden(golden[key])
                     if name == "decode" and key in golden else outputs)
        layers, report = layer_metrics(rec, traced, untraced, traced_outputs,
                                       reference)
        coverage = layers["trace.self_coverage"]["value"]
        if not outputs_equal(traced_outputs, outputs):
            problems.append("traced run's modelled outputs differ from the untraced run's")
            failed = attempted
        if coverage < MIN_SELF_COVERAGE:
            problems.append(f"trace self coverage {coverage:.3f} < {MIN_SELF_COVERAGE}")
            failed = attempted
        os.makedirs(OUT_DIR, exist_ok=True)
        meta = {"workload": name, "seed": args.seed, "quick": args.quick}
        write_json(os.path.join(OUT_DIR, f"{name}.trace.json"),
                   rec.chrome_trace(meta), indent=None)
        report.update(meta)
        report["metrics"] = layers
        write_json(os.path.join(OUT_DIR, f"{name}.layers.json"), report)
        print_layers(name, report["layers"])
        for metric in ("trace.overhead_frac", "trace.self_coverage"):
            print(f"{name}  {metric}  {layers[metric]['value']:.4f}")
        print(f"{name}  wrote {OUT_DIR}/{name}.trace.json (open in "
              f"https://ui.perfetto.dev) and {name}.layers.json")

    for problem in problems:
        print(f"{name}  CHECK FAILED: {problem}")
    print(json.dumps({"workload": name, "seed": args.seed, "attempted": attempted,
                      "failed": failed, "problems": problems, "e2e": e2e,
                      "layers": layers}))


if __name__ == "__main__":
    main()
