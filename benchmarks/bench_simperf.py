"""Simulator self-performance: throughput and memory of the serving loop.

Unlike the figure benchmarks (which measure the *simulated* designs), this
one measures the simulator itself and records the repo's perf trajectory:
serving a decode-heavy pregated Switch-Base-128 load (per-request batch
size 1 — the paper's serving mode) on the columnar timeline kernel
(``ArrayTimeline``), it compares the serving modes:

* ``trace``         — full op trace kept (Figure 9 mode);
* ``kernel``        — incremental aggregates + op retirement;
* ``kernel_replay`` — the kernel plus steady-state round replay;
* ``kernel_probed`` — ``kernel`` with sampled observability probes on,
  pinning the probe layer's overhead against the kernel floor.

Each run also measures the placement rung — multi-GPU serving in the
hot-expert regime, where replay follows each expert's owner device.
Replay stands down on expert caches and DRAM stages, so no cached
placement has a rung.

The assertions pin the mode contract end-to-end: trace, kernel and
probed simulate the *same* execution bit-for-bit (equal makespan, ops and
token throughput); replay matches them to 1e-7 relative (1e-9 at test
scale — the drift is float reassociation across closed-form windows)
while skipping most decode rounds and running at least 5x faster than
the replay-off kernel (the committed ``BENCH_simperf.json`` records
11.8x / 13.7x at the 1.6k / 16k-request rungs of the scaling ladder);
and on the multi-GPU placement rung replay engages and clears 5x over the
replay-off kernel.

The default pytest run measures a few hundred requests (seconds); set
``SIMPERF_QUICK=1`` for the CI smoke shape or ``SIMPERF_FULL=1`` to
regenerate the committed artifact's full 1.6k/16k/100k/1M ladder
(tens of minutes — the million-request rung alone is most of it).
Only full runs overwrite ``BENCH_simperf.json`` — a smoke run must not
replace the recorded scaling ladder.  ``python -m repro simperf`` runs the
same measurement outside pytest.
"""

from __future__ import annotations

import os

from repro.analysis.simperf import (SIMPERF_FILENAME, run_simperf,
                                    write_simperf)
from repro.cli import main

#: Committed at the repo root so the perf trajectory is versioned.
OUTPUT_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           SIMPERF_FILENAME)


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "") not in ("", "0", "false", "False")


def test_simperf_records_trajectory():
    quick = _env_flag("SIMPERF_QUICK")
    full = _env_flag("SIMPERF_FULL") and not quick
    payload = run_simperf(quick=quick, full=full)
    if full:
        write_simperf(payload, os.path.abspath(OUTPUT_PATH))

    speedups = payload["kernel_replay_speedup_over_kernel"]["scaling"]
    for size, by_mode in payload["scaling"].items():
        kernel = by_mode.get("kernel")
        replay = by_mode.get("kernel_replay")
        # Trace, kernel and probed modes are the SAME simulated execution:
        # trace recording and probes observe the run, they must not change
        # it.
        for name in ("trace", "kernel_probed"):
            exact = by_mode.get(name)
            if exact is None or kernel is None:
                continue
            assert exact["makespan_seconds"] == kernel["makespan_seconds"]
            assert exact["total_ops"] == kernel["total_ops"]
            assert exact["sustained_tokens_per_second"] == \
                kernel["sustained_tokens_per_second"]
        trace = by_mode.get("trace")
        if trace is not None:
            # Trace keeps every op; the others retire them round by round.
            assert trace["peak_resident_ops"] == trace["total_ops"]
        if kernel is not None:
            assert kernel["peak_resident_ops"] < kernel["total_ops"] / 10
        # Replay simulates the same load while skipping most rounds.  The
        # parity tests pin 1e-9 at test scale; across tens of thousands of
        # closed-form windows the reassociated float sums drift a little
        # further (observed ~3e-8 relative at the 16k rung), so the ladder
        # bar is 1e-7 relative.
        if replay is not None and kernel is not None:
            rel = abs(replay["makespan_seconds"] - kernel["makespan_seconds"])
            assert rel <= 1e-7 * kernel["makespan_seconds"]
            assert replay["total_ops"] == kernel["total_ops"]
            assert replay["replay_windows"] > 0
            assert replay["replay_ops"] > replay["total_ops"] / 2
            assert speedups[size] >= 5.0, speedups
        for mode in by_mode.values():
            assert mode["simulated_requests_per_second"] > 0
            assert mode["wall_seconds"] > 0

    # Placement rung: replay must engage and pay off on multi-GPU serving,
    # with the same exact-counter parity as the plain scenario (the
    # committed artifact records 13.6x).
    placement_speedups = payload["kernel_replay_speedup_over_kernel"][
        "placements"]
    for name, rung in payload["placements"].items():
        kernel, replay = rung["kernel"], rung["kernel_replay"]
        rel = abs(replay["makespan_seconds"] - kernel["makespan_seconds"])
        assert rel <= 1e-7 * kernel["makespan_seconds"], name
        assert replay["total_ops"] == kernel["total_ops"], name
        assert replay["replay_windows"] > 0, name
        assert placement_speedups[name] >= 5.0, (name, placement_speedups)

    print()
    print(f"simperf ({payload['design']}/{payload['config']}, "
          f"in={payload['scenario']['input_length']} "
          f"out={payload['scenario']['output_length']} batch=1):")
    for size, by_mode in sorted(payload["scaling"].items(),
                                key=lambda kv: int(kv[0])):
        for name, mode in by_mode.items():
            print(f"  {int(size):>6} req {name:>13}: "
                  f"{mode['simulated_requests_per_second']:8.1f} sim req/s  "
                  f"{mode['peak_resident_ops']:>8} peak resident ops  "
                  f"({mode['total_ops']} total ops, "
                  f"{mode['replay_rounds']} replayed rounds)")
    for size, speedup in sorted(speedups.items(), key=lambda kv: int(kv[0])):
        print(f"  {int(size):>6} req kernel_replay speedup over kernel: "
              f"{speedup:.1f}x")
    for name, rung in payload["placements"].items():
        print(f"  [{name}] {rung['requests']} req: "
              f"kernel {rung['kernel']['simulated_requests_per_second']:.1f} "
              f"-> replay "
              f"{rung['kernel_replay']['simulated_requests_per_second']:.1f} "
              f"sim req/s ({placement_speedups[name]:.1f}x, "
              f"{rung['kernel_replay']['replay_rounds']} replayed rounds)")


def test_simperf_cli_quick_smokes_without_writing_json(tmp_path, monkeypatch,
                                                       capsys):
    """``python -m repro simperf --quick``: every quick mode reported, the
    floors hold, and no artifact is written."""
    monkeypatch.chdir(tmp_path)
    assert main(["simperf", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "peak resident ops" in out
    for mode in ("kernel", "kernel_replay", "kernel_probed"):
        assert f" {mode} " in out
    # Only --full (the recorded scaling ladder) writes the artifact — a
    # smoke shape must never overwrite the committed trajectory.
    assert not os.path.exists(tmp_path / SIMPERF_FILENAME)
