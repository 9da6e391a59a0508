"""Real-model tensor-path performance: the model engine's perf trajectory.

Unlike the figure benchmarks (which measure the *simulated* designs) and
``bench_simperf`` (which measures the discrete-event simulator), this one
measures the numpy tensor engine the functional models run on: forward,
train-step and batched greedy-decode throughput on a shape ladder under
each precision policy (``pure_fp64`` / ``pure_fp32`` / ``mixed``), against
the recorded pre-optimisation baseline in
:data:`repro.analysis.tensorperf.RECORDED_EAGER_BASELINE`.

The assertions are :func:`repro.analysis.tensorperf.check_tensorperf`, the
same bars the ``python -m repro tensorperf`` CLI enforces:

* ``pure_fp64`` is exactly the ambient default (0.0 loss/grad delta) and
  ``pure_fp32`` / ``mixed`` stay within the documented deviation budgets;
* train throughput stays above the recorded CI floor per precision on the
  always-measured rungs (~0.4x the recording-machine measurement, so
  honest regressions trip them but runner jitter does not);
* on the serving-scale rung (``--full`` / ``TENSORPERF_FULL=1`` runs) the
  engine clears **10x** the recorded pre-optimisation train-step
  throughput, and ``mixed`` clears **1.8x** the same run's fp64 train
  step;
* on full runs, ``pure_fp64`` fine-tuning of ``switch_mini_8`` clears 30
  exact-match points and ``mixed`` stays within 10 points of it on every
  Table-II metric.

The default pytest run measures the tiny and mini rungs (tens of seconds);
set ``TENSORPERF_QUICK=1`` for the CI smoke shape or ``TENSORPERF_FULL=1``
to regenerate the committed artifact's full ladder including the
serving-scale rung and the accuracy-parity protocol (minutes).  Only full
runs overwrite ``BENCH_tensorperf.json``.  ``python -m repro tensorperf``
runs the same measurement outside pytest; the CLI smoke below drives it.
"""

from __future__ import annotations

import os

from repro.analysis.tensorperf import (TENSORPERF_FILENAME, check_tensorperf,
                                       run_tensorperf, write_tensorperf)
from repro.cli import main

#: Committed at the repo root so the perf trajectory is versioned.
OUTPUT_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           TENSORPERF_FILENAME)


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "") not in ("", "0", "false", "False")


def test_tensorperf_records_trajectory():
    quick = _env_flag("TENSORPERF_QUICK")
    full = _env_flag("TENSORPERF_FULL") and not quick
    payload = run_tensorperf(quick=quick, full=full)
    if full:
        write_tensorperf(payload, os.path.abspath(OUTPUT_PATH))

    for name, row in payload["ladder"].items():
        for precision, metrics in row["cells"].items():
            assert metrics["train_steps_per_s"] > 0, (name, precision)
            assert metrics["forward_tokens_per_s"] > 0, (name, precision)
            assert metrics["generate_tokens_per_s"] > 0, (name, precision)
    failures = check_tensorperf(payload)
    assert not failures, "\n".join(failures)

    speedups = payload["speedup_over_recorded_baseline"]
    print()
    print("tensorperf (per precision, speedup vs recorded pre-optimisation "
          "baseline):")
    for name, row in payload["ladder"].items():
        for precision, metrics in row["cells"].items():
            speedup = speedups.get(name, {}).get("train_steps_per_s")
            suffix = (f"  train speedup {speedup:5.1f}x"
                      if precision == "pure_fp64" and speedup else "")
            print(f"  {name:>13} {precision:>10}: "
                  f"{metrics['train_steps_per_s']:8.2f} train steps/s  "
                  f"{metrics['forward_tokens_per_s']:9.0f} fwd tok/s  "
                  f"{metrics['generate_tokens_per_s']:8.0f} gen tok/s{suffix}")
        mixed = payload["mixed_train_speedup_over_fp64"].get(name)
        if mixed:
            print(f"  {name:>13} mixed vs fp64 train: {mixed:.2f}x")
    for precision, parity in payload["parity"]["precision"].items():
        print(f"  precision parity [{precision} vs pure_fp64]: "
              f"loss diff {parity['loss_abs_diff']:.1e}, "
              f"grad diff {parity['grad_max_abs_diff']:.1e}")
    if "accuracy_parity" in payload:
        accuracy = payload["accuracy_parity"]
        for precision, scores in accuracy["scores"].items():
            print(f"  accuracy [{precision}]: exact match "
                  f"{scores['exact_match']:.1f}, f1 {scores['f1']:.1f}")


def test_tensorperf_cli_quick_smokes_without_writing_json(tmp_path,
                                                          monkeypatch, capsys):
    """``python -m repro tensorperf --quick``: both always-on rungs and every
    precision reported, the bars hold, and no artifact is written."""
    monkeypatch.chdir(tmp_path)
    assert main(["tensorperf", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "train steps/s" in out
    for token in ("tiny", "mini", "pure_fp64", "pure_fp32", "mixed"):
        assert token in out
    # Only --full (which adds the serving-scale rung) writes the
    # artifact — a smoke shape must never overwrite the trajectory.
    assert not os.path.exists(tmp_path / TENSORPERF_FILENAME)
