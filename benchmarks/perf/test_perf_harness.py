"""Smoke test of the benchmark harness on its ``--quick`` shapes.

The quick shapes are never used for recorded numbers; they make every
workload run in about a second so the test checks the harness itself:
every metric of ``BENCHMARK.json`` is printed with its unit, tracing leaves
modelled outputs unchanged and is removed afterwards, a wrong golden value
fails every operation, and the command refuses to run without ``src``.
"""

from __future__ import annotations

import base64
import json
import os
import shutil
import subprocess
import sys

import pytest

from perf import child, tracer, workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _bench(*args, cwd=ROOT, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", "--quick", "--seconds", "0", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    return proc, proc.stdout.splitlines()


def _result(*args):
    proc, lines = _bench(*args)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return lines[:-1], json.loads(lines[-1])


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    _result("--record-golden", "--golden-dir", str(path))
    return path


def test_every_metric_printed_with_its_unit(golden_dir):
    spec = _spec()
    lines, traced = _result("--trace", "1", "--golden-dir", str(golden_dir))
    assert traced["correct"] and traced["failed"] == 0
    assert traced["attempted"] > 0
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            assert any(line.startswith(f"{workload}  {metric['name']}  ")
                       and line.endswith(f" {metric['unit']}") for line in lines)
        for metric in spec["per_layer"]:
            entry = traced["metrics"][f"{workload}.{metric['name']}"]
            assert entry["unit"] == metric["unit"]
    for workload in ("serve_b8_poisson", "finetune", "decode"):
        assert traced["metrics"][f"{workload}.trace.self_coverage"]["value"] >= 0.95
    # Counts are per measured unit, set-up excluded: one serve per serve.
    assert traced["metrics"]["serve_b8_poisson.scheduler.serve.calls_per_unit"][
        "value"] == 1.0
    assert traced["metrics"]["finetune.optim.adam.calls_per_unit"]["value"] == 1.0
    _, plain = _result("--workload", "decode", "--golden-dir", str(golden_dir))
    assert set(plain["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(entry["value"] > 0 for entry in plain["metrics"].values())


def test_tracing_is_removed_and_changes_no_modelled_output():
    from repro.system.timeline import ArrayTimeline
    from repro.tensor import optim, primitives
    from repro.training import trainer

    commit = ArrayTimeline.__dict__["commit_batch"]
    matmul = primitives.REGISTRY["matmul"].forward
    for name in ("serve_b8_poisson", "finetune"):
        workload = workloads.get_workload(name, quick=True)
        plain = child.run_phase(workload, seed=3, seconds=0)
        rec = tracer.SpanRecorder()
        with tracer.installed(rec):
            assert ArrayTimeline.__dict__["commit_batch"] is not commit
            traced = child.run_phase(workload, seed=3, seconds=0, rec=rec)
        assert workloads.outputs_equal(plain.session.outputs(),
                                       traced.session.outputs())
        assert rec.num_spans > 0
    assert plain.session.outputs()["train.loss_final"] > 0
    assert ArrayTimeline.__dict__["commit_batch"] is commit
    assert primitives.REGISTRY["matmul"].forward is matmul
    assert trainer.clip_grad_norm is optim.clip_grad_norm
    with pytest.raises(RuntimeError):
        with tracer.installed(tracer.SpanRecorder()):
            raise RuntimeError("a failing traced run")
    assert ArrayTimeline.__dict__["commit_batch"] is commit


def _scale(key):
    def perturb(golden):
        golden[key] *= 1.001
    return perturb


def _shift_tokens(golden):
    raw = base64.b64decode(golden["tokens_b64"])
    golden["tokens_b64"] = base64.b64encode(
        bytes((b + 1) % 128 for b in raw)).decode("ascii")


@pytest.mark.parametrize("workload, perturb", [
    ("serve_b8_poisson", _scale("sim.makespan_s")),
    ("finetune", _scale("train.loss_step6")),
    ("decode", _shift_tokens),
])
def test_perturbed_golden_fails_every_operation(golden_dir, tmp_path, workload, perturb):
    name = f"{workload}.quick.json"
    with open(golden_dir / name) as handle:
        golden = json.load(handle)
    perturb(golden["0"])
    with open(tmp_path / name, "w") as handle:
        json.dump(golden, handle)
    lines, result = _result("--workload", workload, "--golden-dir", str(tmp_path))
    assert result["attempted"] > 0
    assert result["failed"] == result["attempted"]
    assert not result["correct"]
    assert any("CHECK FAILED" in line for line in lines)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, lines = _bench("--workload", "decode", cwd=tmp_path)
    assert proc.returncode != 0
    assert not (lines and lines[-1].startswith("{"))
