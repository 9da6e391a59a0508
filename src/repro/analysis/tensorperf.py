"""Real-model tensor-path performance benchmark (the model perf trajectory).

Where ``simperf`` measures the discrete-event *simulator*, this benchmark
measures the *real-model* path: the numpy tensor engine that the Table-2
accuracy and fine-tuning benches run on.  It times three workloads on a
ladder of model/batch shapes, under each precision policy:

* ``forward``  — a full encoder–decoder forward pass under ``no_grad``
  (tokens per wall-clock second);
* ``train``    — one fine-tuning step: forward, fused softmax–cross-entropy
  loss, backward, gradient clipping, Adam update (steps/s and tokens/s);
* ``generate`` — batched greedy decoding with the KV cache (new tokens per
  second).

The ladder (:data:`RUNGS`) spans the shapes the functional benches actually
use — ``tiny`` is the Table-2 seed shape, ``mini`` the promoted ≥4×-larger
Table-2 config — plus a serving-scale rung (``tiny_serving``, ~30k tokens
per step) where the *pre-optimisation* engine's quadratic expert-combine
and KV-cache behaviour dominated.  :data:`RECORDED_EAGER_BASELINE` pins
that pre-optimisation engine's throughput, measured with this module's
exact protocol before the engine was vectorised, so every run reports an
honest speedup trajectory against it.  :func:`check_tensorperf` holds every
acceptance bar (≥10× train-step throughput at the serving rung among them)
in one place for both the CLI and ``benchmarks/bench_tensorperf.py``.

Timing protocol: every metric is the best (minimum wall time) of ``reps``
repetitions after one untimed warmup, which is the standard estimator on a
shared/noisy host — the minimum approaches the true cost while means drift
with co-tenant load.
"""

from __future__ import annotations

import gc
import json
import platform
import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..moe.configs import get_config
from ..moe.transformer import SwitchTransformer
from ..tensor import Adam, clip_grad_norm, no_grad, use_precision
from ..tensor import functional as F

#: Decoding ids shared by every rung (vocab ids 0/1 are pad/bos in the
#: synthetic tasks).
BOS_ID = 1
EOS_ID = 0
SEED = 0

#: The measurement ladder.  ``reps`` is the per-metric repetition count
#: (the minimum is reported); ``full_only`` rungs run only with ``full``
#: (they take tens of seconds per repetition on the pre-optimisation
#: baseline and are the artifact-regeneration path, not a CI job).
RUNGS: Sequence[Dict[str, object]] = (
    {"name": "tiny", "config": "tiny_moe_8", "batch": 16,
     "input_length": 12, "output_length": 8, "reps": 8, "full_only": False},
    {"name": "mini", "config": "switch_mini_8", "batch": 16,
     "input_length": 12, "output_length": 8, "reps": 6, "full_only": False},
    {"name": "tiny_serving", "config": "tiny_moe_8", "batch": 768,
     "input_length": 24, "output_length": 16, "reps": 4, "full_only": True},
)

#: Precision policies measured at every rung (the precision axis): the
#: bit-identical default, pure fp32, and the mixed recipe (fp32 compute,
#: fp64 master weights and fp64 softmax/LayerNorm/loss reductions).
PRECISIONS = ("pure_fp64", "pure_fp32", "mixed")

#: Pre-optimisation engine throughput (per-op graph, per-expert Python-loop
#: dispatch, O(T²) scatter-matmul combine, re-concatenating KV cache) on
#: the recording machine with this module's protocol (min over reps).
#: These are the denominators of every reported speedup.
RECORDED_EAGER_BASELINE: Dict[str, Dict[str, float]] = {
    "tiny": {
        "train_steps_per_s": 25.77,
        "train_tokens_per_s": 8246.0,
        "forward_tokens_per_s": 21635.0,
        "generate_tokens_per_s": 2789.0,
    },
    "mini": {
        "train_steps_per_s": 9.58,
        "train_tokens_per_s": 3065.0,
        "forward_tokens_per_s": 12321.0,
        "generate_tokens_per_s": 2127.0,
    },
    "tiny_serving": {
        "train_steps_per_s": 0.0442,
        "train_tokens_per_s": 1356.0,
        "forward_tokens_per_s": 5617.0,
        "generate_tokens_per_s": 3412.0,
    },
}

#: CI floors per precision policy: a quick run's train throughput below
#: these fails the perf smoke job.  Values are ~0.4x the measurement
#: on the recording machine (see the committed artifact), so honest
#: regressions trip them but CI-runner jitter does not.  The fp64 floors
#: were tightened from the pre-precision values (tiny 9.0 / mini 3.0,
#: ~5x slack against the measured 46.5 / 16.9).
TRAIN_FLOOR_STEPS_PER_S: Dict[str, Dict[str, float]] = {
    "pure_fp64": {"tiny": 18.0, "mini": 6.0},
    "pure_fp32": {"tiny": 22.0, "mini": 8.0},
    "mixed": {"tiny": 20.0, "mini": 7.0},
}

#: Budgets for each precision policy's loss / gradient deviation from
#: ``pure_fp64`` on the parity protocol (documented in DESIGN.md).  The
#: measured deviations are ~2.5e-7 (loss) and ~1e-6 (grads); the budgets
#: keep two orders of magnitude of headroom.  ``pure_fp64`` is exact.
PRECISION_LOSS_BUDGET: Dict[str, float] = {
    "pure_fp64": 0.0, "pure_fp32": 5e-5, "mixed": 5e-5,
}
PRECISION_GRAD_BUDGET: Dict[str, float] = {
    "pure_fp64": 0.0, "pure_fp32": 5e-4, "mixed": 5e-4,
}

#: The serving-rung bar: train-step throughput over the recorded
#: pre-optimisation baseline at :data:`SERVING_RUNG`.  The speedup comes
#: from the vectorised eager engine (grouped expert dispatch, fused
#: kernels, preallocated KV cache, in-place Adam).
SERVING_RUNG = "tiny_serving"
SERVING_SPEEDUP_BAR = 10.0

#: The precision bar: ``mixed`` train-step throughput over the same run's
#: ``pure_fp64`` value at the serving-scale rung.
MIXED_TRAIN_SPEEDUP_BAR = 1.8

#: Maximum absolute Table-II metric difference, in points of the 0–100
#: :class:`~repro.data.metrics.EvalScores` scale, between a ``mixed`` and a
#: ``pure_fp64`` run of the accuracy-parity protocol.  One argmax flip over
#: the 48-example eval set moves exact match by 100/48 ≈ 2.1 points, so 10
#: points admits a handful of flips but not a systematic accuracy loss.
ACCURACY_PARITY_TOLERANCE = 10.0

#: ``pure_fp64`` must learn the task before the parity diff means anything:
#: its exact match must clear the Table-II bench's learned-score floor.
ACCURACY_PARITY_FLOOR = 30.0

#: Canonical artifact filename (committed at the repo root).
TENSORPERF_FILENAME = "BENCH_tensorperf.json"


def _best(fn: Callable[[], object], reps: int) -> float:
    """Minimum wall time of ``reps`` calls after one untimed warmup."""
    fn()
    times = []
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return min(times)


def _rung_data(rung: Dict[str, object]):
    config = get_config(rung["config"])
    rng = np.random.default_rng(SEED)
    batch, in_len, out_len = rung["batch"], rung["input_length"], rung["output_length"]
    enc = rng.integers(1, config.vocab_size, size=(batch, in_len))
    dec = rng.integers(1, config.vocab_size, size=(batch, out_len))
    tgt = rng.integers(1, config.vocab_size, size=(batch, out_len))
    return config, enc, dec, tgt


def measure_rung(rung: Dict[str, object], reps: Optional[int] = None,
                 precision: str = "pure_fp64") -> Dict[str, float]:
    """Measure one precision cell of a rung: train, forward and decode.

    Only the workload itself is inside the timed region; model
    construction and input generation are shared setup.  The precision
    policy is active for the whole measurement via
    :func:`repro.tensor.use_precision`.  Cross-policy train ratios come
    from :func:`measure_train_speedups` instead, whose timing rounds are
    interleaved.
    """
    config, enc, dec, tgt = _rung_data(rung)
    reps = int(rung["reps"]) if reps is None else reps
    tokens = enc.size + dec.size
    # Dead graphs from earlier cells otherwise linger into this cell's
    # timed region and skew big-rung allocations (measured ~10% on the
    # serving rung when it runs last in a full ladder).
    gc.collect()
    with use_precision(precision):
        model = SwitchTransformer(config, seed=SEED)
        model.train()
        opt = Adam(model.parameters(), lr=1e-4)

        def train_step():
            out = model(enc, dec)
            loss = F.cross_entropy(out.logits, tgt, ignore_index=0)
            loss = loss + out.aux_loss * 1e-2
            model.zero_grad()
            loss.backward()
            clip_grad_norm(model.parameters(), 1.0)
            opt.step()

        t_train = _best(train_step, reps)

        model.eval()

        def forward():
            with no_grad():
                model(enc, dec)

        t_forward = _best(forward, reps)

        def decode():
            return model.greedy_decode(enc, bos_id=BOS_ID, eos_id=EOS_ID,
                                       max_new_tokens=rung["output_length"])

        generated, _ = decode()
        gen_tokens = enc.shape[0] * (generated.shape[1] - 1)
        t_generate = _best(decode, max(2, reps // 2))
    return {
        "precision": precision,
        "train_steps_per_s": 1.0 / t_train,
        "train_tokens_per_s": tokens / t_train,
        "forward_tokens_per_s": tokens / t_forward,
        "generate_tokens_per_s": gen_tokens / t_generate,
        "train_wall_seconds": t_train,
    }


def _interleaved_best(fn: Callable[[str], object],
                      keys: Sequence[str], reps: int) -> Dict[str, float]:
    """Per-key minimum wall time over ``reps`` interleaved timing rounds.

    Each round times every key back-to-back, so slow monotonic host and
    allocator drift lands on all keys equally instead of flattering
    whichever key happens to be measured earlier — cross-key *ratios*
    (mixed vs fp64) are what the acceptance bars compare,
    and serial per-key timing was measurably biasing them by 10–20% on a
    shared host.  One untimed warmup call per key precedes the rounds.
    """
    for key in keys:
        fn(key)
    times: Dict[str, list] = {key: [] for key in keys}
    for _ in range(reps):
        for key in keys:
            started = time.perf_counter()
            fn(key)
            times[key].append(time.perf_counter() - started)
    return {key: min(samples) for key, samples in times.items()}


def measure_train_speedups(rung: Dict[str, object],
                           reps: Optional[int] = None) -> Dict[str, float]:
    """Train-step speedup of each policy over ``pure_fp64``, paired.

    The precision tentpole bar compares policies *against each other*, so
    it must not inherit the host drift that separates two serially-timed
    cells: one model + optimiser per policy is built up front and the
    timing rounds are interleaved (:func:`_interleaved_best`).  The
    per-cell absolute numbers in the ladder deliberately stay serial —
    that is the protocol :data:`RECORDED_EAGER_BASELINE` and the CI
    floors were recorded with — while every recorded cross-policy ratio
    comes from this paired measurement.
    """
    config, enc, dec, tgt = _rung_data(rung)
    reps = int(rung["reps"]) if reps is None else reps
    gc.collect()
    setups: Dict[str, tuple] = {}
    for precision in PRECISIONS:
        with use_precision(precision):
            model = SwitchTransformer(config, seed=SEED)
            model.train()
            opt = Adam(model.parameters(), lr=1e-4)
        setups[precision] = (model, opt)

    def train_step(precision):
        model, opt = setups[precision]
        with use_precision(precision):
            out = model(enc, dec)
            loss = F.cross_entropy(out.logits, tgt, ignore_index=0)
            loss = loss + out.aux_loss * 1e-2
            model.zero_grad()
            loss.backward()
            clip_grad_norm(model.parameters(), 1.0)
            opt.step()

    t_train = _interleaved_best(train_step, list(setups), reps)
    return {precision: t_train["pure_fp64"] / t_train[precision]
            for precision in PRECISIONS}


def _parity_train_step(config, enc, dec, tgt):
    """Loss value and fp64 copies of every grad for one deterministic step."""
    model = SwitchTransformer(config, seed=SEED)
    model.train()
    out = model(enc, dec)
    loss = F.cross_entropy(out.logits, tgt, ignore_index=0)
    loss = loss + out.aux_loss * 1e-2
    model.zero_grad()
    loss.backward()
    return (
        float(loss.item()),
        [None if p.grad is None else np.asarray(p.grad, dtype=np.float64)
         for p in model.parameters()],
    )


def _max_grad_diff(grads_a, grads_b) -> float:
    diff = 0.0
    for ga, gb in zip(grads_a, grads_b):
        assert (ga is None) == (gb is None)
        if ga is not None:
            diff = max(diff, float(np.max(np.abs(ga - gb))))
    return diff


def measure_precision_parity(config_name: str = "switch_mini_8", batch: int = 4,
                             input_length: int = 6,
                             output_length: int = 5) -> Dict[str, Dict[str, float]]:
    """Loss / grad deviation of every precision policy from ``pure_fp64``.

    The ``pure_fp64`` entry compares an explicit ``use_precision
    ("pure_fp64")`` run against the ambient-default run — it must be exactly
    0.0 (the default policy *is* pure_fp64 and the engine is deterministic).
    ``pure_fp32`` and ``mixed`` must stay within the documented budgets
    (:data:`PRECISION_LOSS_BUDGET` / :data:`PRECISION_GRAD_BUDGET`).
    """
    rung = {"config": config_name, "batch": batch, "input_length": input_length,
            "output_length": output_length}
    config, enc, dec, tgt = _rung_data(rung)
    loss_ref, grads_ref = _parity_train_step(config, enc, dec, tgt)
    out: Dict[str, Dict[str, float]] = {}
    for precision in PRECISIONS:
        with use_precision(precision):
            loss_p, grads_p = _parity_train_step(config, enc, dec, tgt)
        out[precision] = {
            "loss_abs_diff": abs(loss_p - loss_ref),
            "grad_max_abs_diff": _max_grad_diff(grads_p, grads_ref),
            "loss_budget": PRECISION_LOSS_BUDGET[precision],
            "grad_budget": PRECISION_GRAD_BUDGET[precision],
        }
    return out


def measure_accuracy_parity(config_name: str = "switch_mini_8",
                            task_name: str = "squad_like",
                            steps: int = 120) -> Dict[str, object]:
    """Table-II task accuracy under ``mixed`` vs ``pure_fp64``.

    Runs the Table-II bench's fine-tuning recipe (shared pre-trained
    weights; 120 steps, batch 16, lr 3e-3, seed 0; 192 training and 48
    eval examples) once per policy and reports both policies' scores and
    their absolute per-metric differences, in the 0–100 points of
    :class:`~repro.data.metrics.EvalScores`.
    """
    from ..training.finetune import finetune_conventional, pretrain_conventional
    from ..training.trainer import TrainingConfig
    from ..data.tasks import make_task
    from ..data.tokenizer import default_vocabulary

    config = get_config(config_name)
    tokenizer = default_vocabulary(num_content_words=config.vocab_size - 4)
    scores: Dict[str, Dict[str, float]] = {}
    for precision in ("pure_fp64", "mixed"):
        training = TrainingConfig(steps=steps, batch_size=16,
                                  learning_rate=3e-3, seed=SEED,
                                  precision=precision)
        task = make_task(task_name, tokenizer=tokenizer, seed=SEED)
        pretrained = pretrain_conventional(config, task, seed=SEED,
                                           training=TrainingConfig(
                                               steps=60, batch_size=16,
                                               seed=SEED, precision=precision))
        outcome = finetune_conventional(pretrained, task, training,
                                        train_size=192, eval_size=48)
        scores[precision] = outcome.scores.as_dict()
    diffs = {metric: abs(scores["mixed"][metric] - scores["pure_fp64"][metric])
             for metric in ("rouge1", "rouge2", "exact_match", "f1")}
    return {
        "config": config_name,
        "task": task_name,
        "steps": steps,
        "scores": scores,
        "abs_diffs": diffs,
        "tolerance": ACCURACY_PARITY_TOLERANCE,
        "fp64_exact_match_floor": ACCURACY_PARITY_FLOOR,
    }


def run_tensorperf(quick: bool = False, full: bool = False) -> Dict[str, object]:
    """Measure the ladder; returns the ``BENCH_tensorperf.json`` payload.

    ``quick`` measures the always-on rungs with fewer repetitions (the CI
    smoke shape); the default measures them at full repetitions; ``full``
    adds the serving-scale rung and the accuracy-parity protocol and is
    the artifact-regeneration path (minutes of wall time on the recording
    machine).
    """
    ladder: Dict[str, Dict[str, object]] = {}
    train_speedups: Dict[str, Dict[str, float]] = {}
    for rung in RUNGS:
        if rung["full_only"] and not full:
            continue
        reps = max(2, int(rung["reps"]) // 2) if quick else None
        cells = {precision: measure_rung(rung, reps=reps, precision=precision)
                 for precision in PRECISIONS}
        # Cross-policy train ratios come from a paired interleaved
        # measurement, not from dividing two serially-timed cells.
        train_speedups[str(rung["name"])] = measure_train_speedups(
            rung, reps=reps)
        ladder[str(rung["name"])] = {
            "config": rung["config"],
            "batch": rung["batch"],
            "input_length": rung["input_length"],
            "output_length": rung["output_length"],
            "tokens_per_step": rung["batch"] * (
                rung["input_length"] + rung["output_length"]),
            "cells": cells,
        }
    speedups: Dict[str, Dict[str, float]] = {}
    mixed_speedups: Dict[str, float] = {
        name: ratios["mixed"] for name, ratios in train_speedups.items()}
    for name, row in ladder.items():
        fp64 = row["cells"]["pure_fp64"]
        base = RECORDED_EAGER_BASELINE.get(name)
        if base is None:
            continue
        speedups[name] = {
            metric: fp64[metric] / base[metric]
            for metric in ("train_steps_per_s", "forward_tokens_per_s",
                           "generate_tokens_per_s")
            if base.get(metric)
        }
    payload: Dict[str, object] = {
        "benchmark": "tensorperf",
        "python": platform.python_version(),
        "seed": SEED,
        "precisions": list(PRECISIONS),
        "recorded_eager_baseline": RECORDED_EAGER_BASELINE,
        "floors": {"train_steps_per_s": TRAIN_FLOOR_STEPS_PER_S},
        "ladder": ladder,
        "parity": {"precision": measure_precision_parity()},
        "speedup_over_recorded_baseline": speedups,
        "train_speedup_over_fp64": train_speedups,
        "mixed_train_speedup_over_fp64": mixed_speedups,
        "mixed_train_speedup_bar": MIXED_TRAIN_SPEEDUP_BAR,
    }
    if full:
        # Table-II accuracy parity of the mixed policy; a fine-tune
        # protocol run, so only on artifact-regeneration (full) runs.
        payload["accuracy_parity"] = measure_accuracy_parity()
    return payload


def check_tensorperf(payload: Dict[str, object]) -> List[str]:
    """Every acceptance bar of a :func:`run_tensorperf` payload.

    Returns one message per failed bar (empty when all hold).  The
    serving-rung and accuracy bars apply only when the payload carries
    the serving rung / accuracy-parity protocol (``full`` runs).
    """
    failures: List[str] = []
    for precision, parity in payload["parity"]["precision"].items():
        if (parity["loss_abs_diff"] > parity["loss_budget"]
                or parity["grad_max_abs_diff"] > parity["grad_budget"]):
            failures.append(
                f"precision parity: {precision} deviates from pure_fp64 by "
                f"loss {parity['loss_abs_diff']:.3e} / grad "
                f"{parity['grad_max_abs_diff']:.3e} (budgets "
                f"{parity['loss_budget']:.0e} / {parity['grad_budget']:.0e})")
    for name, row in payload["ladder"].items():
        for precision, floors in TRAIN_FLOOR_STEPS_PER_S.items():
            floor = floors.get(name)
            measured = row["cells"][precision]["train_steps_per_s"]
            if floor is not None and measured < floor:
                failures.append(
                    f"train floor: {precision} train step ran {measured:.2f} "
                    f"steps/s on the {name} rung, below the recorded floor "
                    f"of {floor:.2f}")
    if SERVING_RUNG in payload["ladder"]:
        speedup = payload["speedup_over_recorded_baseline"][SERVING_RUNG][
            "train_steps_per_s"]
        if speedup < SERVING_SPEEDUP_BAR:
            failures.append(
                f"serving rung: train speedup {speedup:.1f}x over the "
                f"recorded baseline is below the {SERVING_SPEEDUP_BAR:.0f}x "
                f"bar")
        mixed = payload["mixed_train_speedup_over_fp64"][SERVING_RUNG]
        if mixed < MIXED_TRAIN_SPEEDUP_BAR:
            failures.append(
                f"serving rung: mixed-precision train speedup {mixed:.2f}x "
                f"is below the {MIXED_TRAIN_SPEEDUP_BAR:.1f}x bar")
    accuracy = payload.get("accuracy_parity")
    if accuracy is not None:
        learned = accuracy["scores"]["pure_fp64"]["exact_match"]
        if learned <= ACCURACY_PARITY_FLOOR:
            failures.append(
                f"accuracy parity: pure_fp64 exact match {learned:.1f} does "
                f"not clear the {ACCURACY_PARITY_FLOOR:.0f}-point floor")
        for metric, diff in accuracy["abs_diffs"].items():
            if diff > ACCURACY_PARITY_TOLERANCE:
                failures.append(
                    f"accuracy parity: mixed and pure_fp64 {metric} differ "
                    f"by {diff:.1f} points (tolerance "
                    f"{ACCURACY_PARITY_TOLERANCE:.0f})")
    return failures


def write_tensorperf(payload: Dict[str, object], path: str) -> None:
    """Persist a :func:`run_tensorperf` payload as pretty-printed JSON."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
