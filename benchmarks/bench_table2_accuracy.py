"""Table II — model accuracy: conventional MoE vs Pre-gated MoE.

Paper result: fine-tuned from the same pre-trained weights with the same
recipe, Pre-gated MoE matches (sometimes slightly exceeds, sometimes
slightly trails) the conventional architecture's Rouge-1/2, ExactMatch and
F1 across Xsum, CB-WebQA and SQuAD.

This bench runs the same protocol on the synthetic task substitutes with the
tiny functional models (see DESIGN.md for the substitution argument) and
checks that the accuracy gap stays small.

It also checks that the ``mixed`` precision policy (fp32 compute, fp64
master weights and reductions) keeps the task accuracy: the ``squad_like``
conventional cell is pre-trained and fine-tuned once more under ``mixed``
and must land within 10 points of the fp64 cell on every metric.
"""

from dataclasses import replace

import pytest

from conftest import emit
from repro.analysis import FigureReport
from repro.data import PAPER_TASK_SUBSTITUTIONS, default_vocabulary, make_task
from repro.moe.configs import get_config
from repro.training import (TrainingConfig, compare_architectures,
                            finetune_conventional, pretrain_conventional)

# Promoted from tiny_moe_8 (~243k params) to switch_mini_8 (~1.27M params,
# ~5.2x) once the vectorized tensor engine made the larger config train in
# CI time — bench_tensorperf.py times the engine's train step.
MODEL = "switch_mini_8"
TRAINING = TrainingConfig(steps=120, batch_size=16, learning_rate=3e-3, seed=0)
TASKS = ("xsum_like", "webqa_like", "squad_like")

PAPER_ROWS = {
    # (task, architecture) -> headline paper metric, for the reference column.
    "xsum_like": "Base-128: R1 38.1 vs 38.0 (pre-gated)",
    "webqa_like": "Base-128: EM 27.4 vs 25.8 (pre-gated)",
    "squad_like": "Base-128: EM 81.7 vs 82.2 (pre-gated)",
}


#: Accuracy parity of the ``mixed`` policy against the fp64 cell, which the
#: learned-task assertion below already holds above 30 exact-match points.
#: One flipped answer over the 48 eval examples moves exact match by ~2.1
#: points, so a 10-point band admits a handful of flips but not a
#: systematic loss.
PARITY_TASK = "squad_like"
PARITY_TOLERANCE = 10.0
PARITY_METRICS = ("rouge1", "rouge2", "exact_match", "f1")


def run_accuracy_study():
    comparisons = {}
    for task in TASKS:
        comparisons[task] = compare_architectures(
            MODEL, task, training=TRAINING, train_size=192, eval_size=48, seed=0)
    return comparisons


def run_mixed_conventional():
    """The ``PARITY_TASK`` conventional cell, pre-trained and fine-tuned
    under ``mixed`` (same tokenizer, data and recipe as the fp64 cell)."""
    config = get_config(MODEL)
    task = make_task(PARITY_TASK, seed=0, tokenizer=default_vocabulary(
        num_content_words=config.vocab_size - 4))
    pretrained = pretrain_conventional(
        config, task, seed=0,
        training=TrainingConfig(steps=60, batch_size=16, seed=0, precision="mixed"))
    return finetune_conventional(pretrained, task,
                                 replace(TRAINING, precision="mixed"),
                                 train_size=192, eval_size=48)


@pytest.mark.benchmark(group="table2")
def test_table2_accuracy(benchmark, results_dir):
    comparisons = benchmark.pedantic(run_accuracy_study, rounds=1, iterations=1)
    report = FigureReport(
        figure="Table II",
        description="Conventional vs Pre-gated accuracy on the synthetic task substitutes",
        headers=["task", "architecture", "Rouge-1", "Rouge-2", "ExactMatch", "F1",
                 "paper reference"],
        paper_reference="Pre-gated MoE matches conventional MoE accuracy across tasks.",
        notes="Synthetic substitutes for Xsum / CB-WebQA / SQuAD; see DESIGN.md.",
    )
    substitution = {v: k for k, v in PAPER_TASK_SUBSTITUTIONS.items()}
    for task, comparison in comparisons.items():
        for outcome in (comparison.conventional, comparison.pregated):
            scores = outcome.scores
            report.add_row(f"{task} ({substitution[task]})", outcome.architecture,
                           round(scores.rouge1, 1), round(scores.rouge2, 1),
                           round(scores.exact_match, 1), round(scores.f1, 1),
                           PAPER_ROWS[task])
    emit(report, results_dir, "table2_accuracy.csv")

    for task, comparison in comparisons.items():
        metric = "rouge1" if task == "xsum_like" else "exact_match"
        conventional = comparison.conventional.metric(metric)
        pregated = comparison.pregated.metric(metric)
        # Both architectures must have learned the task...
        assert conventional > 30.0, f"{task}: conventional failed to learn"
        assert pregated > 30.0, f"{task}: pre-gated failed to learn"
        # ... and the pre-gate must not cost a large accuracy drop.
        assert pregated - conventional > -25.0, f"{task}: pre-gated dropped too far"

    fp64 = comparisons[PARITY_TASK].conventional.scores.as_dict()
    mixed = run_mixed_conventional().scores.as_dict()
    print(f"accuracy parity ({PARITY_TASK} conventional): "
          + ", ".join(f"{metric} fp64 {fp64[metric]:.1f} / mixed {mixed[metric]:.1f}"
                      for metric in PARITY_METRICS))
    for metric in PARITY_METRICS:
        assert abs(mixed[metric] - fp64[metric]) <= PARITY_TOLERANCE, metric
