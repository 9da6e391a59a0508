"""Tests for the tensorperf acceptance bars (:func:`check_tensorperf`).

The committed ``BENCH_tensorperf.json`` is the fixture: it must clear every
bar, and each test pushes one measurement of a copy past its bar.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.analysis.tensorperf import (ACCURACY_PARITY_FLOOR,
                                       ACCURACY_PARITY_TOLERANCE,
                                       MIXED_TRAIN_SPEEDUP_BAR, PRECISIONS,
                                       SERVING_RUNG, SERVING_SPEEDUP_BAR,
                                       TENSORPERF_FILENAME,
                                       TRAIN_FLOOR_STEPS_PER_S,
                                       check_tensorperf)

ARTIFACT = Path(__file__).resolve().parents[2] / TENSORPERF_FILENAME


@pytest.fixture(scope="module")
def committed():
    with open(ARTIFACT) as handle:
        return json.load(handle)


@pytest.fixture
def payload(committed):
    return copy.deepcopy(committed)


def test_committed_artifact_clears_every_bar(committed):
    assert check_tensorperf(committed) == []


def test_artifact_cells_are_keyed_by_precision_only(committed):
    assert committed["precisions"] == list(PRECISIONS)
    for row in committed["ladder"].values():
        assert sorted(row["cells"]) == sorted(PRECISIONS)
    assert sorted(committed["parity"]) == ["precision"]


def test_quick_payload_skips_serving_and_accuracy_bars(payload):
    del payload["ladder"][SERVING_RUNG]
    del payload["accuracy_parity"]
    payload["speedup_over_recorded_baseline"][SERVING_RUNG][
        "train_steps_per_s"] = 0.0
    assert check_tensorperf(payload) == []


@pytest.mark.parametrize("key", ["loss_abs_diff", "grad_max_abs_diff"])
def test_precision_deviation_over_budget_fails(payload, key):
    parity = payload["parity"]["precision"]["mixed"]
    budget = parity["loss_budget" if key == "loss_abs_diff" else "grad_budget"]
    parity[key] = 2 * budget
    [message] = check_tensorperf(payload)
    assert message.startswith("precision parity: mixed deviates")


def test_pure_fp64_must_be_exact(payload):
    payload["parity"]["precision"]["pure_fp64"]["loss_abs_diff"] = 1e-300
    [message] = check_tensorperf(payload)
    assert "pure_fp64" in message


def test_train_floor_miss_fails(payload):
    floor = TRAIN_FLOOR_STEPS_PER_S["pure_fp32"]["mini"]
    payload["ladder"]["mini"]["cells"]["pure_fp32"]["train_steps_per_s"] = (
        0.5 * floor)
    [message] = check_tensorperf(payload)
    assert message.startswith("train floor: pure_fp32")
    assert "mini rung" in message


def test_serving_speedup_below_bar_fails(payload):
    payload["speedup_over_recorded_baseline"][SERVING_RUNG][
        "train_steps_per_s"] = 0.99 * SERVING_SPEEDUP_BAR
    [message] = check_tensorperf(payload)
    assert message.startswith("serving rung: train speedup")


def test_mixed_speedup_below_bar_fails(payload):
    payload["mixed_train_speedup_over_fp64"][SERVING_RUNG] = (
        0.99 * MIXED_TRAIN_SPEEDUP_BAR)
    [message] = check_tensorperf(payload)
    assert message.startswith("serving rung: mixed-precision")


@pytest.mark.parametrize("score", [0.0, ACCURACY_PARITY_FLOOR])
def test_unlearned_fp64_fails_the_accuracy_floor(payload, score):
    # 0.0 vs 0.0 is the vacuous parity this floor exists to reject; the
    # floor is strict, so a score exactly at it fails too.
    payload["accuracy_parity"]["scores"]["pure_fp64"]["exact_match"] = score
    [message] = check_tensorperf(payload)
    assert message.startswith("accuracy parity: pure_fp64 exact match")


def test_accuracy_gap_is_measured_in_points(payload):
    diffs = payload["accuracy_parity"]["abs_diffs"]
    diffs["f1"] = ACCURACY_PARITY_TOLERANCE
    assert check_tensorperf(payload) == []
    diffs["f1"] = ACCURACY_PARITY_TOLERANCE + 2.1  # one more flip of 48
    [message] = check_tensorperf(payload)
    assert message.startswith("accuracy parity: mixed and pure_fp64 f1")


def test_every_failed_bar_is_reported(payload):
    payload["parity"]["precision"]["pure_fp32"]["grad_max_abs_diff"] = 1.0
    payload["mixed_train_speedup_over_fp64"][SERVING_RUNG] = 1.0
    payload["accuracy_parity"]["abs_diffs"]["exact_match"] = 50.0
    assert len(check_tensorperf(payload)) == 3
