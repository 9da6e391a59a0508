"""Tests for the ``python -m repro`` sweep CLI."""

import csv
import json

import pytest

from repro.cli import SWEEPS, main


class TestCli:
    def test_list_names_every_sweep(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in SWEEPS:
            assert name in out

    def test_unknown_sweep_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_serving_load_quick_prints_report(self, capsys):
        assert main(["serving_load", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "serving_load sweep" in out
        assert "sustained_tokens_per_second" in out
        assert "pregated" in out

    def test_expert_parallel_quick_writes_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        assert main(["expert_parallel", "--quick", "--csv", str(csv_path)]) == 0
        text = csv_path.read_text()
        header = text.splitlines()[0]
        assert "num_gpus" in header
        assert "alltoall_mb" in header
        # One row per design × gpu-count cell of the quick grid.
        assert len(text.strip().splitlines()) == 1 + 4

    def test_workers_flag_matches_serial(self, tmp_path, capsys):
        serial_csv = tmp_path / "serial.csv"
        parallel_csv = tmp_path / "parallel.csv"
        assert main(["serving_load", "--quick", "--csv", str(serial_csv)]) == 0
        assert main(["serving_load", "--quick", "--workers", "2",
                     "--csv", str(parallel_csv)]) == 0
        assert serial_csv.read_text() == parallel_csv.read_text()

    def test_invalid_workers_rejected(self):
        with pytest.raises(SystemExit):
            main(["serving_load", "--quick", "--workers", "0"])

    def test_simperf_rejects_workers_and_full_needs_simperf(self):
        with pytest.raises(SystemExit):
            main(["simperf", "--quick", "--workers", "2"])
        with pytest.raises(SystemExit):
            main(["serving_load", "--full"])
        with pytest.raises(SystemExit):
            main(["simperf", "--full", "--quick"])

    def test_profile_flag_prints_cprofile_table(self, capsys):
        assert main(["serving_load", "--quick", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "cumulative" in out          # pstats header
        assert "serving_load sweep" in out  # the report still renders

    def test_profile_rejected_with_worker_pool(self):
        with pytest.raises(SystemExit):
            main(["serving_load", "--quick", "--profile", "--workers", "2"])

    def test_seed_changes_report_but_is_reproducible(self, tmp_path):
        seed0a = tmp_path / "s0a.csv"
        seed0b = tmp_path / "s0b.csv"
        seed7 = tmp_path / "s7.csv"
        assert main(["serving_load", "--quick", "--seed", "0",
                     "--csv", str(seed0a)]) == 0
        assert main(["serving_load", "--quick",
                     "--csv", str(seed0b)]) == 0
        assert main(["serving_load", "--quick", "--seed", "7",
                     "--csv", str(seed7)]) == 0
        assert seed0a.read_text() == seed0b.read_text()  # default seed is 0
        assert seed0a.read_text() != seed7.read_text()

    def test_seed_rejected_for_simperf(self):
        with pytest.raises(SystemExit):
            main(["simperf", "--quick", "--seed", "1"])

    def test_tensorperf_rejects_workers_and_seed(self):
        with pytest.raises(SystemExit):
            main(["tensorperf", "--quick", "--workers", "2"])
        with pytest.raises(SystemExit):
            main(["tensorperf", "--quick", "--seed", "1"])
        with pytest.raises(SystemExit):
            main(["tensorperf", "--full", "--quick"])


class TestTraceCommand:
    def test_trace_quick_writes_perfetto_json(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", "--quick", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "perfetto" in stdout.lower()
        payload = json.loads(out.read_text())
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        assert events
        phases = {event["ph"] for event in events}
        assert {"X", "M"} <= phases
        assert {"s", "f"} <= phases  # request flow arrows
        # Both devices of the 2-GPU scenario render as processes, and the
        # request-span track process rides along.
        pids = {event["pid"] for event in events}
        assert {0, 1} <= pids and len(pids) == 3

    def test_trace_metrics_out_csv(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.csv"
        assert main(["trace", "--quick", "--out", str(out),
                     "--metrics-out", str(metrics)]) == 0
        with open(metrics) as handle:
            rows = list(csv.DictReader(handle))
        assert rows
        names = {row["name"] for row in rows if row["kind"] == "gauge"}
        assert {"queue_depth", "timeline_ops"} <= names

    def test_trace_rejects_workers(self):
        with pytest.raises(SystemExit):
            main(["trace", "--quick", "--workers", "2"])

    def test_out_rejected_for_other_sweeps(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["serving_load", "--quick", "--out",
                  str(tmp_path / "x.json")])


class TestMetricsOut:
    def test_sweep_metrics_jsonl_tagged_with_axes(self, tmp_path, capsys):
        path = tmp_path / "metrics.jsonl"
        assert main(["serving_load", "--quick",
                     "--metrics-out", str(path)]) == 0
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows
        assert all({"design", "rate", "kind", "name"} <= set(row)
                   for row in rows)
        assert {row["design"] for row in rows} == {"pregated", "ondemand"}

    def test_metrics_out_rejected_for_simperf(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["simperf", "--quick",
                  "--metrics-out", str(tmp_path / "m.jsonl")])

    def test_no_metrics_out_means_no_probe_columns(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        assert main(["serving_load", "--quick", "--csv", str(csv_path)]) == 0
        with open(csv_path) as handle:
            rows = list(csv.DictReader(handle))
        assert all(row["probe_samples"] == "-" for row in rows)
