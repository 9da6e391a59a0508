"""Tests for the ``python -m repro`` sweep CLI."""

import csv
import json

import pytest

from repro.cli import SWEEPS, main


class TestCli:
    def test_list_names_every_sweep(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        names = [line.split(":")[0] for line in out.splitlines()]
        assert names == sorted(SWEEPS) == ["expert_parallel", "serving_load",
                                           "trace"]

    def test_unknown_sweep_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize("name", ["simperf", "tensorperf"])
    def test_retired_perf_sweeps_rejected(self, name):
        # Their bars live in benchmarks/bench_<name>.py now.
        with pytest.raises(SystemExit):
            main([name, "--quick"])

    def test_retired_workers_flag_rejected(self):
        # Sweeps serve in one process; there is no worker pool to size.
        with pytest.raises(SystemExit):
            main(["expert_parallel", "--quick", "--workers", "2"])

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

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit):
            main(["serving_load", "--full"])

    def test_profile_flag_prints_cprofile_table(self, capsys):
        assert main(["serving_load", "--quick", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "cumulative" in out          # pstats header
        assert "serving_load sweep" in out  # the report still renders

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

    def test_trace_defaults_to_trace_json(self, tmp_path, monkeypatch,
                                          capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "--quick"]) == 0
        assert json.loads((tmp_path / "trace.json").read_text())[
            "traceEvents"]

    def test_trace_records_its_seed(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", "--quick", "--seed", "3", "--out",
                     str(out)]) == 0
        assert json.loads(out.read_text())["otherData"]["seed"] == 3

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

    def test_expert_parallel_metrics_tagged_with_gpu_count(self, tmp_path,
                                                           capsys):
        path = tmp_path / "metrics.jsonl"
        assert main(["expert_parallel", "--quick",
                     "--metrics-out", str(path)]) == 0
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert {(row["design"], row["num_gpus"]) for row in rows} == {
            (design, gpus) for design in ("pregated", "ondemand")
            for gpus in (1, 2)}

    def test_no_metrics_out_means_no_probe_columns(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        assert main(["serving_load", "--quick", "--csv", str(csv_path)]) == 0
        with open(csv_path) as handle:
            rows = list(csv.DictReader(handle))
        assert all(row["probe_samples"] == "-" for row in rows)
