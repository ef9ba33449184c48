"""CLI entry point."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness.cli import EXPERIMENTS, main

SRC = str(Path(__file__).resolve().parents[2] / "src")


class TestCli:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "SGEMM" in out and "GUPS" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        assert "200" in capsys.readouterr().out

    def test_figure12(self, capsys):
        assert main(["figure12"]) == 0
        assert "GTX480" in capsys.readouterr().out

    def test_hwcost(self, capsys):
        assert main(["hwcost"]) == 0
        out = capsys.readouterr().out
        assert "120" in out and "1024" in out

    def test_figure15_subset(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["figure15", "--scale", "tiny",
                     "--benchmarks", "Triad", "--workers", "1"]) == 0
        assert "flame" in capsys.readouterr().out

    def test_campaign(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["campaign", "--scale", "tiny", "--benchmarks",
                     "Triad", "--trials", "3", "--workers", "1",
                     "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "SDC rate" in out and "Unrecovered" in out
        assert "baseline" in out and "flame" in out

    def test_campaign_resumes_via_journal(self, capsys, tmp_path,
                                          monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        args = ["campaign", "--scale", "tiny", "--benchmarks", "Triad",
                "--schemes", "baseline", "--trials", "2", "--workers", "1"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0  # second run: everything journaled
        second = capsys.readouterr().out
        assert first[first.index("Workload"):] == \
            second[second.index("Workload"):]

    def test_campaign_metrics_json(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        metrics = tmp_path / "metrics.jsonl"
        assert main(["campaign", "--scale", "tiny", "--benchmarks",
                     "Triad", "--schemes", "flame", "--trials", "2",
                     "--workers", "1",
                     "--metrics-json", str(metrics)]) == 0
        capsys.readouterr()
        import json

        records = [json.loads(line)
                   for line in metrics.read_text().splitlines()]
        assert records and records[-1]["final"] is True
        assert records[-1]["completed"] == 2
        assert "trials_per_sec" in records[-1]
        assert "eta_s" in records[-1]
        assert "fast_start_hit_rate" in records[-1]

    def test_trace(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        out = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        assert main(["trace", "--scale", "tiny", "--benchmarks", "Triad",
                     "--trace-out", str(out), "--trace-jsonl", str(jsonl),
                     "--stall-report"]) == 0
        printed = capsys.readouterr().out
        assert "Stall-cause breakdown" in printed
        assert "issue" in printed
        import json

        from repro.obs import validate_chrome_trace

        data = json.loads(out.read_text())
        assert validate_chrome_trace(data) == []
        names = {e["name"] for e in data["traceEvents"]
                 if e.get("ph") != "M"}
        assert {"issue", "stall", "region_verify", "strike"} <= names
        assert jsonl.read_text().count("\n") == len(data["traceEvents"]) \
            - sum(1 for e in data["traceEvents"] if e.get("ph") == "M")

    def test_trace_no_inject_baseline(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["trace", "--scale", "tiny", "--benchmarks", "Triad",
                     "--scheme", "baseline", "--stall-report"]) == 0
        printed = capsys.readouterr().out
        assert "verified=True" in printed
        assert "strike@" not in printed

    def test_profile_out(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        out = tmp_path / "prof.pstats"
        assert main(["trace", "--scale", "tiny", "--benchmarks", "Triad",
                     "--scheme", "baseline", "--no-inject",
                     "--profile-out", str(out)]) == 0
        capsys.readouterr()
        import pstats

        stats = pstats.Stats(str(out))  # parses => valid pstats dump
        assert stats.total_calls > 0

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure99"])

    def test_experiment_list(self):
        assert "all" in EXPERIMENTS
        assert "ablation" in EXPERIMENTS
        assert "trace" in EXPERIMENTS


class TestClosedStdout:
    """``python -m repro.harness ... | head -1``: the reader goes away
    early, yet every requested file is written and no traceback
    prints."""

    @staticmethod
    def _trace_cmd(tmp_path):
        return [sys.executable, "-m", "repro.harness", "trace", "--scale",
                "tiny", "--benchmarks", "Triad", "--seed", "1",
                "--trace-out", str(tmp_path / "t.json"),
                "--trace-jsonl", str(tmp_path / "t.jsonl"),
                "--stall-report"]

    @staticmethod
    def _env(tmp_path):
        return dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1",
                    REPRO_CACHE_DIR=str(tmp_path / "cache"))

    def _assert_clean(self, tmp_path, stderr):
        assert (tmp_path / "t.json").stat().st_size > 0
        assert (tmp_path / "t.jsonl").stat().st_size > 0
        assert "Traceback" not in stderr

    def test_reader_closes_after_one_line(self, tmp_path):
        proc = subprocess.Popen(self._trace_cmd(tmp_path),
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE,
                                env=self._env(tmp_path), cwd=tmp_path)
        assert proc.stdout.readline().startswith(b"traced Triad/flame")
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) in (0, 1)
        self._assert_clean(tmp_path, stderr)

    def test_reader_gone_before_first_line(self, tmp_path):
        """A pipe with no reader fails the first ``print``
        deterministically: the CLI exits 1 after writing its files."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(self._trace_cmd(tmp_path),
                                  stdout=write_end, stderr=subprocess.PIPE,
                                  env=self._env(tmp_path), cwd=tmp_path,
                                  timeout=120)
        finally:
            os.close(write_end)
        assert done.returncode == 1
        self._assert_clean(tmp_path, done.stderr.decode())
