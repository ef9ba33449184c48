"""``benchmarks/perf_guard.py``: rows are gated on the median of several
runs' min-of-rounds, normalised by the median ratio across rows."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "perf_guard.py"
_spec = importlib.util.spec_from_file_location("perf_guard", _PATH)
perf_guard = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_guard)

#: Baseline min-of-rounds milliseconds of four rows.
BASELINE_MS = {"test_a": 10.0, "test_b": 20.0, "test_c": 40.0,
               "test_d": 80.0}


def _write_baseline(tmp_path) -> Path:
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"schema": 1, "benchmarks": {
        name: {"min_ms": ms} for name, ms in BASELINE_MS.items()}}))
    return path


def _write_run(tmp_path, name: str, slow: dict[str, float]) -> Path:
    """A pytest-benchmark export at baseline speed, except each row in
    ``slow`` is that many times slower."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"benchmarks": [
        {"name": row, "stats": {"min": ms / 1000.0 * slow.get(row, 1.0)}}
        for row, ms in BASELINE_MS.items()]}))
    return path


def _guard(tmp_path, runs: list[dict[str, float]]) -> int:
    paths = [_write_run(tmp_path, f"run{i}", slow)
             for i, slow in enumerate(runs)]
    return perf_guard.main([str(p) for p in paths] + [
        "--baseline", str(_write_baseline(tmp_path))])


def test_single_run_at_baseline_passes(tmp_path):
    assert _guard(tmp_path, [{}]) == 0


def test_single_slow_run_fails(tmp_path):
    assert _guard(tmp_path, [{"test_b": 1.5}]) == 1


def test_one_outlier_run_of_three_passes(tmp_path):
    assert _guard(tmp_path, [{"test_b": 1.5}, {}, {}]) == 0


def test_row_slow_in_two_of_three_fails(tmp_path):
    assert _guard(tmp_path, [{"test_b": 1.5}, {}, {"test_b": 1.4}]) == 1


def test_uniformly_slower_host_passes(tmp_path):
    everything = {row: 2.0 for row in BASELINE_MS}
    assert _guard(tmp_path, [everything] * 3) == 0


def test_median_of_minimums(tmp_path):
    paths = [_write_run(tmp_path, f"run{i}", {"test_a": factor})
             for i, factor in enumerate((3.0, 1.0, 2.0))]
    medians = perf_guard.median_minimums(paths)
    assert medians["test_a"] == pytest.approx(0.020)
    assert medians["test_d"] == pytest.approx(0.080)


def test_row_missing_from_a_run_fails(tmp_path):
    full = _write_run(tmp_path, "full", {})
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"benchmarks": [
        {"name": "test_a", "stats": {"min": 0.010}}]}))
    assert perf_guard.main([str(full), str(partial), "--baseline",
                            str(_write_baseline(tmp_path))]) == 1
