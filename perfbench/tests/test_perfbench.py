"""Tests of the benchmark itself: every workload at its smallest size
through the same checks, doctored outputs that the checks must refuse,
and the shape of the printed result.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

from benchlib import checks, spans
from benchlib.probe import count_variants
from benchlib.workloads import (FIGURES, SETUP_SAMPLES, SMOKE_ROSTER,
                                WORKLOADS, figure_specs)

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def run_bench(workload, trace, *extra, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result_shape(result, names):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert set(result["metrics"]) == set(names)
    for name, metric in result["metrics"].items():
        assert NAME.match(name), name
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))
        assert math.isfinite(metric["value"])
        assert metric["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smallest_size_end_to_end(workload):
    proc = run_bench(workload, 0, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    check_result_shape(result, [m["name"] for m in SPEC["end_to_end"]])
    assert result["correct"] is True
    assert result["failed"] == 0
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
    detail = json.loads(proc.stdout.strip().splitlines()[-2])
    assert len(detail["setups"]) == SETUP_SAMPLES[workload]
    if workload == FIGURES:
        assert result["attempted"] == len(figure_specs(SMOKE_ROSTER))


def test_all_workloads_from_one_command():
    proc = run_bench("all", 0, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    check_result_shape(result, [f"{w}.{m['name']}" for w in WORKLOADS
                                for m in SPEC["end_to_end"]])
    assert result["correct"] is True


@pytest.mark.parametrize("workload", ["campaign-sites-pool2", FIGURES])
def test_smallest_size_traced(workload):
    proc = run_bench(workload, 1, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    check_result_shape(result, [m["name"] for m in SPEC["per_layer"]])
    assert result["correct"] is True
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    layers = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layers + metrics["other.self_s"] == pytest.approx(
        metrics["trace.wall_s"], abs=1e-6)
    assert metrics["compiler.kernel_variants"] >= 0
    if workload == FIGURES:
        assert metrics["runner.runs"] > 0 and metrics["trial.count"] == 0
    else:
        # Trials run in pool workers; their spans come back to the parent.
        assert metrics["trial.samples"] == metrics["trial.count"] > 0
        assert metrics["pool.busy_share"] > 0
        assert metrics["sim.mem_window_share"] == 0   # sanitizer on


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("campaign-ckpt", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ----------------------------------------------------------------------
# Doctored journals
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def journal(tmp_path_factory):
    from repro.core.campaign import CampaignSpec
    from repro.harness.campaign import run_campaign

    spec = CampaignSpec(workloads=("Triad",), schemes=("baseline", "flame"),
                        trials=2, seed=5)
    path = str(tmp_path_factory.mktemp("journal") / "journal.jsonl")
    run_campaign(spec, workers=1, journal_path=path)
    return spec, checks.read_rows(path)


def test_clean_journal_passes(journal):
    spec, rows = journal
    assert checks.check_journal(rows, spec) == ([], 0)
    assert checks.direct_rerun(spec, rows, 2, seed=0) == []


def _flame_row(rows):
    return next(i for i, row in enumerate(rows) if row["scheme"] == "flame")


@pytest.mark.parametrize("doctor, failed", [
    (lambda rows: rows[_flame_row(rows)].update(outcome="sdc"), 0),
    (lambda rows: rows.pop(), 1),
    (lambda rows: rows.append(dict(rows[0])), 0),
    (lambda rows: rows[0].update(outcome="infra_error", detail="x"), 1),
    (lambda rows: rows[0].update(outcome="exploded"), 0),
])
def test_doctored_journal_fails(journal, doctor, failed):
    spec, rows = journal
    rows = [dict(row) for row in rows]
    doctor(rows)
    problems, counted = checks.check_journal(rows, spec)
    assert problems
    assert counted == failed


def test_changed_row_fails_direct_rerun(journal):
    spec, rows = journal
    rows = [dict(row) for row in rows]
    for row in rows:
        row["cycles"] += 1
    assert checks.direct_rerun(spec, rows, 1, seed=0)


def _spy_run_trial(monkeypatch, change=None):
    import repro.core.campaign as campaign

    calls = []
    real = campaign.run_trial

    def spy(trial):
        result = real(trial)
        if change:
            change(result)
        calls.append((trial, result))
        return result

    monkeypatch.setattr(campaign, "run_trial", spy)
    return calls


def test_direct_rerun_runs_without_checkpoints(journal, monkeypatch):
    import repro.core.campaign as campaign

    spec, rows = journal
    # Every cell's memoized golden carries a checkpoint recorder, as it
    # does after a campaign.
    for trial in spec.trial_specs():
        campaign._golden(trial, with_checkpoints=True)
    calls = _spy_run_trial(monkeypatch)
    assert checks.direct_rerun(spec, rows, 4, seed=0) == []
    assert len(calls) == 4
    for trial, result in calls:
        assert not trial.checkpoint
        assert not result.fast_start and not result.converged


def test_rerun_on_checkpointed_path_fails(journal, monkeypatch):
    spec, rows = journal
    _spy_run_trial(monkeypatch,
                   lambda result: setattr(result, "fast_start", True))
    problems = checks.direct_rerun(spec, rows, 1, seed=0)
    assert any("checkpointed path" in problem for problem in problems)


def test_figure_checks():
    keys = {"a", "b"}
    good = dict(normalized={"X": {"flame": 1.05}}, geomeans={"flame": 1.05},
                schedulers={"GTO": 1.05},
                executes=[("a", True), ("b", True)], expected_keys=keys)
    assert checks.check_figures(**good) == []
    for change in ({"normalized": {"X": {"flame": float("nan")}}},
                   {"schedulers": {"GTO": float("inf")}},
                   {"executes": [("a", True), ("b", False)]},
                   {"executes": [("a", True)]},
                   {"executes": [("a", True), ("a", True), ("b", True)]}):
        assert checks.check_figures(**{**good, **change})


# ----------------------------------------------------------------------
# Metric arithmetic
# ----------------------------------------------------------------------
def test_tail_percentile_keeps_ten_samples_beyond():
    assert spans.tail_percentile(list(range(1000)))[0] == 99.0
    assert spans.tail_percentile(list(range(320)))[0] == 95.0
    assert spans.tail_percentile(list(range(15)))[0] == 50.0


def test_self_times_subtract_same_process_children_only():
    mk = spans.Span
    tree = [mk("1:0", None, "CampaignRunner.run", 0.0, 10.0, 1),
            mk("1:1", "1:0", "append", 1.0, 2.0, 1),
            mk("2:5", "1:0", "run_trial", 0.5, 9.5, 2),
            mk("2:6", "2:5", "launch", 1.0, 8.0, 2)]
    own = spans.self_times(tree)
    assert own == pytest.approx({"1:0": 9.0, "1:1": 1.0, "2:5": 2.0,
                                 "2:6": 7.0})


def test_reference_seconds_divide_out_the_host_slowdown():
    from benchlib.host import REFERENCE_S, reference_s, slowdown

    # Probes of 2 ms at 0.5 s and 1.5 s: the host runs at half speed.
    samples = [(0.499, 0.501), (1.499, 1.501)]
    assert slowdown(samples, 0.0, 2.0) == pytest.approx(0.002 / REFERENCE_S)
    assert reference_s(samples, 0.0, 2.0) == pytest.approx(
        (2.0 - 0.004) / 2.0)
    # Two workers probed side by side: each lost half the probe time.
    assert reference_s(samples, 0.0, 2.0, workers=2) == pytest.approx(
        (2.0 - 0.002) / 2.0)
    # Each moment takes the nearest sample: 1 s at full speed, then 1 s
    # at a third, which does 4/3 of a second's reference work in 2 s.
    mixed = [(0.4995, 0.5005), (1.4985, 1.5015)]
    assert slowdown(mixed, 0.0, 2.0) == pytest.approx(1.5)
    # An interval without a sample of its own takes the nearest one.
    assert slowdown(mixed, 1.8, 1.9) == pytest.approx(3.0)


def test_setup_only_launches_spread_around_measured_ones():
    from run import spread

    assert spread(6, 2) == [3, 3]
    assert spread(3, 3) == [1, 1, 1]
    assert spread(0, 3) == [0, 0, 0]
    assert spread(4, 3) == [1, 1, 2]


def test_count_variants():
    forms = [{"k": "a", "j": "x"}, {"k": "b", "j": "x"}, {"k": "a", "j": "x"}]
    assert count_variants(forms) == {"j": 0, "k": 1}


def test_benchmark_json_names():
    for group in ("workloads", "end_to_end", "per_layer"):
        for entry in SPEC[group]:
            assert NAME.match(entry["name"]) and len(entry["name"]) <= 64
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
