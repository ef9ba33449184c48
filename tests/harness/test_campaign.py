"""Campaign orchestration: pooled dispatch, resume, retry hardening.

The resumability contract under test: kill a campaign after k trials,
rerun the same command, and the final aggregates are byte-identical to
an uninterrupted run.
"""

import json
import os
from pathlib import Path

import pytest

from repro.core.campaign import (CampaignSpec, INFRA_ERROR, OUTCOMES,
                                 run_trial)
from repro.core.injection import ALL_FAULT_SITES
from repro.harness.campaign import (CampaignRunner, default_journal_path,
                                    run_campaign)
from repro.obs import MetricsRegistry
from tests.conftest import assert_record_matches_registry


EXPECTED = Path(__file__).resolve().parents[1] / "expected"

#: Committed journals of two checkpointed campaigns at tiny scale:
#: ``--benchmarks SGEMM,Triad,LBM,NN --schemes baseline,flame --trials 6
#: --seed 5 --workers 1``, and every detecting runtime on SGEMM under
#: all six fault sites with the RPT and RBQ unhardened, so that the
#: competitors' recovery paths are pinned too.
JOURNAL_PINS = {
    "ckpt_pin.jsonl": CampaignSpec(
        workloads=("SGEMM", "Triad", "LBM", "NN"),
        schemes=("baseline", "flame"), trials=6, seed=5, scale="tiny"),
    "recovery_pin.jsonl": CampaignSpec(
        workloads=("SGEMM",),
        schemes=("flame", "dmr", "partial_thread", "abft_sgemm"), trials=3,
        seed=5, scale="tiny", sites=ALL_FAULT_SITES, harden_rpt=False,
        harden_rbq=False),
}


def small_spec(trials=4, **kwargs):
    kwargs.setdefault("workloads", ("Triad",))
    kwargs.setdefault("schemes", ("baseline", "flame"))
    return CampaignSpec(trials=trials, seed=1, scale="tiny",
                        timeout_s=120.0, **kwargs)


def aggregates_json(report):
    return json.dumps([c.as_dict() for c in report.cells], sort_keys=True)


class TestCampaignRun:
    def test_inline_campaign_completes(self, tmp_path):
        spec = small_spec()
        report = CampaignRunner(workers=1).run(
            spec, journal_path=str(tmp_path / "j.jsonl"))
        assert report.complete
        assert len(report.results) == 8
        for cell in report.cells:
            assert cell.trials == 4
            assert sum(cell.counts.values()) == 4
        # Flame must never leave an unrecovered strike.
        assert report.cell("Triad", "flame").unrecovered == 0

    def test_pooled_campaign_matches_inline(self, tmp_path):
        spec = small_spec()
        inline = CampaignRunner(workers=1).run(
            spec, journal_path=str(tmp_path / "inline.jsonl"))
        pooled = CampaignRunner(workers=2).run(
            spec, journal_path=str(tmp_path / "pooled.jsonl"))
        assert aggregates_json(inline) == aggregates_json(pooled)

    def test_rerun_resumes_from_journal(self, tmp_path):
        spec = small_spec()
        path = str(tmp_path / "j.jsonl")
        first = CampaignRunner(workers=1).run(spec, journal_path=path)
        calls = []

        runner = CampaignRunner(workers=1)
        runner._execute = lambda t: calls.append(t) or run_trial(t)
        second = runner.run(spec, journal_path=path)
        assert calls == []  # everything journaled; nothing re-ran
        assert aggregates_json(first) == aggregates_json(second)

    def test_interrupted_campaign_resumes_identically(self, tmp_path):
        spec = small_spec(trials=5)
        full_path = str(tmp_path / "full.jsonl")
        cut_path = str(tmp_path / "cut.jsonl")
        full = CampaignRunner(workers=1).run(spec, journal_path=full_path)
        # Simulate a mid-campaign kill: keep the header + 4 trials, with
        # the 5th record torn mid-write.
        with open(full_path) as handle:
            lines = handle.readlines()
        with open(cut_path, "w") as handle:
            handle.writelines(lines[:5])
            handle.write(lines[5][: len(lines[5]) // 2])
        resumed = CampaignRunner(workers=1).run(spec, journal_path=cut_path)
        assert resumed.complete
        assert aggregates_json(full) == aggregates_json(resumed)

    def test_fresh_discards_journal(self, tmp_path):
        spec = small_spec(trials=2)
        path = str(tmp_path / "j.jsonl")
        CampaignRunner(workers=1).run(spec, journal_path=path)
        before = os.path.getsize(path)
        CampaignRunner(workers=1).run(spec, journal_path=path, fresh=True)
        assert os.path.getsize(path) == before  # rewritten, not appended

    def test_default_journal_path_is_spec_keyed(self, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        a = default_journal_path(small_spec())
        assert a.startswith(str(tmp_path))
        assert a != default_journal_path(small_spec(trials=9))


class TestJournalPin:
    """Rows carry cycles, golden cycles, strike cycles, outcomes and
    recoveries, so a change to the simulator, the compiler or the
    checkpoint layer that moves simulated timing or a verdict shows up
    as a byte difference against the committed journal."""

    def _assert_matches_pin(self, pin, tmp_path):
        path = tmp_path / "pin.jsonl"
        run_campaign(JOURNAL_PINS[pin], workers=1, journal_path=str(path))
        assert path.read_bytes() == (EXPECTED / pin).read_bytes()

    def test_checkpointed_campaign_matches_committed_journal(self,
                                                             tmp_path):
        self._assert_matches_pin("ckpt_pin.jsonl", tmp_path)

    def test_recovery_campaign_matches_committed_journal(self, tmp_path):
        """Sensor rollback, compare rollback and ABFT's single-warp
        correction, with strikes on the RPT and RBQ reaching them."""
        self._assert_matches_pin("recovery_pin.jsonl", tmp_path)


class TestHardening:
    def test_transient_failure_retried(self, tmp_path):
        spec = small_spec(trials=2, schemes=("baseline",))
        failures = {"left": 2}

        def flaky(trial):
            if trial.index == 0 and failures["left"] > 0:
                failures["left"] -= 1
                raise OSError("worker died")
            return run_trial(trial)

        runner = CampaignRunner(workers=1, max_retries=2, backoff_s=0.0)
        runner._execute = flaky
        report = runner.run(spec, journal_path=str(tmp_path / "j.jsonl"))
        assert report.complete
        assert report.infra_failures == 0
        retried = next(r for r in report.results if r.index == 0)
        assert retried.attempts == 3
        assert retried.outcome in OUTCOMES

    def test_persistent_failure_bounded_and_isolated(self, tmp_path):
        spec = small_spec(trials=3, schemes=("baseline",))

        def doomed(trial):
            if trial.index == 1:
                raise OSError("worker always dies")
            return run_trial(trial)

        runner = CampaignRunner(workers=1, max_retries=2, backoff_s=0.0)
        runner._execute = doomed
        report = runner.run(spec, journal_path=str(tmp_path / "j.jsonl"))
        # The doomed trial is journaled as infrastructure error after
        # bounded retries; the rest of the batch still completed.
        assert report.infra_failures == 1
        bad = next(r for r in report.results if r.index == 1)
        assert bad.outcome == INFRA_ERROR
        assert bad.attempts == 3
        assert "worker always dies" in bad.detail
        good = [r for r in report.results if r.index != 1]
        assert len(good) == 2
        assert all(r.outcome != INFRA_ERROR for r in good)

    def test_worker_death_in_pool_does_not_abort_batch(self, tmp_path):
        spec = small_spec(trials=3, schemes=("baseline",))
        runner = CampaignRunner(workers=2, max_retries=1, backoff_s=0.0)
        runner._execute = _die_on_index_one
        report = runner.run(spec, journal_path=str(tmp_path / "j.jsonl"))
        bad = next(r for r in report.results if r.index == 1)
        assert bad.outcome == INFRA_ERROR
        good = [r for r in report.results if r.index != 1]
        assert len(good) == 2
        assert all(r.outcome != INFRA_ERROR for r in good)


def _die_on_index_one(trial):
    """Module-level so the process pool can pickle it; hard-kills the
    worker to simulate an OOM kill / interpreter abort."""
    if trial.index == 1:
        os._exit(17)
    return run_trial(trial)


class TestFaultCoverageEntry:
    def test_experiments_wrapper(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.harness.experiments import fault_coverage

        report = fault_coverage(benchmarks=("Triad",),
                                schemes=("baseline",), trials=2,
                                workers=1)
        assert report.complete
        assert os.path.exists(report.journal_path)

    def test_unknown_names_fail_fast(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.errors import ConfigError
        from repro.harness.experiments import fault_coverage

        with pytest.raises(ConfigError, match="scheme"):
            fault_coverage(benchmarks=("Triad",), schemes=("flmae",),
                           trials=1, workers=1)
        with pytest.raises(ConfigError, match="workload"):
            fault_coverage(benchmarks=("Traid",), schemes=("baseline",),
                           trials=1, workers=1)

    def test_run_campaign_helper(self, tmp_path):
        report = run_campaign(small_spec(trials=1), workers=1,
                              journal_path=str(tmp_path / "j.jsonl"))
        assert report.complete

    def test_render_campaign(self, tmp_path):
        from repro.harness.reporting import render_campaign

        report = CampaignRunner(workers=1).run(
            small_spec(trials=2), journal_path=str(tmp_path / "j.jsonl"))
        text = render_campaign(report)
        assert "SDC rate" in text and "Unrecovered" in text
        assert "baseline" in text and "flame" in text


class TestBackoffPolicy:
    def _sleeps(self, monkeypatch):
        import time as time_module

        recorded = []
        monkeypatch.setattr(time_module, "sleep",
                            lambda s: recorded.append(s))
        return recorded

    def test_backoff_is_capped_exponential(self, tmp_path, monkeypatch):
        sleeps = self._sleeps(monkeypatch)
        runner = CampaignRunner(workers=1, backoff_s=1.0,
                                backoff_cap_s=4.0)
        trial = small_spec(trials=1).trial_specs()[0]
        for attempt in range(1, 8):
            runner._backoff(attempt, trial)
        # Envelope: min(cap, base * 2^(attempt-1)), jitter in [0.5, 1].
        for attempt, slept in enumerate(sleeps, start=1):
            envelope = min(4.0, 1.0 * 2 ** (attempt - 1))
            assert 0.5 * envelope <= slept <= envelope
        assert max(sleeps) <= 4.0

    def test_backoff_is_deterministic_per_trial(self, tmp_path,
                                                monkeypatch):
        sleeps = self._sleeps(monkeypatch)
        runner = CampaignRunner(workers=1, backoff_s=0.5)
        trials = small_spec(trials=2).trial_specs()
        runner._backoff(2, trials[0])
        runner._backoff(2, trials[0])
        runner._backoff(2, trials[1])
        assert sleeps[0] == sleeps[1]  # same trial, same delay
        assert sleeps[0] != sleeps[2]  # different trials de-synchronise

    def test_zero_base_disables_backoff(self, monkeypatch):
        sleeps = self._sleeps(monkeypatch)
        runner = CampaignRunner(workers=1, backoff_s=0.0)
        runner._backoff(3, small_spec(trials=1).trial_specs()[0])
        assert sleeps == []

    def test_retries_surface_in_heartbeat_metrics(self, tmp_path):
        spec = small_spec(trials=2, schemes=("baseline",))
        failures = {"left": 2}

        def flaky(trial):
            if trial.index == 0 and failures["left"] > 0:
                failures["left"] -= 1
                raise OSError("worker died")
            return run_trial(trial)

        runner = CampaignRunner(workers=1, max_retries=2,
                                backoff_s=0.001)
        runner._execute = flaky
        metrics = tmp_path / "metrics.jsonl"
        report = runner.run(spec, journal_path=str(tmp_path / "j.jsonl"),
                            metrics_path=str(metrics))
        assert report.complete
        final = json.loads(metrics.read_text().splitlines()[-1])
        assert final["retries"] == 2
        assert final["infra_failures"] == 0


class TestResumedTelemetry:
    def _truncated_journal(self, tmp_path, keep):
        """A finished 4-row journal cut back to its header plus ``keep``
        rows, as a killed campaign leaves it."""
        spec = small_spec(trials=2)
        path = tmp_path / "j.jsonl"
        run_campaign(spec, workers=1, journal_path=str(path))
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:1 + keep]))
        return spec, str(path)

    def test_resumed_rows_count_as_trials(self, tmp_path):
        spec, path = self._truncated_journal(tmp_path, keep=2)
        registry = MetricsRegistry()
        report = run_campaign(spec, workers=1, journal_path=path,
                              registry=registry)
        assert len(report.results) == 4
        trials = registry.get("repro_trials_total")
        assert sum(child.value for _, child in trials._series()) == 4
        # Only the two trials run here carry wall times.
        wall = registry.get("repro_trial_wall_seconds")
        assert sum(child.count for _, child in wall._series()) == 2

    def test_final_record_is_a_view_of_the_registry(self, tmp_path):
        spec, path = self._truncated_journal(tmp_path, keep=2)
        registry = MetricsRegistry()
        metrics = tmp_path / "metrics.jsonl"
        run_campaign(spec, workers=1, journal_path=path,
                     metrics_path=str(metrics), registry=registry)
        final = json.loads(metrics.read_text().splitlines()[-1])
        assert final["resumed_from_journal"] == 2
        assert final["completed"] == 2
        assert final["remaining"] == 0
        assert final["sim_cycles"] > 0
        assert_record_matches_registry(final, registry)
