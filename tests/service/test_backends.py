"""Launcher backends: byte-equivalence to the inline oracle, quarantine.

The acceptance bar: for the same spec+seed, the merged journal from any
backend — inline, subprocess pool, HTTP polling workers — is
byte-identical to the journal an uninterrupted single-process
``run_campaign`` writes.
"""

import json

import pytest

from repro.core.campaign import (CampaignJournal, CampaignSpec,
                                 INFRA_ERROR, MASKED, TrialResult)
from repro.errors import ConfigError
from repro.harness.campaign import run_campaign, write_aggregates
from repro.obs import MetricsRegistry
from repro.service.backends import (BACKENDS, BackendOptions, HttpBackend,
                                    InlineBackend, SubprocessBackend,
                                    backend_by_name)
from repro.service.runner import default_shard_dir, run_sharded_campaign
from repro.service.shard import split_campaign
from tests.conftest import assert_record_matches_registry


def real_spec():
    return CampaignSpec(workloads=("Triad",),
                        schemes=("baseline", "flame"), trials=2, seed=1,
                        scale="tiny")


def fake_spec(trials=3):
    return CampaignSpec(workloads=("Triad",), schemes=("baseline",),
                        trials=trials, seed=9, scale="tiny")


def fake_execute(trial):
    return TrialResult(workload=trial.workload, scheme=trial.scheme,
                       index=trial.index, outcome=MASKED, site=trial.site,
                       cycles=50 + trial.index)


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


@pytest.fixture(scope="module")
def oracle(tmp_path_factory):
    """Journal bytes + aggregates of the single-process reference run."""
    tmp = tmp_path_factory.mktemp("oracle")
    journal = str(tmp / "inline.jsonl")
    report = run_campaign(real_spec(), workers=1, journal_path=journal)
    aggregates = str(tmp / "agg.json")
    write_aggregates(report, aggregates)
    return {"journal": read_bytes(journal),
            "aggregates": read_bytes(aggregates)}


def run_backend(backend, tmp_path, **kwargs):
    journal = str(tmp_path / "merged.jsonl")
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("poll_interval_s", 0.1)
    kwargs.setdefault("heartbeat_interval_s", 0.2)
    report = run_sharded_campaign(real_spec(), backend=backend,
                                  journal_path=journal,
                                  shard_dir=str(tmp_path / "shards"),
                                  **kwargs)
    return report, journal


class TestRegistry:
    def test_backends_by_name(self):
        assert isinstance(backend_by_name("inline"), InlineBackend)
        assert isinstance(backend_by_name("subprocess"),
                          SubprocessBackend)
        assert isinstance(backend_by_name("http"), HttpBackend)
        assert set(BACKENDS) == {"inline", "subprocess", "http"}

    def test_unknown_backend_lists_choices(self):
        with pytest.raises(ConfigError, match="inline.*subprocess"):
            backend_by_name("slurm")


class TestInlineBackend:
    def test_fake_campaign_merges_to_canonical_journal(self, tmp_path):
        spec = fake_spec()
        journal = str(tmp_path / "merged.jsonl")
        report = run_sharded_campaign(
            spec, shards=3, backend="inline", workers=1,
            journal_path=journal, shard_dir=str(tmp_path / "shards"),
            _backend_options=BackendOptions(execute=fake_execute))
        assert report.complete
        assert report.infra_failures == 0
        expected_path = str(tmp_path / "expected.jsonl")
        expected = CampaignJournal(expected_path)
        expected.write_header(spec)
        for trial in spec.trial_specs():
            expected.append(fake_execute(trial))
        expected.close()
        assert read_bytes(journal) == read_bytes(expected_path)

    def test_real_campaign_matches_single_process_run(self, tmp_path,
                                                      oracle):
        report, journal = run_backend("inline", tmp_path, workers=1)
        assert report.complete
        assert read_bytes(journal) == oracle["journal"]
        aggregates = str(tmp_path / "agg.json")
        write_aggregates(report, aggregates)
        assert read_bytes(aggregates) == oracle["aggregates"]

    def test_poison_shard_quarantines_and_terminates(self, tmp_path):
        spec = fake_spec()
        poisoned = {t.key for t in split_campaign(spec, 3)[1].trial_specs()}

        def execute(trial):
            if trial.key in poisoned:
                raise RuntimeError("poisoned shard")
            return fake_execute(trial)

        report = run_sharded_campaign(
            spec, shards=3, backend="inline", workers=1,
            journal_path=str(tmp_path / "merged.jsonl"),
            shard_dir=str(tmp_path / "shards"),
            fail_limit=2, backoff_base_s=0.001,
            _backend_options=BackendOptions(execute=execute))
        assert report.complete  # every key present, degraded not dropped
        assert report.infra_failures == len(poisoned)
        infra = [r for r in report.results if r.outcome == INFRA_ERROR]
        assert {r.key for r in infra} == poisoned
        for row in infra:
            assert "quarantined" in row.detail
            assert "RuntimeError" in row.detail
            assert row.attempts == 2  # one per failed lease

    def test_completed_campaign_short_circuits(self, tmp_path):
        spec = fake_spec()
        journal = str(tmp_path / "merged.jsonl")
        options = BackendOptions(execute=fake_execute)
        run_sharded_campaign(spec, shards=2, backend="inline", workers=1,
                             journal_path=journal,
                             shard_dir=str(tmp_path / "shards"),
                             _backend_options=options)

        def explode(trial):
            raise AssertionError("no trial should re-run")

        report = run_sharded_campaign(
            spec, shards=2, backend="inline", workers=1,
            journal_path=journal, shard_dir=str(tmp_path / "shards"),
            _backend_options=BackendOptions(execute=explode))
        assert report.complete
        assert len(report.results) == len(spec.trial_specs())

    def test_metrics_report_shards_done(self, tmp_path):
        spec = fake_spec()
        metrics = tmp_path / "metrics.jsonl"
        run_sharded_campaign(
            spec, shards=2, backend="inline", workers=1,
            journal_path=str(tmp_path / "merged.jsonl"),
            shard_dir=str(tmp_path / "shards"),
            metrics_path=str(metrics),
            _backend_options=BackendOptions(execute=fake_execute))
        records = [json.loads(line)
                   for line in metrics.read_text().splitlines()]
        final = records[-1]
        assert final["shards_done"] == 2
        assert final["completed"] == len(spec.trial_specs())
        assert "shard_staleness_s" in final

    def test_final_record_is_a_view_of_the_hub_registry(self, tmp_path):
        registry = MetricsRegistry()
        metrics = tmp_path / "metrics.jsonl"
        report, _ = run_backend("inline", tmp_path, workers=1,
                                metrics_path=str(metrics),
                                registry=registry)
        final = json.loads(metrics.read_text().splitlines()[-1])
        assert final["completed"] == len(report.results) == 4
        assert final["shard_staleness_s"] == {}  # no shard is leased
        assert_record_matches_registry(final, registry)

    def test_journal_rows_record_no_wall_times(self, tmp_path):
        """The hub only sees journal rows, which carry no telemetry: no
        fabricated 0 s wall-time samples, so the report's wall-time
        table reads unavailable."""
        from repro.harness.report import write_campaign_report

        registry = MetricsRegistry()
        report, _ = run_backend("inline", tmp_path, workers=1,
                                registry=registry)
        assert registry.get("repro_trial_wall_seconds") is None
        html = tmp_path / "report.html"
        write_campaign_report(report, str(html), registry=registry)
        assert "Unavailable without a metrics snapshot" in html.read_text()


class TestSubprocessBackend:
    def test_real_campaign_matches_single_process_run(self, tmp_path,
                                                      oracle):
        report, journal = run_backend("subprocess", tmp_path, workers=2)
        assert report.complete
        assert report.infra_failures == 0
        assert read_bytes(journal) == oracle["journal"]

    def test_shared_goldens_reused_across_workers(self, tmp_path, oracle):
        """Every shard worker is a fresh process; with the manifest
        handshake active each adopts its cell's golden from shared
        memory instead of re-simulating it — visible as
        ``golden_shared_hits`` in the per-shard heartbeats — while the
        merged journal stays byte-identical to the workers=1 oracle."""
        report, journal = run_backend("subprocess", tmp_path,
                                      shards=4, workers=2)
        assert report.complete
        assert read_bytes(journal) == oracle["journal"]
        shard_dir = tmp_path / "shards"
        heartbeats = sorted(shard_dir.glob("shard_*.heartbeat.jsonl"))
        assert heartbeats  # subprocess workers emit per-shard metrics
        hits = 0
        for path in heartbeats:
            final = json.loads(path.read_text().splitlines()[-1])
            hits += final["golden_shared_hits"]
        # Four shards, four fresh worker processes, one golden cell
        # each: all of them must have adopted rather than re-derived.
        assert hits >= len(heartbeats)


    def test_sgemm_shards_match_inline_journal(self, tmp_path):
        """Shard workers compile their own kernel but adopt the
        coordinator's goldens, so every process must compile SGEMM to
        the same code or rows turn into false SDC/DUE verdicts."""
        spec = CampaignSpec(workloads=("SGEMM",), schemes=("flame",),
                            trials=4, seed=11, scale="tiny")
        inline = str(tmp_path / "inline.jsonl")
        run_campaign(spec, workers=1, journal_path=inline)
        merged = str(tmp_path / "merged.jsonl")
        report = run_sharded_campaign(
            spec, shards=2, backend="subprocess", workers=2,
            journal_path=merged, shard_dir=str(tmp_path / "shards"),
            poll_interval_s=0.1, heartbeat_interval_s=0.2)
        assert report.complete
        assert read_bytes(merged) == read_bytes(inline)


class TestHttpBackend:
    def test_real_campaign_matches_single_process_run(self, tmp_path,
                                                      oracle):
        report, journal = run_backend("http", tmp_path, workers=2)
        assert report.complete
        assert report.infra_failures == 0
        assert read_bytes(journal) == oracle["journal"]


class TestShardDirDefaults:
    def test_default_shard_dir_sits_next_to_the_journal(self):
        assert default_shard_dir("/x/j.jsonl") == "/x/j.jsonl.shards"
