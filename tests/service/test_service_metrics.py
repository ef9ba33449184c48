"""Service metrics hub: transitions, journal tailing, /v1/metrics."""

import urllib.request

from repro.core.campaign import CampaignSpec, MASKED, SDC, TrialResult
from repro.obs.metrics import (MetricsRegistry, parse_prom_text,
                               trial_counts, validate_prom_text)
from repro.service.coordinator import Coordinator
from repro.service.metrics import ServiceMetrics


def fake_spec(trials=2):
    return CampaignSpec(workloads=("Triad",), schemes=("baseline",),
                        trials=trials, seed=7, scale="tiny")


def result(index, outcome=MASKED):
    return TrialResult(workload="Triad", scheme="baseline", index=index,
                       outcome=outcome, site="dest_reg", cycles=100,
                       wall_time_s=0.01)


class TestHub:
    def test_transitions_and_state_gauges(self, tmp_path):
        coordinator = Coordinator(fake_spec(), str(tmp_path / "s"), 2)
        hub = ServiceMetrics(coordinator)
        coordinator.on_event = hub.on_transition
        try:
            lease = coordinator.lease("w0")
            coordinator.fail(lease["lease_id"], "chaos")
            hub.refresh()
            families, _ = parse_prom_text(hub.render())
            events = {l["event"]: v for _, l, v in
                      families["repro_shard_transitions_total"]["samples"]}
            assert events == {"lease": 1, "failed": 1}
            states = {l["state"]: v for _, l, v in
                      families["repro_shards"]["samples"]}
            assert states["pending"] == 2  # failed shard requeued
            assert states["done"] == 0
        finally:
            coordinator.close()

    def test_journal_tailing_counts_each_row_once(self, tmp_path):
        from repro.core.campaign import CampaignJournal

        coordinator = Coordinator(fake_spec(), str(tmp_path / "s"), 1)
        hub = ServiceMetrics(coordinator)
        try:
            lease = coordinator.lease("w0")
            journal = CampaignJournal(lease["journal_path"])
            journal.write_header(coordinator.spec)
            journal.append(result(0))
            hub.refresh()
            hub.refresh()  # idempotent: offsets + key dedupe
            journal.append(result(1, outcome=SDC))
            journal.close()
            coordinator.complete(lease["lease_id"])
            hub.refresh()
            counts = trial_counts(hub.registry)
            assert counts[("Triad", "baseline", "dest_reg")] == {
                "masked": 1, "sdc": 1}
        finally:
            coordinator.close()

    def test_tailed_rows_add_no_telemetry(self, tmp_path):
        from repro.core.campaign import CampaignJournal

        coordinator = Coordinator(fake_spec(), str(tmp_path / "s"), 1)
        hub = ServiceMetrics(coordinator)
        try:
            lease = coordinator.lease("w0")
            journal = CampaignJournal(lease["journal_path"])
            journal.write_header(coordinator.spec)
            journal.append(result(0))
            journal.append(result(1))
            journal.close()
            families, _ = parse_prom_text(hub.render())
            cycles = families["repro_trial_cycles_total"]["samples"]
            assert [value for _, _, value in cycles] == [200]
            # Journal rows carry no wall time: none is fabricated.
            assert "repro_trial_wall_seconds" not in families
        finally:
            coordinator.close()

    def test_collect_races_lease_churn(self, tmp_path):
        """The coordinator heartbeat collects the hub's registry on its
        own thread while the backend grants and drops leases."""
        import sys
        import threading

        from repro.service.coordinator import Lease

        coordinator = Coordinator(fake_spec(), str(tmp_path / "s"), 2)
        hub = ServiceMetrics(coordinator)
        errors = []
        stop = threading.Event()

        def collect():
            try:
                while not stop.is_set():
                    hub.registry.collect()
            except Exception as exc:
                errors.append(exc)

        collectors = [threading.Thread(target=collect) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in collectors:
                thread.start()
            for i in range(50_000):
                coordinator.leases[f"L{i}"] = Lease(f"L{i}", i % 2, "w",
                                                    0.0)
                coordinator.leases.pop(f"L{i - 256}", None)
        finally:
            stop.set()
            for thread in collectors:
                thread.join(timeout=10)
            sys.setswitchinterval(interval)
            coordinator.close()
        assert not any(thread.is_alive() for thread in collectors)
        assert errors == []

    def test_ingest_results_dedupes_against_tail(self, tmp_path):
        coordinator = Coordinator(fake_spec(), str(tmp_path / "s"), 1)
        hub = ServiceMetrics(coordinator)
        try:
            rows = [result(0), result(1)]
            hub.ingest_results(rows)
            hub.ingest_results(rows)  # same keys: no double counting
            counts = trial_counts(hub.registry)
            assert counts[("Triad", "baseline", "dest_reg")] == {
                "masked": 2}
        finally:
            coordinator.close()

    def test_worker_snapshot_becomes_shard_gauges(self, tmp_path):
        coordinator = Coordinator(fake_spec(), str(tmp_path / "s"), 1)
        hub = ServiceMetrics(coordinator)
        try:
            hub.ingest_worker_snapshot(0, {"completed": 5,
                                           "trials_per_sec": 2.5,
                                           "elapsed_s": 2.0,
                                           "worker_id": "w0"})
            families, _ = parse_prom_text(hub.render())
            completed = families["repro_shard_completed_trials"]["samples"]
            assert completed == [("repro_shard_completed_trials",
                                  {"shard": "0"}, 5.0)]
        finally:
            coordinator.close()

    def test_render_is_always_valid_exposition(self, tmp_path):
        coordinator = Coordinator(fake_spec(), str(tmp_path / "s"), 2)
        hub = ServiceMetrics(coordinator)
        try:
            hub.on_transition("lease", 0)
            hub.observe_http("/v1/lease", 200, 0.01)
            hub.ingest_results([result(0)])
            hub.refresh()
            assert validate_prom_text(hub.render()) == []
        finally:
            coordinator.close()


class TestEndToEnd:
    def test_scrape_during_and_after_sharded_campaign(self, tmp_path):
        """The acceptance criterion: a live /v1/metrics scrape validates
        cleanly and the final verdict counters equal the merged journal
        row-for-row."""
        import socket

        from repro.core.campaign import CampaignJournal
        from repro.service.runner import run_sharded_campaign

        spec = CampaignSpec(workloads=("Triad",),
                            schemes=("baseline", "flame"), trials=2,
                            seed=3, scale="tiny")
        path = str(tmp_path / "journal.jsonl")
        registry = MetricsRegistry()
        scrapes = []
        with socket.socket() as sock:  # pick a free localhost port
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]

        def snapshot_hook(record):
            # Runs on the heartbeat cadence while shards execute: scrape
            # the coordinator API mid-campaign (it may not be up yet on
            # the first ticks, or already down on the last one).
            try:
                url = f"http://127.0.0.1:{port}/v1/metrics"
                with urllib.request.urlopen(url, timeout=5) as resp:
                    scrapes.append(resp.read().decode())
            except OSError:
                pass

        report = run_sharded_campaign(
            spec, shards=2, backend="http", workers=1,
            journal_path=path, heartbeat_interval_s=0.05,
            on_snapshot=snapshot_hook, registry=registry,
            http_port=port)
        assert report.complete

        # Live scrapes (if any landed while the server was up) validate.
        for text in scrapes:
            assert validate_prom_text(text) == []

        # Final registry counters == merged journal rows, cell by cell.
        rows = CampaignJournal(path).load(spec)
        assert len(rows) == 4
        expected = {}
        for row in rows:
            cell = expected.setdefault(
                (row.workload, row.scheme, row.site), {})
            cell[row.outcome] = cell.get(row.outcome, 0) + 1
        assert trial_counts(registry) == expected
        from repro.obs.metrics import render_prom

        assert validate_prom_text(render_prom(registry)) == []
