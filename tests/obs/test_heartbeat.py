"""Campaign heartbeat: record schema, rates, and fault tolerance."""

import json

from repro.core.campaign import TrialResult
from repro.obs import CampaignHeartbeat, MetricsRegistry
from repro.obs.metrics import (observe_resumed, observe_row, trial_retries,
                               worker_restarts)
from tests.conftest import assert_record_matches_registry


def FakeResult(outcome="masked", cycles=1000, wall_time_s=0.25,
               fast_start=False, converged=False, golden_cache_hit=False,
               golden_shared=False, index=0, **telemetry) -> TrialResult:
    """A freshly executed trial; keywords beyond the trial-level fields
    are its exported simulator counters."""
    return TrialResult(workload="Triad", scheme="flame", index=index,
                       outcome=outcome, cycles=cycles,
                       wall_time_s=wall_time_s, fast_start=fast_start,
                       converged=converged,
                       golden_cache_hit=golden_cache_hit,
                       golden_shared=golden_shared, telemetry=telemetry)


def _records(path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestHeartbeat:
    def test_final_record_always_written(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        hb = CampaignHeartbeat(str(path), total_trials=4, interval=60.0)
        hb.start()
        hb.note_trial(FakeResult(fast_start=True, converged=True,
                                 golden_cache_hit=True))
        hb.note_trial(FakeResult())
        hb.stop()
        records = _records(path)
        assert records and records[-1]["final"] is True
        last = records[-1]
        assert last["kind"] == "campaign_heartbeat"
        assert last["completed"] == 2
        assert last["remaining"] == 2
        # A heartbeat stopped within the minimum rate window reports a
        # guarded 0.0 rate (and no ETA) rather than an absurd
        # extrapolation from microseconds of elapsed time.
        assert last["trials_per_sec"] >= 0
        assert "elapsed_s" in last
        assert last["fast_start_hit_rate"] == 0.5
        assert last["convergence_early_exit_rate"] == 0.5
        assert last["golden_cache_hits"] == 1
        assert last["sim_cycles"] == 2000
        assert last["sim_wall_time_s"] == 0.5

    def test_resumed_trials_shrink_remaining(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        hb = CampaignHeartbeat(str(path), total_trials=10, interval=60.0)
        hb.start()
        observe_resumed(hb.registry, [FakeResult(index=i)
                                      for i in range(7)])
        hb.note_trial(FakeResult(index=7))
        hb.stop()
        last = _records(path)[-1]
        assert last["resumed_from_journal"] == 7
        assert last["remaining"] == 2

    def test_counts_infra_failures_and_restarts(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        hb = CampaignHeartbeat(str(path), total_trials=2, interval=60.0)
        hb.start()
        hb.note_trial(FakeResult(outcome="infra_error"))
        worker_restarts(hb.registry).inc()
        hb.stop()
        last = _records(path)[-1]
        assert last["infra_failures"] == 1
        assert last["worker_restarts"] == 1

    def test_periodic_records(self, tmp_path):
        import time

        path = tmp_path / "metrics.jsonl"
        hb = CampaignHeartbeat(str(path), total_trials=1, interval=0.05)
        hb.start()
        time.sleep(0.25)
        hb.stop()
        records = _records(path)
        assert len(records) >= 2  # several periodic + one final
        assert records[0]["final"] is False

    def test_unwritable_path_never_raises(self):
        hb = CampaignHeartbeat("/nonexistent-dir/metrics.jsonl",
                               total_trials=1, interval=60.0)
        hb.start()
        hb.note_trial(FakeResult())
        hb.stop()  # OSError swallowed: telemetry must not kill campaigns


class TestRateGuards:
    def test_snapshot_before_start_reports_zero_elapsed(self, tmp_path):
        hb = CampaignHeartbeat(str(tmp_path / "m.jsonl"), total_trials=4)
        hb.note_trial(FakeResult())
        snap = hb.snapshot()
        assert snap["elapsed_s"] == 0.0
        assert snap["trials_per_sec"] == 0.0
        assert snap["eta_s"] is None

    def test_first_tick_rate_never_explodes(self, tmp_path):
        hb = CampaignHeartbeat(str(tmp_path / "m.jsonl"), total_trials=100,
                               interval=60.0)
        hb.start()
        hb.note_trial(FakeResult())
        snap = hb.snapshot()
        # Microseconds after start: either the guard kicked in (0.0) or
        # real elapsed time was used — never a divide-by-~0 artifact.
        assert snap["trials_per_sec"] < 1e6
        hb.stop()

    def test_rate_and_eta_after_real_elapsed_time(self, tmp_path):
        import time

        hb = CampaignHeartbeat(str(tmp_path / "m.jsonl"), total_trials=4,
                               interval=60.0)
        hb.start()
        time.sleep(0.01)
        hb.note_trial(FakeResult())
        snap = hb.snapshot()
        assert snap["trials_per_sec"] > 0
        assert snap["eta_s"] is not None
        hb.stop()

    def test_every_record_carries_elapsed_s(self, tmp_path):
        path = tmp_path / "m.jsonl"
        hb = CampaignHeartbeat(str(path), total_trials=1, interval=0.05)
        hb.start()
        import time

        time.sleep(0.12)
        hb.stop()
        for record in _records(path):
            assert "elapsed_s" in record
            assert record["elapsed_s"] >= 0


class TestRegistryBridge:
    def test_note_trial_feeds_registry(self, tmp_path):
        from repro.obs import trial_counts

        registry = MetricsRegistry()
        hb = CampaignHeartbeat(str(tmp_path / "m.jsonl"), total_trials=2,
                               registry=registry)
        hb.start()
        hb.note_trial(FakeResult())
        hb.note_trial(FakeResult(outcome="sdc"))
        hb.stop()
        counts = trial_counts(registry)
        assert counts[("Triad", "flame", "dest_reg")] == {"masked": 1,
                                                          "sdc": 1}

    def test_on_snapshot_fires_on_stop(self, tmp_path):
        seen = []
        hb = CampaignHeartbeat(None, total_trials=1,
                               on_snapshot=seen.append)
        hb.start()
        hb.stop()
        assert seen and seen[-1]["final"] is True

    def test_pathless_heartbeat_writes_no_file(self, tmp_path):
        hb = CampaignHeartbeat(None, total_trials=1)
        hb.start()
        hb.note_trial(FakeResult())
        hb.stop()
        assert list(tmp_path.iterdir()) == []

    def test_heartbeat_counts_nothing_itself(self):
        registry = MetricsRegistry()
        hb = CampaignHeartbeat(None, total_trials=3, registry=registry)
        before = dict(vars(hb))
        hb.note_trial(FakeResult(stall_cycles={"rollback": 4}))
        hb.note_trial(FakeResult(outcome="infra_error", fast_start=True))
        trial_retries(registry).inc()
        assert vars(hb) == before
        snap = hb.snapshot()
        assert snap["completed"] == 2 and snap["retries"] == 1
        assert_record_matches_registry(snap, registry)

    def test_stall_cycles_aggregate_into_snapshot(self, tmp_path):
        hb = CampaignHeartbeat(None, total_trials=2)
        hb.note_trial(FakeResult(
            stall_cycles={"rollback": 10, "barrier": 5}))
        hb.note_trial(FakeResult(stall_cycles={"rollback": 2}))
        snap = hb.snapshot()
        assert snap["stall_cycles"] == {"barrier": 5, "rollback": 12}


class TestSuperblockTelemetry:
    def test_batching_counters_aggregate(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        hb = CampaignHeartbeat(str(path), total_trials=3, interval=60.0)
        hb.start()
        hb.note_trial(FakeResult(superblocks_executed=10,
                                 superblock_fallbacks={"divergence": 2}))
        hb.note_trial(FakeResult(superblocks_executed=5,
                                 superblock_fallbacks={"divergence": 1,
                                                       "injector": 4}))
        hb.stop()
        last = _records(path)[-1]
        assert last["superblocks_executed"] == 15
        assert last["superblock_fallbacks"] == {"divergence": 3,
                                                "injector": 4}

    def test_schema_tolerates_results_without_counters(self, tmp_path):
        # A hung or crashed trial returns before copying any counter.
        path = tmp_path / "metrics.jsonl"
        hb = CampaignHeartbeat(str(path), total_trials=1, interval=60.0)
        hb.start()
        hb.note_trial(FakeResult(outcome="due_hang", cycles=100))
        hb.stop()
        last = _records(path)[-1]
        assert last["superblocks_executed"] == 0
        assert last["superblock_fallbacks"] == {}


class TestShardTelemetry:
    def test_retries_counter(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        hb = CampaignHeartbeat(str(path), total_trials=4, interval=60.0)
        hb.start()
        trial_retries(hb.registry).inc()
        trial_retries(hb.registry).inc()
        hb.stop()
        assert _records(path)[-1]["retries"] == 2

    def test_identity_fields_omitted_for_whole_campaign_heartbeats(
            self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        hb = CampaignHeartbeat(str(path), total_trials=1, interval=60.0)
        hb.start()
        hb.stop()
        last = _records(path)[-1]
        assert "shard_id" not in last
        assert "worker_id" not in last
        assert "shard_staleness_s" not in last

    def test_worker_heartbeats_carry_shard_identity(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        hb = CampaignHeartbeat(str(path), total_trials=3, interval=60.0,
                               shard_id=2, worker_id="subproc-7")
        hb.start()
        hb.note_trial(FakeResult())
        hb.stop()
        last = _records(path)[-1]
        assert last["shard_id"] == 2
        assert last["worker_id"] == "subproc-7"

    def test_shard_liveness_reported_as_staleness(self, tmp_path):
        # The service hub's heartbeat-age gauge; -1 marks a shard with
        # no active lease, which the record leaves out.
        path = tmp_path / "metrics.jsonl"
        hb = CampaignHeartbeat(str(path), total_trials=8, interval=60.0)
        ages = hb.registry.gauge("repro_worker_heartbeat_age_seconds",
                                 "age", ("shard",))
        for shard, age in ((0, 0.5), (1, -1.0), (3, 2.0)):
            ages.labels(shard=str(shard)).set(age)
        hb.start()
        hb.stop()
        staleness = _records(path)[-1]["shard_staleness_s"]
        assert staleness == {"0": 0.5, "3": 2.0}

    def test_shard_done_counts_trials_as_completed(self, tmp_path):
        # A sharded campaign counts the rows tailed from shard journals
        # and reads finished shards from the hub's lease-state gauge.
        path = tmp_path / "metrics.jsonl"
        hb = CampaignHeartbeat(str(path), total_trials=10, interval=60.0)
        hb.registry.gauge("repro_shards", "shards", ("state",)).labels(
            state="done").set(1)
        for index in range(5):
            observe_row(hb.registry, FakeResult(index=index))
        hb.start()
        hb.stop()
        last = _records(path)[-1]
        assert last["shards_done"] == 1
        assert last["completed"] == 5
        assert last["remaining"] == 5
