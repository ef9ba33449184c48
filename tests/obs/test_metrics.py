"""Metrics registry: label hygiene, atomicity, exposition round-trips."""

import math
import threading

import pytest

from repro.errors import ConfigError
from repro.obs.metrics import (SIM_COUNTERS, Counter, MetricsRegistry,
                               SimCounter, observe_sim_stats, observe_trial,
                               parse_prom_text, render_prom, trial_counts,
                               validate_prom_text)


class TestLabelHygiene:
    def test_counter_requires_total_suffix(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigError):
            registry.counter("repro_things", "h")
        registry.counter("repro_things_total", "h")  # fine

    def test_invalid_metric_name_rejected(self):
        registry = MetricsRegistry()
        for bad in ("1abc_total", "has space_total", "dash-ed_total"):
            with pytest.raises(ConfigError):
                registry.counter(bad, "h")

    def test_invalid_label_names_rejected(self):
        registry = MetricsRegistry()
        for bad in ("__reserved", "le", "1num", "has-dash"):
            with pytest.raises(ConfigError):
                registry.counter("repro_x_total", "h", (bad,))

    def test_labels_must_match_declared_set_exactly(self):
        registry = MetricsRegistry()
        metric = registry.counter("repro_x_total", "h", ("site",))
        with pytest.raises(ConfigError):
            metric.labels()  # missing
        with pytest.raises(ConfigError):
            metric.labels(site="a", extra="b")  # superfluous
        metric.labels(site="a").inc()

    def test_reregistration_returns_same_metric(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_x_total", "h", ("site",))
        b = registry.counter("repro_x_total", "h", ("site",))
        assert a is b

    def test_reregistration_with_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "h", ("site",))
        with pytest.raises(ConfigError):
            registry.counter("repro_x_total", "h", ("other",))
        with pytest.raises(ConfigError):
            registry.gauge("repro_x_total", "h", ("site",))

    def test_counter_rejects_negative_and_gauge_allows(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_x_total", "h")
        with pytest.raises(ConfigError):
            counter.labels().inc(-1)
        gauge = registry.gauge("repro_g", "h")
        gauge.labels().dec(5)
        assert gauge.labels().value == -5


class TestThreadSafety:
    def test_concurrent_increments_never_lose_updates(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_x_total", "h", ("worker",))
        hist = registry.histogram("repro_h", "h", buckets=(1.0, 2.0))

        def work(i):
            child = counter.labels(worker=str(i % 2))
            for _ in range(1000):
                child.inc()
                hist.labels().observe(0.5)

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = sum(child.value for _, child in counter._series())
        assert total == 8000
        assert hist.labels().cumulative()[-1][1] == 8000


class TestHistogram:
    def test_boundary_values_fall_in_lower_bucket(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_h", "h", buckets=(0.1, 1.0))
        child = hist.labels()
        child.observe(0.1)   # le="0.1" (inclusive upper bound)
        child.observe(0.10001)
        child.observe(50.0)  # +Inf only
        cum = child.cumulative()
        assert cum[0] == (0.1, 1)
        assert cum[1] == (1.0, 2)
        assert cum[2][0] == math.inf and cum[2][1] == 3
        assert child.sum == pytest.approx(50.20001)

    def test_buckets_must_increase(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigError):
            registry.histogram("repro_h", "h", buckets=(1.0, 1.0))
        with pytest.raises(ConfigError):
            registry.histogram("repro_h2", "h", buckets=(2.0, 1.0))


class TestExposition:
    def _populated(self):
        registry = MetricsRegistry()
        c = registry.counter("repro_trials_total", "Trials.",
                             ("verdict",))
        c.labels(verdict="masked").inc(3)
        c.labels(verdict='we"ird\\label\n').inc()  # escaping round-trip
        registry.gauge("repro_temp", "Gauge.").labels().set(1.5)
        h = registry.histogram("repro_wall_seconds", "Hist.",
                               buckets=(0.1, 1.0))
        h.labels().observe(0.05)
        h.labels().observe(0.5)
        return registry

    def test_render_validate_round_trip(self):
        text = render_prom(self._populated())
        assert validate_prom_text(text) == []
        families, problems = parse_prom_text(text)
        assert problems == []
        assert families["repro_trials_total"]["type"] == "counter"
        samples = families["repro_trials_total"]["samples"]
        total = sum(v for _, _, v in samples)
        assert total == 4
        labels = {tuple(sorted(l.items())) for _, l, _ in samples}
        assert (("verdict", 'we"ird\\label\n'),) in labels

    def test_histogram_exposition_is_cumulative_with_inf(self):
        text = render_prom(self._populated())
        families, _ = parse_prom_text(text)
        buckets = [(l["le"], v) for n, l, v
                   in families["repro_wall_seconds"]["samples"]
                   if n.endswith("_bucket")]
        # integral bounds render without a trailing .0 ("1", not "1.0")
        assert buckets == [("0.1", 1), ("1", 2), ("+Inf", 2)]

    def test_validator_rejects_broken_documents(self):
        bad = [
            "repro_x_total 1\n",                      # no HELP/TYPE
            "# TYPE repro_x counter\nrepro_x 1\n",    # counter w/o _total
            ("# HELP repro_x_total h\n# TYPE repro_x_total counter\n"
             "repro_x_total -1\n"),                   # negative counter
            ("# HELP repro_h h\n# TYPE repro_h histogram\n"
             'repro_h_bucket{le="1.0"} 2\n'
             'repro_h_bucket{le="+Inf"} 1\n'          # non-monotone
             "repro_h_sum 1\nrepro_h_count 1\n"),
            ("# HELP repro_h h\n# TYPE repro_h histogram\n"
             'repro_h_bucket{le="1.0"} 1\n'           # missing +Inf
             "repro_h_sum 1\nrepro_h_count 1\n"),
        ]
        for text in bad:
            assert validate_prom_text(text), text
        # missing trailing newline is also a problem
        assert validate_prom_text(
            "# HELP repro_x_total h\n# TYPE repro_x_total counter\n"
            "repro_x_total 1")

    def test_duplicate_series_detected(self):
        text = ("# HELP repro_x_total h\n# TYPE repro_x_total counter\n"
                'repro_x_total{a="1"} 1\nrepro_x_total{a="1"} 2\n')
        assert any("duplicate" in p for p in validate_prom_text(text))


#: One run's exported simulator counters (``TrialResult.telemetry``).
FAKE_COUNTERS = {
    "instructions": 100,
    "stall_cycles": {"rollback": 7, "barrier": 3},
    "l1_hits": 5,
    "l1_misses": 1,
    "superblocks_executed": 4,
    "superblock_fallbacks": {"divergence": 2},
    "mem_windows_executed": 3,
    "mem_window_insts": 30,
}


class TestStackInstrumentation:
    def test_observe_sim_stats_names_and_labels(self):
        registry = MetricsRegistry()
        observe_sim_stats(registry, FAKE_COUNTERS, {"workload": "Triad"})
        text = render_prom(registry)
        assert validate_prom_text(text) == []
        families, _ = parse_prom_text(text)
        stall = {l["cause"]: v for _, l, v
                 in families["repro_stall_cycles_total"]["samples"]}
        assert stall == {"rollback": 7, "barrier": 3}
        cache = {(l["level"], l["event"]): v for _, l, v
                 in families["repro_sim_cache_events_total"]["samples"]}
        assert cache == {("l1", "hits"): 5, ("l1", "misses"): 1}

    def test_observe_trial_and_trial_counts(self):
        from repro.core.campaign import TrialResult

        registry = MetricsRegistry()
        for outcome in ("masked", "masked", "sdc"):
            observe_trial(registry, TrialResult(
                workload="Triad", scheme="flame", index=0,
                outcome=outcome, site="dest_reg", cycles=10,
                wall_time_s=0.01))
        counts = trial_counts(registry)
        assert counts[("Triad", "flame", "dest_reg")] == {"masked": 2,
                                                          "sdc": 1}
        assert validate_prom_text(render_prom(registry)) == []

    def test_trial_counts_sum_across_shard_label(self):
        from repro.core.campaign import TrialResult

        registry = MetricsRegistry()
        for shard in (0, 1):
            observe_trial(registry, TrialResult(
                workload="Triad", scheme="baseline", index=0,
                outcome="masked", site="dest_reg", cycles=10),
                shard_id=shard)
        counts = trial_counts(registry)
        assert counts[("Triad", "baseline", "dest_reg")] == {"masked": 2}
        assert validate_prom_text(render_prom(registry)) == []

    def test_zero_valued_labeled_series_are_not_emitted(self):
        registry = MetricsRegistry()
        observe_sim_stats(registry, {}, {})
        families, _ = parse_prom_text(render_prom(registry))
        # Labeled families stay sample-free until a nonzero bump —
        # otherwise every scrape would fabricate zero-cycle stall
        # causes.  (Unlabeled metrics render their single 0 sample, the
        # conventional exposition of an untouched counter.)
        assert families["repro_stall_cycles_total"]["samples"] == []
        assert families["repro_sim_cache_events_total"]["samples"] == []


class TestCounterTable:
    def test_table_lists_every_exported_counter(self):
        registry = MetricsRegistry()
        observe_sim_stats(registry, FAKE_COUNTERS)
        families, _ = parse_prom_text(render_prom(registry))
        assert set(FAKE_COUNTERS) == set(SIM_COUNTERS)
        assert {spec.family for spec in SIM_COUNTERS.values()} <= \
            set(families)
        assert "repro_sim_cycles_total" not in families

    def test_new_counter_reaches_every_view(self, monkeypatch):
        """One table entry is the whole change: a counter not exported
        today reaches the trial's telemetry, the Prometheus exposition
        and the heartbeat record."""
        from repro.core.campaign import TrialSpec, run_trial
        from repro.obs import CampaignHeartbeat

        monkeypatch.setitem(SIM_COUNTERS, "atomic_ops", SimCounter(
            "repro_sim_atomic_ops_total", "Atomic operations executed."))
        result = run_trial(TrialSpec(workload="IS", scheme="flame",
                                     index=0, campaign_seed=1,
                                     checkpoint=False))
        atomics = result.telemetry["atomic_ops"]
        assert atomics > 0
        assert "atomic_ops" not in result.as_dict()

        heartbeat = CampaignHeartbeat(None, total_trials=1)
        heartbeat.note_trial(result)
        text = render_prom(heartbeat.registry)
        assert validate_prom_text(text) == []
        families, _ = parse_prom_text(text)
        samples = families["repro_sim_atomic_ops_total"]["samples"]
        assert [value for _, _, value in samples] == [atomics]
        assert heartbeat.snapshot()["atomic_ops"] == atomics
