"""Campaign telemetry heartbeat: periodic JSONL metrics next to the journal.

A tiny daemon thread snapshots the campaign's metrics registry every
``interval`` seconds and appends one JSON object per sample to a
metrics file — progress, throughput, acceleration hit rates, worker
restarts, and an ETA extrapolated from the observed trial rate.
``stop()`` always writes one final record, so even sub-interval
campaigns emit at least one heartbeat.

The heartbeat counts nothing itself: every record is read from a
:class:`~repro.obs.metrics.MetricsRegistry` (the caller's, or one of
its own), which ``note_trial`` feeds through ``observe_trial``.  Give
it an ``on_snapshot`` callback and each periodic/final record is also
delivered in-process — that is how the ``--live`` dashboard ticks
without a second timer thread.
"""

from __future__ import annotations

import json
import threading
import time

from .metrics import SIM_COUNTERS, MetricsRegistry, observe_trial

#: Below this many elapsed seconds, rate/ETA extrapolation is noise:
#: the first sample can land microseconds after start (or before it,
#: when a caller snapshots an un-started heartbeat), and dividing a
#: handful of trials by ~0 produces absurd trillions-of-trials/sec.
_MIN_RATE_WINDOW_S = 1e-3

#: Count keys of a record and the family each is summed from (over the
#: series carrying the given labels).  ``completed`` is
#: ``repro_trials_total`` minus the resumed rows; the simulator counters
#: of ``SIM_COUNTERS`` follow under their own names.
COUNT_KEYS = {
    "resumed_from_journal": ("repro_trials_resumed_total", {}),
    "golden_cache_hits": ("repro_trial_accel_total",
                          {"kind": "golden_cache_hit"}),
    "golden_shared_hits": ("repro_trial_accel_total",
                           {"kind": "golden_shared"}),
    "worker_restarts": ("repro_worker_restarts_total", {}),
    "retries": ("repro_trial_retries_total", {}),
    "infra_failures": ("repro_trials_total", {"verdict": "infra_error"}),
    "sim_cycles": ("repro_trial_cycles_total", {}),
}


class CampaignHeartbeat:
    """Registry view plus the writer thread.

    ``path=None`` runs the heartbeat as a pure in-memory sampler — no
    JSONL file, but ``snapshot``/``on_snapshot`` still work (the service
    runner uses this when the operator asked for a dashboard but no
    metrics file).
    """

    def __init__(self, path: str | None, total_trials: int,
                 interval: float = 5.0, shard_id: int | None = None,
                 worker_id: str | None = None,
                 registry: MetricsRegistry | None = None,
                 on_snapshot=None) -> None:
        self.path = path
        self.total_trials = total_trials
        self.interval = interval
        #: Identity stamped on every record (shard workers in the
        #: distributed campaign service set both; a whole-campaign
        #: heartbeat leaves them ``None`` and omits the fields).
        self.shard_id = shard_id
        self.worker_id = worker_id
        #: Where every count lives; each record is read from it.
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        #: Optional callback fired with each record written (periodic
        #: and final) — drives the live dashboard.
        self.on_snapshot = on_snapshot
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        #: ``None`` until ``start()``: a snapshot taken before the
        #: writer starts must report zero elapsed time, not the seconds
        #: since the process booted its monotonic clock.
        self._started_at: float | None = None

    def note_trial(self, result) -> None:
        """Count one freshly executed trial (a ``TrialResult``)."""
        observe_trial(self.registry, result, shard_id=self.shard_id)

    # ------------------------------------------------------------------
    # Writer side
    # ------------------------------------------------------------------
    def start(self) -> "CampaignHeartbeat":
        self._started_at = time.monotonic()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="campaign-heartbeat")
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the thread and flush a final record."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.interval + 5.0)
            self._thread = None
        self._write(final=True)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._write(final=False)

    def snapshot(self, final: bool = False) -> dict:
        """One metrics record (the JSONL schema), read from the registry.

        Rate and ETA are guarded against the zero-elapsed edge: before
        ``start()`` or within the first millisecond, ``trials_per_sec``
        is 0.0 and ``eta_s`` is ``None`` rather than an extrapolation
        from a division by (nearly) zero.  ``elapsed_s`` is present in
        every record.
        """
        if self._started_at is None:
            elapsed = 0.0
        else:
            elapsed = max(time.monotonic() - self._started_at, 0.0)
        families = {f["name"]: f["series"] for f in self.registry.collect()}

        def series(name, **match):
            return [s for s in families.get(name, ())
                    if match.items() <= s["labels"].items()]

        def total(name, **match):
            # A histogram series counts with its sum.
            return sum((s["value"] if "value" in s else s["sum"]
                        for s in series(name, **match)), 0.0)

        counts = {key: int(total(name, **match))
                  for key, (name, match) in COUNT_KEYS.items()}
        resumed = counts["resumed_from_journal"]
        completed = int(total("repro_trials_total")) - resumed
        rate = completed / elapsed if elapsed >= _MIN_RATE_WINDOW_S else 0.0
        remaining = max(self.total_trials - resumed - completed, 0)
        denominator = completed or 1
        record = {
            "kind": "campaign_heartbeat",
            "final": final,
            "elapsed_s": round(elapsed, 3),
            "total_trials": self.total_trials,
            "resumed_from_journal": resumed,
            "completed": completed,
            "remaining": remaining,
            "trials_per_sec": round(rate, 4),
            "eta_s": round(remaining / rate, 1) if rate > 0 else None,
            "fast_start_hit_rate": total("repro_trial_accel_total",
                                         kind="fast_start") / denominator,
            "convergence_early_exit_rate": total(
                "repro_trial_accel_total", kind="converged") / denominator,
            **counts,
            "sim_wall_time_s": round(total("repro_trial_wall_seconds"), 3),
        }
        for name, spec in SIM_COUNTERS.items():
            fixed = dict(spec.labels)
            if spec.key_label is None:
                record[name] = int(total(spec.family, **fixed))
                continue
            by_key: dict[str, int] = {}
            for s in series(spec.family, **fixed):
                key = s["labels"][spec.key_label]
                by_key[key] = by_key.get(key, 0) + int(s["value"])
            record[name] = dict(sorted(by_key.items()))
        if self.shard_id is not None:
            record["shard_id"] = self.shard_id
        if self.worker_id is not None:
            record["worker_id"] = self.worker_id
        # Sharded campaigns: the service hub's lease gauges.
        if "repro_shards" in families:
            record["shards_done"] = int(total("repro_shards", state="done"))
        if "repro_worker_heartbeat_age_seconds" in families:
            ages = sorted(families["repro_worker_heartbeat_age_seconds"],
                          key=lambda s: int(s["labels"]["shard"]))
            # Negative ages mark shards with no active lease.
            record["shard_staleness_s"] = {
                s["labels"]["shard"]: round(s["value"], 3)
                for s in ages if s["value"] >= 0}
        return record

    def _write(self, final: bool) -> None:
        record = self.snapshot(final=final)
        record["time"] = time.time()
        if self.path is not None:
            try:
                with open(self.path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record, separators=(",", ":")))
                    fh.write("\n")
            except OSError:
                pass  # telemetry must never kill a campaign
        if self.on_snapshot is not None:
            try:
                self.on_snapshot(record)
            except Exception:
                pass  # dashboard hiccups must never kill a campaign
