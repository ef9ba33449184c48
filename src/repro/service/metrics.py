"""Service-side metrics hub: one registry for the whole campaign plane.

:class:`ServiceMetrics` aggregates every telemetry source the sharded
campaign service has into a single
:class:`~repro.obs.metrics.MetricsRegistry`, scrape-ready as Prometheus
text via ``GET /v1/metrics``:

* **coordinator transitions** — the shard lease state machine emits
  ``on_event`` callbacks (lease/done/failed/quarantined/expired) that
  become ``repro_shard_transitions_total{event=...}``;
* **shard journals** — trial rows are tailed incrementally from each
  shard's JSONL journal (complete lines only, deduped by trial key, so
  a shard retried after worker death never double-counts) and folded
  through ``observe_row`` into ``repro_trials_total`` and
  ``repro_trial_cycles_total`` (journal rows carry no telemetry);
* **worker heartbeats** — the snapshot each polling worker attaches to
  its HTTP heartbeat surfaces as per-shard labeled gauges
  (``repro_shard_completed_trials{shard=...}`` and friends);
* **HTTP traffic** — request counts and latency histograms per
  endpoint.

Counting trials from the journals (not from in-flight callbacks) is
what makes the acceptance invariant hold exactly: after the final
``ingest_results``, ``repro_trials_total`` sums to the merged journal's
row count — including quarantine placeholders — no matter how many
workers died along the way.

The hub registers ``refresh`` as a collector of its registry, so every
view — a scrape, a ``--metrics-prom`` snapshot, the coordinator's
campaign heartbeat — sees current lease gauges and journal tails.
"""

from __future__ import annotations

import json
import os
import threading

from ..core.campaign import TrialResult
from ..obs.metrics import (MetricsRegistry, observe_resumed, observe_row,
                           worker_restarts)
from .coordinator import Coordinator, DONE, LEASED, PENDING, QUARANTINED

#: Latency buckets for coordinator HTTP endpoints (localhost JSON calls
#: are sub-millisecond when healthy; the tail matters when the lock is
#: contended by a large scrape).
_HTTP_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)

#: Worker heartbeat snapshot keys mirrored into per-shard gauges.
_SNAPSHOT_GAUGES = (
    ("completed", "repro_shard_completed_trials",
     "Trials completed by the shard's current worker (last snapshot)."),
    ("trials_per_sec", "repro_shard_trials_per_sec",
     "Trial throughput reported by the shard's current worker."),
    ("elapsed_s", "repro_shard_elapsed_seconds",
     "Wall-clock seconds the shard's current worker has been running."),
    ("sim_cycles", "repro_shard_sim_cycles",
     "Simulated cycles accumulated by the shard's current worker."),
    ("retries", "repro_shard_retries",
     "Trial retries reported by the shard's current worker."),
)

#: Sentinel for ``repro_worker_heartbeat_age_seconds`` when a shard has
#: no active lease (gauges cannot be unpublished mid-scrape).
NO_LEASE_AGE = -1.0


class ServiceMetrics:
    """Aggregates coordinator, shard-journal, and worker telemetry.

    Event callbacks (``on_transition``, ``observe_http``,
    ``ingest_worker_snapshot``) are cheap and callable from any thread;
    ``refresh()`` does the pull-side work — state gauges plus the
    incremental journal tail — and runs whenever the registry is
    collected (the ``/v1/metrics`` handler renders under the server
    lock).
    """

    def __init__(self, coordinator: Coordinator,
                 registry: MetricsRegistry | None = None) -> None:
        self.coordinator = coordinator
        self.registry = registry or MetricsRegistry()
        self._lock = threading.Lock()
        self._offsets: dict[int, int] = {}
        self._seen: set = set()
        registry = self.registry
        self._transitions = registry.counter(
            "repro_shard_transitions_total",
            "Shard lease state machine transitions by event.", ("event",))
        self._expiries = registry.counter(
            "repro_lease_expiries_total",
            "Leases revoked for missed heartbeats or TTL overrun.")
        self._restarts = worker_restarts(registry)
        self._shard_states = registry.gauge(
            "repro_shards", "Shards currently in each lease state.",
            ("state",))
        self._heartbeat_age = registry.gauge(
            "repro_worker_heartbeat_age_seconds",
            "Seconds since the last heartbeat of each shard's worker "
            "(-1 = no active lease).", ("shard",))
        self._http_requests = registry.counter(
            "repro_http_requests_total",
            "Coordinator HTTP requests by endpoint and status code.",
            ("path", "code"))
        self._http_latency = registry.histogram(
            "repro_http_request_seconds",
            "Coordinator HTTP request latency by endpoint.", ("path",),
            buckets=_HTTP_BUCKETS)
        registry.add_collector(self.refresh)

    # ------------------------------------------------------------------
    # Push-side hooks (cheap, any thread)
    # ------------------------------------------------------------------
    def on_transition(self, event: str, shard_id: int) -> None:
        """Wired to ``Coordinator.on_event``."""
        self._transitions.labels(event=event).inc()
        if event == "expired":
            self._expiries.inc()

    def note_worker_restart(self) -> None:
        self._restarts.inc()

    def observe_http(self, path: str, code: int, seconds: float) -> None:
        self._http_requests.labels(path=path, code=str(code)).inc()
        self._http_latency.labels(path=path).observe(seconds)

    def ingest_worker_snapshot(self, shard_id: int, record: dict) -> None:
        """Mirror one worker heartbeat snapshot into per-shard gauges
        (arrives with ``POST /v1/heartbeat`` from polling workers)."""
        if not isinstance(record, dict):
            return
        for key, name, help in _SNAPSHOT_GAUGES:
            value = record.get(key)
            if isinstance(value, (int, float)):
                gauge = self.registry.gauge(name, help, ("shard",))
                gauge.labels(shard=str(shard_id)).set(value)

    def ingest_resumed(self, rows) -> None:
        """Count the rows resumed from a prior merged journal (before
        any shard journal is tailed, so nothing is seen yet)."""
        with self._lock:
            self._seen.update(row.key for row in rows)
        observe_resumed(self.registry, rows)

    def ingest_results(self, results) -> None:
        """Fold the final merged result set (with quarantine
        placeholders) into the trial counters, deduped against
        everything already counted."""
        fresh = []
        with self._lock:
            for result in results:
                if result.key in self._seen:
                    continue
                self._seen.add(result.key)
                fresh.append(result)
        for result in fresh:
            observe_row(self.registry, result)

    # ------------------------------------------------------------------
    # Pull-side refresh (the registry collector; any thread)
    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Bring state gauges and journal-derived counters up to date."""
        coordinator = self.coordinator
        counts = {PENDING: 0, LEASED: 0, DONE: 0, QUARANTINED: 0}
        for state in coordinator.state.values():
            counts[state] = counts.get(state, 0) + 1
        for state, count in counts.items():
            self._shard_states.labels(state=state).set(count)
        now = coordinator.clock()
        # list() copies the leases at once: a backend thread may lease
        # or release one while a heartbeat thread collects.
        age_by_shard = {lease.shard_id: now - lease.last_heartbeat
                        for lease in list(coordinator.leases.values())}
        for shard in coordinator.shards:
            self._heartbeat_age.labels(shard=str(shard.shard_id)).set(
                age_by_shard.get(shard.shard_id, NO_LEASE_AGE))
        self._tail_journals()

    def _tail_journals(self) -> None:
        """Incrementally consume new complete rows from every shard
        journal.  Only whole lines (ending ``\\n``) are parsed — a row
        being appended concurrently is picked up by the next refresh —
        and trial keys dedupe re-leased shards' overlapping rows (the
        re-run rows are byte-identical, so first-seen wins exactly)."""
        coordinator = self.coordinator
        fresh: list[TrialResult] = []
        with self._lock:
            for shard in coordinator.shards:
                sid = shard.shard_id
                path = shard.journal_path(coordinator.shard_dir)
                try:
                    size = os.path.getsize(path)
                except OSError:
                    continue
                offset = self._offsets.get(sid, 0)
                if size < offset:
                    offset = 0  # journal was reset (fresh re-run)
                if size == offset:
                    continue
                try:
                    with open(path, "rb") as handle:
                        handle.seek(offset)
                        data = handle.read()
                except OSError:
                    continue
                complete = data.rfind(b"\n") + 1
                if complete == 0:
                    continue
                self._offsets[sid] = offset + complete
                for line in data[:complete].splitlines():
                    try:
                        record = json.loads(line)
                    except (json.JSONDecodeError, UnicodeDecodeError):
                        continue
                    if record.pop("type", "trial") != "trial":
                        continue
                    try:
                        result = TrialResult.from_dict(record)
                    except TypeError:
                        continue
                    if result.key in self._seen:
                        continue
                    self._seen.add(result.key)
                    fresh.append(result)
        for result in fresh:
            observe_row(self.registry, result)

    def render(self) -> str:
        """Prometheus text for the current registry state."""
        return self.registry.render()


__all__ = ["NO_LEASE_AGE", "ServiceMetrics"]
