"""Sharded campaign service: coordinator + backend + canonical merge.

:func:`run_sharded_campaign` is the distributed counterpart of
:func:`repro.harness.campaign.run_campaign`: same spec in, same
:class:`~repro.harness.campaign.CampaignReport` out, and — when every
shard completes — a merged journal byte-identical to the one an
uninterrupted single-process run of the same spec+seed would have
written.  In between, any number of workers may be SIGKILLed and the
coordinator itself may be killed and restarted: shard journals plus the
coordinator's own journal carry the full recovery state.
"""

from __future__ import annotations

import os
import shutil

from ..core.campaign import CampaignJournal, CampaignSpec
from ..harness.campaign import CampaignReport, default_journal_path
from .backends import BackendOptions, HttpBackend, backend_by_name
from .coordinator import Coordinator
from .metrics import ServiceMetrics
from .shard import (infra_placeholder, load_shard_results,
                    merge_shard_results, missing_keys, split_campaign,
                    write_merged_journal)


def default_shard_dir(journal_path: str) -> str:
    return journal_path + ".shards"


def run_sharded_campaign(spec: CampaignSpec, *, shards: int,
                         backend: str = "subprocess",
                         workers: int | None = None,
                         journal_path: str | None = None,
                         shard_dir: str | None = None,
                         fresh: bool = False, progress: bool = False,
                         metrics_path: str | None = None,
                         registry=None, on_snapshot=None,
                         http_host: str = "127.0.0.1", http_port: int = 0,
                         fsync_interval: int = 1,
                         lease_ttl_s: float = 600.0,
                         heartbeat_timeout_s: float = 30.0,
                         fail_limit: int = 3,
                         backoff_base_s: float = 0.25,
                         backoff_cap_s: float = 30.0,
                         max_worker_restarts: int = 16,
                         poll_interval_s: float = 0.25,
                         heartbeat_interval_s: float = 0.5,
                         _backend_options: BackendOptions | None = None,
                         ) -> CampaignReport:
    """Run (or resume) ``spec`` as ``shards`` leased shards on the named
    backend and return the merged report.

    Always terminates: every shard ends *done* or *quarantined*; the
    unmeasured trials of quarantined shards degrade to ``infra_error``
    rows (never dropped, never hung).
    """
    path = journal_path or default_journal_path(spec)
    sdir = shard_dir or default_shard_dir(path)
    if fresh:
        if os.path.exists(path):
            os.remove(path)
        if os.path.isdir(sdir):
            shutil.rmtree(sdir)
    os.makedirs(sdir, exist_ok=True)

    # Rows already merged by a previous (possibly partial) service run
    # count as done — the merge dedups them against shard journals.
    merged_journal = CampaignJournal(path)
    merged_journal.repair()
    prior = merged_journal.load(spec)
    resumed = CampaignReport(spec, prior, path)
    if resumed.complete:
        if progress:
            print(f"  campaign already complete in {path}", flush=True)
        if registry is not None:
            from ..obs.metrics import observe_resumed
            observe_resumed(registry, prior)
        return resumed

    coordinator = Coordinator(
        spec, sdir, shards, lease_ttl_s=lease_ttl_s,
        heartbeat_timeout_s=heartbeat_timeout_s, fail_limit=fail_limit,
        backoff_base_s=backoff_base_s, backoff_cap_s=backoff_cap_s)
    # The metrics hub observes everything: coordinator transitions (via
    # the on_event hook), trial rows (tailed from shard journals — the
    # only path that counts trials, so nothing double-counts), worker
    # restarts and snapshots, and HTTP traffic.  Trial rows resumed from
    # a prior merged journal count too — the scrape must always agree
    # with the journal, not just with this process's work.
    hub = ServiceMetrics(coordinator, registry=registry)
    coordinator.on_event = hub.on_transition
    hub.ingest_resumed(prior)
    heartbeat = None
    if metrics_path is not None or on_snapshot is not None:
        from ..obs import CampaignHeartbeat

        # A view of the hub's registry: collecting it for each record
        # refreshes the lease gauges and tails the shard journals.
        heartbeat = CampaignHeartbeat(metrics_path,
                                      len(spec.trial_specs()),
                                      registry=hub.registry,
                                      on_snapshot=on_snapshot).start()
    options = _backend_options or BackendOptions()
    options.workers = workers if workers is not None else \
        max(1, min(len(coordinator.shards), os.cpu_count() or 1))
    options.fsync_interval = fsync_interval
    options.poll_interval_s = poll_interval_s
    options.heartbeat_interval_s = heartbeat_interval_s
    options.max_worker_restarts = max_worker_restarts
    options.progress = progress
    options.metrics = hub
    options.on_worker_restart = hub.note_worker_restart

    launcher = backend_by_name(backend)
    if isinstance(launcher, HttpBackend):
        launcher.host = http_host
        launcher.port = http_port
    try:
        if progress:
            print(f"  dispatching {len(coordinator.shards)} shards to "
                  f"backend '{backend}' ({options.workers} workers)",
                  flush=True)
        # Derive each distinct golden once and publish it in shared
        # memory; shard workers (subprocess/HTTP — they inherit the
        # environment via worker_env, inline — same process) adopt the
        # goldens instead of re-simulating them per worker.
        from ..core.goldens import export_goldens, release_goldens
        export_goldens(spec.trial_specs(), manifest_dir=sdir)
        try:
            launcher.run(coordinator, options)
        finally:
            release_goldens()
        results = _merge(spec, sdir, coordinator, prior)
        write_merged_journal(spec, results, path)
        # Final metrics truth-up: whatever the live tail missed (rows
        # appended since the last collect, quarantine placeholders) lands
        # now, so the registry's verdict counters — and the heartbeat's
        # final record — equal the merged journal exactly.
        hub.ingest_results(results)
    finally:
        if heartbeat is not None:
            heartbeat.stop()
        coordinator.close()
    return CampaignReport(spec, results, path)


def _merge(spec: CampaignSpec, sdir: str, coordinator: Coordinator,
           prior: list) -> list:
    """Shard journals + any previously merged rows, deduped into
    canonical order; quarantined shards contribute infra_error
    placeholders for whatever they never measured."""
    rows = load_shard_results(spec, sdir, coordinator.shards) + prior
    placeholders = []
    if coordinator.quarantined:
        trial_by_key = {t.key: t for t in spec.trial_specs()}
        shard_of = {}
        for shard in coordinator.shards:
            if shard.shard_id in coordinator.quarantined:
                for trial in shard.trial_specs():
                    shard_of[trial.key] = shard.shard_id
        for key in missing_keys(spec, rows):
            sid = shard_of.get(key)
            if sid is None:
                continue
            reason = coordinator.quarantine_reason.get(sid, "")
            placeholders.append(infra_placeholder(
                trial_by_key[key],
                detail=f"shard {sid} quarantined: {reason}",
                attempts=coordinator.failures[sid]))
    return merge_shard_results(spec, rows + placeholders)


__all__ = ["default_shard_dir", "run_sharded_campaign"]
