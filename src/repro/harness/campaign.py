"""Campaign orchestration: hardened worker pool, journaling, resume.

The core module (:mod:`repro.core.campaign`) defines what a trial *is*;
this module is about running thousands of them without a single bad
trial taking the campaign down:

* trials run in worker processes, each guarded by the simulator's
  cycle-budget watchdog plus a per-trial wall-clock alarm;
* worker death (OOM kill, interpreter abort) is transient — the pool is
  rebuilt and the affected trials retried with exponential backoff, up
  to a bound, after which they are journaled as ``infra_error`` rather
  than aborting the batch;
* a wall-clock backstop over each dispatch epoch classifies trials
  wedged beyond all watchdogs as DUE-hangs and abandons their workers;
* every completed trial is appended to the JSONL journal immediately,
  so killing the campaign at any point loses at most the in-flight
  trials — rerunning the same command resumes from the journal.
"""

from __future__ import annotations

import math
import os
import time
from collections import deque
from dataclasses import dataclass, field

from ..core.campaign import (CampaignJournal, CampaignSpec, CellAggregate,
                             DUE_HANG, INFRA_ERROR, TrialResult, TrialSpec,
                             aggregate, merge_cells, run_trial)
from ..obs.metrics import observe_resumed, trial_retries, worker_restarts
from ..service.backoff import backoff_delay
from .runner import _DEFAULT_CACHE_DIR


def default_journal_path(spec: CampaignSpec,
                         cache_dir: str | None = None) -> str:
    base = cache_dir or os.environ.get("REPRO_CACHE_DIR",
                                       _DEFAULT_CACHE_DIR)
    return os.path.join(base, "campaigns",
                        f"campaign_{spec.campaign_id()}.jsonl")


@dataclass
class CampaignReport:
    """Everything a rendered summary (or a test) needs."""

    spec: CampaignSpec
    results: list[TrialResult]
    cells: list[CellAggregate]
    journal_path: str
    complete: bool = True
    infra_failures: int = 0

    def cell(self, workload: str, scheme: str,
             site: str | None = None) -> CellAggregate:
        """One (workload, scheme[, site]) aggregate.  Without ``site``
        the per-site cells are pooled (single-site campaigns are
        returned as-is)."""
        if site is None:
            merged = merge_cells(self.cells, workload, scheme)
            if merged is None:
                raise KeyError((workload, scheme))
            return merged
        for cell in self.cells:
            if (cell.workload == workload and cell.scheme == scheme
                    and cell.site == site):
                return cell
        raise KeyError((workload, scheme, site))

    def scheme_totals(self) -> dict[str, dict[str, int]]:
        totals: dict[str, dict[str, int]] = {}
        for cell in self.cells:
            bucket = totals.setdefault(cell.scheme, {})
            for outcome, count in cell.counts.items():
                bucket[outcome] = bucket.get(outcome, 0) + count
        return totals


class CampaignRunner:
    """Dispatches a campaign's trials through a hardened process pool."""

    def __init__(self, workers: int | None = None, max_retries: int = 2,
                 backoff_s: float = 0.5, backoff_cap_s: float = 30.0,
                 epoch_slack_s: float = 60.0) -> None:
        self.workers = workers if workers is not None else \
            max(1, (os.cpu_count() or 1))
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        self.epoch_slack_s = epoch_slack_s
        #: Trial executor — an attribute so tests can inject failures.
        self._execute = run_trial
        #: Metrics registry while a telemetry-on ``run`` is active.
        self._registry = None

    # ------------------------------------------------------------------
    def run(self, spec: CampaignSpec, journal_path: str | None = None,
            progress: bool = False, fresh: bool = False,
            metrics_path: str | None = None, registry=None,
            on_snapshot=None) -> CampaignReport:
        path = journal_path or default_journal_path(spec)
        journal = CampaignJournal(path)
        if fresh and os.path.exists(path):
            os.remove(path)
        journal.repair()
        done = {r.key: r for r in journal.load(spec)}
        if not journal.has_header():
            journal.write_header(spec)
        pending = deque(t for t in spec.trial_specs() if t.key not in done)
        total = len(pending) + len(done)
        if progress and done:
            print(f"  resuming: {len(done)}/{total} trials journaled",
                  flush=True)
        completed = len(done)
        infra = 0
        heartbeat = None
        if (metrics_path is not None or registry is not None
                or on_snapshot is not None):
            from ..obs import CampaignHeartbeat
            heartbeat = CampaignHeartbeat(
                metrics_path, total, registry=registry,
                on_snapshot=on_snapshot)
            observe_resumed(heartbeat.registry, list(done.values()))
            heartbeat.start()
            self._registry = heartbeat.registry

        def record(result: TrialResult) -> None:
            nonlocal completed, infra
            journal.append(result)
            completed += 1
            if result.outcome == INFRA_ERROR:
                infra += 1
            if heartbeat is not None:
                heartbeat.note_trial(result)
            if progress and (completed % 25 == 0 or completed == total):
                print(f"  [{completed}/{total}] trials journaled",
                      flush=True)

        try:
            if pending:
                if self.workers > 1 and len(pending) > 1:
                    # Publish the goldens once, in shared memory, so the
                    # pool's workers adopt instead of re-simulating them
                    # (repro.core.goldens; non-fatal if unavailable).
                    from ..core.goldens import (export_goldens,
                                                release_goldens)
                    export_goldens(
                        pending,
                        manifest_dir=os.path.dirname(path) or ".")
                    try:
                        self._run_pool(spec, pending, record)
                    finally:
                        release_goldens()
                else:
                    self._run_inline(pending, record)
        finally:
            journal.close()
            if heartbeat is not None:
                heartbeat.stop()
            self._registry = None

        results = journal.load(spec)
        keys = {r.key for r in results}
        expected = {t.key for t in spec.trial_specs()}
        return CampaignReport(spec=spec, results=results,
                              cells=aggregate(results), journal_path=path,
                              complete=expected <= keys,
                              infra_failures=infra)

    # ------------------------------------------------------------------
    def _infra_result(self, trial: TrialSpec, attempts: int,
                      error: BaseException) -> TrialResult:
        return TrialResult(workload=trial.workload, scheme=trial.scheme,
                           index=trial.index, outcome=INFRA_ERROR,
                           site=trial.site,
                           detail=f"{type(error).__name__}: {error}",
                           attempts=attempts)

    def _backoff(self, attempt: int, trial: TrialSpec | None = None) -> None:
        """Capped exponential backoff with deterministic seeded jitter:
        delays double from ``backoff_s`` up to ``backoff_cap_s`` (a
        retry storm can never sleep unboundedly), and the jitter stream
        is keyed by the trial's coordinates so concurrent retries
        de-synchronise reproducibly."""
        if self.backoff_s <= 0:
            return
        time.sleep(backoff_delay(
            attempt, base_s=self.backoff_s, cap_s=self.backoff_cap_s,
            seed=trial.campaign_seed if trial is not None else 0,
            key=trial.key if trial is not None else ()))

    def _note(self, counter) -> None:
        """Bump a campaign counter (``trial_retries`` or
        ``worker_restarts``) when telemetry is on."""
        if self._registry is not None:
            counter(self._registry).inc()

    def _run_inline(self, pending: deque, record) -> None:
        """Single-process path: same capture + bounded-retry semantics,
        no pool."""
        while pending:
            trial = pending.popleft()
            for attempt in range(1, self.max_retries + 2):
                try:
                    result = self._execute(trial)
                    result.attempts = attempt
                    record(result)
                    break
                except Exception as exc:  # infra fault — sim errors are
                    if attempt > self.max_retries:  # classified in-trial
                        record(self._infra_result(trial, attempt, exc))
                        break
                    self._note(trial_retries)
                    self._backoff(attempt, trial)

    def _run_pool(self, spec: CampaignSpec, pending: deque, record) -> None:
        from concurrent.futures import (ProcessPoolExecutor, TimeoutError,
                                        as_completed)

        # A dead worker poisons every outstanding future with
        # BrokenProcessPool — there is no telling which trial killed it.
        # Everything unfinished at breakage becomes a *suspect* and is
        # retried in isolation (one trial per single-worker pool), which
        # identifies the culprit exactly and never taxes healthy trials.
        suspects: deque = deque()
        while pending:
            batch = list(pending)
            pending.clear()
            workers = min(self.workers, len(batch))
            epoch_timeout = None
            if spec.timeout_s > 0:
                epoch_timeout = (spec.timeout_s
                                 * math.ceil(len(batch) / workers)
                                 + self.epoch_slack_s)
            pool = ProcessPoolExecutor(max_workers=workers)
            futures = {pool.submit(self._execute, t): t for t in batch}
            broken = False
            try:
                for future in as_completed(futures, timeout=epoch_timeout):
                    trial = futures.pop(future)
                    try:
                        result = future.result()
                    except Exception:
                        # run_trial never raises for simulation failures,
                        # so this is worker death / a lost result.
                        suspects.append(trial)
                        broken = True
                        break
                    result.attempts = 1
                    record(result)
            except TimeoutError:
                # Watchdogs failed (worker wedged in uninterruptible
                # code): classify started stragglers as wall-clock
                # DUE-hangs and abandon their workers; never-started
                # trials just requeue.
                for future, trial in futures.items():
                    if future.cancel():
                        pending.append(trial)
                        continue
                    record(TrialResult(
                        workload=trial.workload, scheme=trial.scheme,
                        index=trial.index, outcome=DUE_HANG,
                        site=trial.site,
                        detail="wall-clock epoch timeout (worker "
                               "abandoned)"))
                pool.shutdown(wait=False, cancel_futures=True)
                continue
            if broken:
                suspects.extend(futures.values())
                pool.shutdown(wait=False, cancel_futures=True)
                self._note(worker_restarts)
            else:
                pool.shutdown(wait=True)
        if suspects:
            self._run_isolated(spec, suspects, record)

    def _run_isolated(self, spec: CampaignSpec, trials: deque,
                      record) -> None:
        """Retry suspects one at a time, each in a fresh single-worker
        pool, with bounded backoff: a trial that keeps killing its
        worker is journaled as ``infra_error`` without taking any other
        trial down with it."""
        from concurrent.futures import ProcessPoolExecutor, TimeoutError

        timeout = (spec.timeout_s + self.epoch_slack_s
                   if spec.timeout_s > 0 else None)
        for trial in trials:
            for attempt in range(1, self.max_retries + 2):
                pool = ProcessPoolExecutor(max_workers=1)
                try:
                    result = pool.submit(self._execute,
                                         trial).result(timeout=timeout)
                except TimeoutError:
                    pool.shutdown(wait=False, cancel_futures=True)
                    record(TrialResult(
                        workload=trial.workload, scheme=trial.scheme,
                        index=trial.index, outcome=DUE_HANG,
                        site=trial.site,
                        detail="wall-clock timeout (isolated worker "
                               "abandoned)", attempts=attempt))
                    break
                except Exception as exc:
                    pool.shutdown(wait=False, cancel_futures=True)
                    self._note(worker_restarts)
                    if attempt > self.max_retries:
                        record(self._infra_result(trial, attempt, exc))
                        break
                    self._note(trial_retries)
                    self._backoff(attempt, trial)
                else:
                    pool.shutdown(wait=True)
                    result.attempts = attempt
                    record(result)
                    break


def write_aggregates(report: CampaignReport, path: str) -> None:
    """Write a campaign's per-cell aggregates as canonical JSON.

    Deterministic byte-for-byte for a given set of trial outcomes
    (cells sorted, keys sorted, fixed separators), so two reports from
    equivalent campaigns — e.g. one direct and one checkpoint-
    accelerated — can be compared with a plain ``diff``.
    """
    import json

    payload = {
        "campaign_id": report.spec.campaign_id(),
        "complete": report.complete,
        "trials": len(report.results),
        "cells": [cell.as_dict() for cell in report.cells],
    }
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


def run_campaign(spec: CampaignSpec, workers: int | None = None,
                 journal_path: str | None = None, progress: bool = False,
                 fresh: bool = False, metrics_path: str | None = None,
                 registry=None, on_snapshot=None) -> CampaignReport:
    """Convenience one-shot used by the CLI and the experiments module."""
    return CampaignRunner(workers=workers).run(
        spec, journal_path=journal_path, progress=progress, fresh=fresh,
        metrics_path=metrics_path, registry=registry,
        on_snapshot=on_snapshot)


__all__ = ["CampaignReport", "CampaignRunner", "default_journal_path",
           "run_campaign", "write_aggregates"]
