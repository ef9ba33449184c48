"""Pluggable launcher backends: how leased shards become running work.

Mirrors the SHARP launcher/backend split: the coordinator decides *what*
runs (shard leases, requeues, quarantine) and a backend decides *where*
and *how* — in-process, in a pool of one-shot worker subprocesses, or
behind an HTTP API that independent worker processes poll.

Every backend drives the same loop until the coordinator reports the
campaign finished, and every backend is kill-tolerant: a worker dying
(or wedging) mid-shard fails its lease, the shard requeues with capped
seeded backoff, and the reclaiming worker resumes from the shard
journal.  Termination is guaranteed without any global timeout — each
shard can fail at most ``fail_limit`` leases before quarantine, so the
total number of worker launches is bounded by ``shards * fail_limit``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
import uuid
from dataclasses import dataclass, field

from ..errors import ConfigError
from .coordinator import Coordinator
from .shard import ShardSpec
from .worker import ShardAssignment, run_shard


@dataclass
class BackendOptions:
    """Knobs shared by every backend (the service runner fills these)."""

    workers: int = 2
    fsync_interval: int = 1
    poll_interval_s: float = 0.25
    heartbeat_interval_s: float = 0.5
    max_worker_restarts: int = 16
    progress: bool = False
    on_worker_restart: object = None  # callable() | None
    #: Service metrics hub (repro.service.metrics.ServiceMetrics); the
    #: HTTP backend serves it at GET /v1/metrics.
    metrics: object = None
    #: Test seam: trial executor for the inline backend.
    execute: object = None

    def note_restart(self) -> None:
        if self.on_worker_restart is not None:
            self.on_worker_restart()


def _assignment_from_lease(lease: dict,
                           opts: BackendOptions) -> ShardAssignment:
    return ShardAssignment(
        shard=ShardSpec.from_dict(lease["shard"]),
        journal_path=lease["journal_path"],
        lease_id=lease["lease_id"],
        heartbeat_path=lease.get("heartbeat_path"),
        fsync_interval=opts.fsync_interval,
        heartbeat_interval_s=opts.heartbeat_interval_s)


class InlineBackend:
    """Run every shard in-process, one at a time.

    The oracle backend: zero concurrency, zero subprocesses — and the
    reference the distributed backends' merged journals are compared
    against byte-for-byte.
    """

    name = "inline"

    def run(self, coordinator: Coordinator, opts: BackendOptions) -> None:
        from ..core.campaign import run_trial

        execute = opts.execute or run_trial
        while not coordinator.finished:
            lease = coordinator.lease("inline-0")
            if lease is None:
                delay = coordinator.next_ready_delay()
                if delay is None:
                    raise ConfigError(
                        "inline backend found no leasable shard in an "
                        "unfinished campaign (leases leaked?)")
                time.sleep(min(max(delay, 0.001), 0.25))
                continue
            assignment = _assignment_from_lease(lease, opts)
            sid = assignment.shard.shard_id

            def on_trial(result, lease_id=lease["lease_id"]) -> None:
                coordinator.heartbeat(lease_id)

            if opts.progress:
                print(f"  shard {sid}: {assignment.shard.trials} trials "
                      f"(lease {lease['lease_id']})", flush=True)
            try:
                run_shard(assignment, execute=execute, on_trial=on_trial)
            except Exception as exc:
                coordinator.fail(lease["lease_id"],
                                 f"{type(exc).__name__}: {exc}")
                continue
            coordinator.complete(lease["lease_id"])


def worker_command(extra: list[str]) -> list[str]:
    return [sys.executable, "-m", "repro.harness", "worker", *extra]


def worker_env() -> dict:
    """Inherit the environment, guaranteeing the package is importable
    in the child even when the parent was launched from a checkout."""
    import repro

    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    existing = env.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (package_root + os.pathsep + existing
                             if existing else package_root)
    return env


class _WorkerProc:
    __slots__ = ("proc", "lease_id", "started", "heartbeat_path",
                 "assignment_path")

    def __init__(self, proc, lease, assignment_path, now):
        self.proc = proc
        self.lease_id = lease["lease_id"]
        self.heartbeat_path = lease.get("heartbeat_path")
        self.assignment_path = assignment_path
        self.started = now


class SubprocessBackend:
    """A pool of one-shot worker subprocesses, one leased shard each.

    Liveness is file-driven: each worker appends heartbeat records to
    its shard's heartbeat JSONL, and the pool relays fresh beats to the
    coordinator.  A worker that dies is reaped by exit code; one that
    wedges stops beating, the coordinator expires its lease, and the
    pool kills the orphan.  SIGKILL at any instant is recoverable.
    """

    name = "subprocess"

    def run(self, coordinator: Coordinator, opts: BackendOptions) -> None:
        env = worker_env()
        procs: list[_WorkerProc] = []
        sequence = 0
        try:
            while not coordinator.finished or procs:
                now = time.monotonic()
                # Reap exited workers.
                for worker in list(procs):
                    code = worker.proc.poll()
                    if code is None:
                        continue
                    procs.remove(worker)
                    self._cleanup(worker)
                    if code == 0 and coordinator.complete(worker.lease_id):
                        continue
                    coordinator.fail(worker.lease_id,
                                     f"worker exited with code {code}")
                    opts.note_restart()
                # Relay heartbeats; kill workers whose lease was revoked
                # (expired by the coordinator, or superseded on resume).
                for worker in list(procs):
                    if self._beating(worker, now, opts):
                        coordinator.heartbeat(worker.lease_id)
                coordinator.expire_stale()
                for worker in list(procs):
                    if worker.lease_id not in coordinator.leases:
                        worker.proc.kill()
                        worker.proc.wait()
                        procs.remove(worker)
                        self._cleanup(worker)
                        opts.note_restart()
                # Lease new shards into free slots.
                while len(procs) < opts.workers:
                    lease = coordinator.lease(f"subproc-{sequence}")
                    if lease is None:
                        break
                    sequence += 1
                    assignment = _assignment_from_lease(lease, opts)
                    apath = os.path.join(
                        coordinator.shard_dir,
                        f"assignment_{lease['lease_id']}.json")
                    assignment.save(apath)
                    stdout = None if opts.progress else subprocess.DEVNULL
                    proc = subprocess.Popen(
                        worker_command(["--shard-json", apath]),
                        env=env, stdout=stdout, stderr=stdout)
                    procs.append(_WorkerProc(proc, lease, apath,
                                             time.monotonic()))
                    if opts.progress:
                        print(f"  worker pid {proc.pid}: shard "
                              f"{lease['shard']['shard_id']} "
                              f"(lease {lease['lease_id']})", flush=True)
                if coordinator.finished and not procs:
                    break
                time.sleep(opts.poll_interval_s)
        finally:
            for worker in procs:
                worker.proc.kill()
                worker.proc.wait()
                self._cleanup(worker)

    def _beating(self, worker: _WorkerProc, now: float,
                 opts: BackendOptions) -> bool:
        """Fresh heartbeat evidence: the heartbeat file advanced
        recently, or the worker only just started (grace window)."""
        grace = max(2.0, 4 * opts.heartbeat_interval_s)
        if now - worker.started < grace:
            return True
        path = worker.heartbeat_path
        if not path or not os.path.exists(path):
            return False
        age = time.time() - os.path.getmtime(path)
        return age < grace

    def _cleanup(self, worker: _WorkerProc) -> None:
        try:
            os.remove(worker.assignment_path)
        except OSError:
            pass


class HttpBackend:
    """Coordinator behind an HTTP API; workers poll it for leases.

    Workers are independent subprocesses talking JSON over localhost
    (or any reachable address, given a shared filesystem for shard
    journals).  Dead workers are respawned up to
    ``max_worker_restarts``; if the restart budget is exhausted with no
    worker left, remaining shards are quarantined so the campaign
    terminates instead of hanging.
    """

    name = "http"

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self.port = port

    def run(self, coordinator: Coordinator, opts: BackendOptions) -> None:
        from .api import CoordinatorServer

        server = CoordinatorServer(coordinator, host=self.host,
                                   port=self.port, metrics=opts.metrics)
        server.start()
        if opts.progress:
            print(f"  coordinator API at {server.url} "
                  f"(metrics: {server.url}/v1/metrics)", flush=True)
        env = worker_env()
        stdout = None if opts.progress else subprocess.DEVNULL
        restarts = 0
        workers: dict[str, subprocess.Popen] = {}

        def spawn() -> None:
            worker_id = f"http-{uuid.uuid4().hex[:8]}"
            workers[worker_id] = subprocess.Popen(
                worker_command(["--coordinator", server.url,
                                "--worker-id", worker_id,
                                "--fsync-interval",
                                str(opts.fsync_interval),
                                "--heartbeat-interval",
                                str(opts.heartbeat_interval_s)]),
                env=env, stdout=stdout, stderr=stdout)

        try:
            for _ in range(max(1, opts.workers)):
                spawn()
            while True:
                with server.lock:
                    coordinator.expire_stale()
                    finished = coordinator.finished
                if finished:
                    break
                for worker_id, proc in list(workers.items()):
                    if proc.poll() is None:
                        continue
                    del workers[worker_id]
                    if restarts < opts.max_worker_restarts:
                        restarts += 1
                        opts.note_restart()
                        spawn()
                if not workers:
                    with server.lock:
                        coordinator.abandon_pending(
                            "no workers left and the restart budget "
                            f"({opts.max_worker_restarts}) is exhausted")
                    break
                time.sleep(opts.poll_interval_s)
            # Let workers observe "finished" and exit on their own.
            deadline = time.monotonic() + 30.0
            for proc in workers.values():
                try:
                    proc.wait(timeout=max(0.1,
                                          deadline - time.monotonic()))
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        finally:
            for proc in workers.values():
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            server.stop()


BACKENDS = {backend.name: backend for backend in
            (InlineBackend, SubprocessBackend, HttpBackend)}


def backend_by_name(name: str):
    """Instantiate a launcher backend by registry name."""
    try:
        return BACKENDS[name]()
    except KeyError:
        raise ConfigError(
            f"unknown backend {name!r}; choose from "
            f"{', '.join(sorted(BACKENDS))}") from None


__all__ = ["BACKENDS", "BackendOptions", "HttpBackend", "InlineBackend",
           "SubprocessBackend", "backend_by_name", "worker_command",
           "worker_env"]
