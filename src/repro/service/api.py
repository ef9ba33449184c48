"""HTTP transport for the campaign coordinator (stdlib only).

The coordinator is exposed as a tiny JSON-over-HTTP API so workers can
run in separate processes (or, with a shared filesystem for shard
journals, separate hosts) and poll for shard leases::

    POST /v1/lease      {"worker_id": ...} -> {"lease": {...}|null,
                                               "finished": bool,
                                               "retry_after_s": float}
    POST /v1/heartbeat  {"lease_id": ...,
                         "metrics": {...}?}  -> {"ok": bool}
    POST /v1/complete   {"lease_id": ...}  -> {"ok": bool}
    POST /v1/fail       {"lease_id": ..., "reason": ...} -> {"ok": true}
    GET  /v1/status                        -> coordinator status dict
    GET  /v1/metrics                       -> Prometheus text exposition

``heartbeat -> {"ok": false}`` is the revocation signal: the lease was
expired (missed heartbeats, TTL) or the coordinator restarted; the
worker must stop executing the shard and lease again.  A worker may
attach its campaign-heartbeat snapshot to the heartbeat body; the
coordinator mirrors it into per-shard gauges on ``/v1/metrics``.  Every
mutating coordinator call runs under one lock, so the threaded server
imposes the same single-writer discipline the in-process backends get
for free.

Unknown paths and methods answer with a structured JSON 404 body
(``{"error": "not_found", "path": ..., "method": ..., "endpoints":
[...]}``) — a worker pointed at the wrong URL fails fast with a
diagnosable :class:`CoordinatorApiError` instead of burning its retry
budget against an empty reply.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..errors import ReproError
from .coordinator import Coordinator
from .shard import ShardSpec
from .worker import ShardAssignment, run_shard

#: Every route the server answers, by method (also the 404 body's
#: ``endpoints`` hint and the metrics plane's path-label vocabulary).
GET_ENDPOINTS = ("/v1/status", "/v1/metrics")
POST_ENDPOINTS = ("/v1/lease", "/v1/heartbeat", "/v1/complete", "/v1/fail")


class CoordinatorUnreachable(ReproError):
    """The coordinator did not answer within the client's retry budget."""


class CoordinatorApiError(ReproError):
    """The coordinator answered with a definitive client error (4xx) —
    retrying identically cannot succeed, so the client fails fast."""

    def __init__(self, message: str, status: int = 0,
                 body: dict | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.body = body or {}


class CoordinatorServer:
    """Threaded HTTP front-end over a :class:`Coordinator`.

    ``port=0`` binds an ephemeral port (tests, single-host campaigns).
    ``metrics`` is the :class:`~repro.service.metrics.ServiceMetrics`
    hub behind ``GET /v1/metrics``; when not given, the server builds
    its own over the coordinator so the endpoint always exists.
    """

    def __init__(self, coordinator: Coordinator, host: str = "127.0.0.1",
                 port: int = 0, metrics=None) -> None:
        self.coordinator = coordinator
        self.lock = threading.Lock()
        if metrics is None:
            from .metrics import ServiceMetrics

            metrics = ServiceMetrics(coordinator)
        self.metrics = metrics
        server = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args) -> None:  # silence per-request log
                pass

            def _reply(self, payload: dict, status: int = 200) -> None:
                body = json.dumps(payload).encode()
                self._send(body, status, "application/json")

            def _send(self, body: bytes, status: int,
                      content_type: str) -> None:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
                self._status = status

            def _not_found(self, method: str) -> None:
                endpoints = (GET_ENDPOINTS if method == "GET"
                             else POST_ENDPOINTS)
                self._reply({"error": "not_found", "path": self.path,
                             "method": method,
                             "endpoints": list(endpoints)}, 404)

            def _observed(self, method: str, handler) -> None:
                known = (GET_ENDPOINTS if method == "GET"
                         else POST_ENDPOINTS)
                label = self.path if self.path in known else "other"
                self._status = 500
                started = time.perf_counter()
                try:
                    handler()
                finally:
                    server.metrics.observe_http(
                        label, self._status,
                        time.perf_counter() - started)

            def do_GET(self) -> None:
                self._observed("GET", self._get)

            def do_POST(self) -> None:
                self._observed("POST", self._post)

            def _get(self) -> None:
                if self.path == "/v1/status":
                    with server.lock:
                        status = server.coordinator.status()
                    self._reply(status)
                    return
                if self.path == "/v1/metrics":
                    with server.lock:
                        text = server.metrics.render()
                    self._send(text.encode(), 200,
                               "text/plain; version=0.0.4; charset=utf-8")
                    return
                self._not_found("GET")

            def _post(self) -> None:
                if self.path not in POST_ENDPOINTS:
                    self._not_found("POST")
                    return
                length = int(self.headers.get("Content-Length") or 0)
                try:
                    body = json.loads(self.rfile.read(length) or b"{}")
                except json.JSONDecodeError:
                    self._reply({"error": "bad_json", "path": self.path},
                                400)
                    return
                with server.lock:
                    self._reply(server._handle(self.path, body))

        self._http = ThreadingHTTPServer((host, port), Handler)
        self._http.daemon_threads = True
        self._thread: threading.Thread | None = None

    # -- request routing (called under self.lock) -----------------------
    def _handle(self, path: str, body: dict) -> dict:
        coordinator = self.coordinator
        if path == "/v1/lease":
            lease = coordinator.lease(str(body.get("worker_id", "?")))
            delay = coordinator.next_ready_delay()
            return {"lease": lease, "finished": coordinator.finished,
                    "retry_after_s": delay if delay is not None else 0.5}
        if path == "/v1/heartbeat":
            lease_id = str(body.get("lease_id", ""))
            ok = coordinator.heartbeat(lease_id)
            snapshot = body.get("metrics")
            if ok and snapshot:
                self.metrics.ingest_worker_snapshot(
                    coordinator.leases[lease_id].shard_id, snapshot)
            return {"ok": ok}
        if path == "/v1/complete":
            return {"ok": coordinator.complete(
                str(body.get("lease_id", "")))}
        # POST_ENDPOINTS routing guarantees this is /v1/fail.
        coordinator.fail(str(body.get("lease_id", "")),
                         str(body.get("reason", "")))
        return {"ok": True}

    # -- lifecycle -------------------------------------------------------
    @property
    def url(self) -> str:
        host, port = self._http.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "CoordinatorServer":
        self._thread = threading.Thread(target=self._http.serve_forever,
                                        name="coordinator-http",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._http.shutdown()
        self._http.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


class CoordinatorClient:
    """Minimal JSON client with a bounded connect-retry budget (the
    coordinator may be restarting between a worker's polls).

    Transport faults and 5xx answers retry; a definitive 4xx answer
    raises :class:`CoordinatorApiError` immediately with the parsed
    body attached — wrong URLs and malformed requests are programming
    errors, not outages.
    """

    def __init__(self, url: str, timeout_s: float = 10.0,
                 retries: int = 5, retry_delay_s: float = 0.2) -> None:
        self.url = url.rstrip("/")
        self.timeout_s = timeout_s
        self.retries = retries
        self.retry_delay_s = retry_delay_s

    def _request(self, path: str, data: bytes | None):
        return urllib.request.Request(
            self.url + path, data=data,
            headers={"Content-Type": "application/json"},
            method="POST" if data is not None else "GET")

    def _call(self, path: str, payload: dict | None = None) -> dict:
        data = None if payload is None else json.dumps(payload).encode()
        last: Exception | None = None
        for attempt in range(self.retries + 1):
            try:
                with urllib.request.urlopen(
                        self._request(path, data),
                        timeout=self.timeout_s) as response:
                    return json.loads(response.read())
            except urllib.error.HTTPError as exc:
                if 400 <= exc.code < 500:
                    try:
                        detail = json.loads(exc.read())
                    except (json.JSONDecodeError, OSError):
                        detail = {}
                    raise CoordinatorApiError(
                        f"coordinator rejected {path}: HTTP {exc.code} "
                        f"({detail.get('error', 'no body')})",
                        status=exc.code, body=detail) from None
                last = exc
            except (urllib.error.URLError, OSError,
                    json.JSONDecodeError) as exc:
                last = exc
            time.sleep(self.retry_delay_s * (attempt + 1))
        raise CoordinatorUnreachable(
            f"coordinator at {self.url} unreachable after "
            f"{self.retries + 1} attempts: {last}")

    def lease(self, worker_id: str) -> dict:
        return self._call("/v1/lease", {"worker_id": worker_id})

    def heartbeat(self, lease_id: str, metrics: dict | None = None) -> bool:
        payload: dict = {"lease_id": lease_id}
        if metrics is not None:
            payload["metrics"] = metrics
        return bool(self._call("/v1/heartbeat", payload).get("ok"))

    def complete(self, lease_id: str) -> bool:
        return bool(self._call("/v1/complete",
                               {"lease_id": lease_id}).get("ok"))

    def fail(self, lease_id: str, reason: str = "") -> None:
        self._call("/v1/fail", {"lease_id": lease_id, "reason": reason})

    def status(self) -> dict:
        return self._call("/v1/status")

    def metrics_text(self) -> str:
        """Scrape ``/v1/metrics`` (raw Prometheus text, not JSON)."""
        last: Exception | None = None
        for attempt in range(self.retries + 1):
            try:
                with urllib.request.urlopen(
                        self._request("/v1/metrics", None),
                        timeout=self.timeout_s) as response:
                    return response.read().decode("utf-8")
            except urllib.error.HTTPError as exc:
                raise CoordinatorApiError(
                    f"coordinator rejected /v1/metrics: HTTP {exc.code}",
                    status=exc.code) from None
            except (urllib.error.URLError, OSError) as exc:
                last = exc
            time.sleep(self.retry_delay_s * (attempt + 1))
        raise CoordinatorUnreachable(
            f"coordinator at {self.url} unreachable after "
            f"{self.retries + 1} attempts: {last}")


def run_polling_worker(url: str, worker_id: str, *,
                       poll_interval_s: float = 0.5,
                       heartbeat_interval_s: float = 1.0,
                       fsync_interval: int = 1,
                       max_idle_polls: int | None = None,
                       progress: bool = False) -> int:
    """Worker main loop for the HTTP backend: poll for a lease, run the
    shard (heartbeating in the background), report completion/failure;
    exit 0 once the coordinator reports the campaign finished.

    A revoked lease (heartbeat answered ``ok: false``) aborts the shard
    mid-flight — the journal keeps what was measured and whichever
    worker reclaims the shard resumes from it.  Each liveness heartbeat
    carries the worker's current telemetry snapshot, which the
    coordinator republishes as per-shard gauges on ``/v1/metrics``.
    """
    client = CoordinatorClient(url)
    idle = 0
    while True:
        reply = client.lease(worker_id)
        lease = reply.get("lease")
        if lease is None:
            if reply.get("finished"):
                return 0
            idle += 1
            if max_idle_polls is not None and idle >= max_idle_polls:
                return 0
            time.sleep(min(float(reply.get("retry_after_s") or 0.0)
                           or poll_interval_s, poll_interval_s * 4))
            continue
        idle = 0
        assignment = ShardAssignment(
            shard=ShardSpec.from_dict(lease["shard"]),
            journal_path=lease["journal_path"],
            lease_id=lease["lease_id"],
            heartbeat_path=lease.get("heartbeat_path"),
            fsync_interval=fsync_interval,
            heartbeat_interval_s=heartbeat_interval_s)
        if progress:
            print(f"[{worker_id}] leased shard "
                  f"{assignment.shard.shard_id} "
                  f"({assignment.shard.trials} trials)", flush=True)
        revoked = threading.Event()
        stop = threading.Event()
        # The telemetry heartbeat exists before the beater thread so
        # every liveness beat can attach a snapshot (path=None when the
        # coordinator did not ask for a heartbeat file — the snapshots
        # still flow over HTTP).
        from ..obs import CampaignHeartbeat

        heartbeat = CampaignHeartbeat(
            assignment.heartbeat_path or None, assignment.shard.trials,
            interval=heartbeat_interval_s,
            shard_id=assignment.shard.shard_id,
            worker_id=worker_id).start()

        def beat(lease_id=assignment.lease_id,
                 heartbeat=heartbeat) -> None:
            while not stop.wait(heartbeat_interval_s):
                try:
                    if not client.heartbeat(lease_id,
                                            metrics=heartbeat.snapshot()):
                        revoked.set()
                        return
                except (CoordinatorUnreachable, CoordinatorApiError):
                    revoked.set()
                    return

        beater = threading.Thread(target=beat, daemon=True,
                                  name=f"heartbeat-{assignment.lease_id}")
        beater.start()
        try:
            run_shard(assignment, should_abort=revoked.is_set,
                      heartbeat=heartbeat)
        except Exception as exc:  # infra fault: report and keep polling
            try:
                client.fail(assignment.lease_id,
                            f"{type(exc).__name__}: {exc}")
            except CoordinatorUnreachable:
                pass
            continue
        finally:
            stop.set()
            beater.join(timeout=heartbeat_interval_s + 1.0)
            heartbeat.stop()
        if not revoked.is_set():
            client.complete(assignment.lease_id)


__all__ = ["CoordinatorApiError", "CoordinatorClient", "CoordinatorServer",
           "CoordinatorUnreachable", "GET_ENDPOINTS", "POST_ENDPOINTS",
           "run_polling_worker"]
