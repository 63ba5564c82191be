"""The HTTP face of the triangle-analytics service.

A deliberately small stack: :class:`http.server.ThreadingHTTPServer` (one
thread per connection, stdlib only) plus an explicit route table mapping
``(method, path pattern)`` to handler methods on :class:`TriangleService`.
The service owns a :class:`~repro.service.jobs.JobManager` and translates
between HTTP and the manager's exceptions -- every
:class:`~repro.service.protocol.ServiceError` becomes its status code and
JSON envelope, everything else a 500.

Routes (all responses are JSON unless noted)::

    GET    /health                     liveness probe
    GET    /v1/stats                   manager counters + segment stats
    GET    /v1/graphs                  registered graphs
    POST   /v1/graphs                  register a graph (idempotent)
    GET    /v1/graphs/{id}             one graph
    DELETE /v1/graphs/{id}             drop a graph, release its engine
    POST   /v1/graphs/{id}/jobs        submit a count/enum query
    GET    /v1/jobs                    jobs (in-memory) + stored artifacts
    GET    /v1/jobs/{id}               one job
    GET    /v1/jobs/{id}/events        server-sent events (text/event-stream)
    GET    /v1/jobs/{id}/triangles     cursor-paginated triangle pages

The SSE endpoint replays the job's full event log from ``Last-Event-ID``
(or the ``after`` query parameter), then follows it live, emitting ``:``
comment heartbeats while idle, and closes after the terminal event.  The
pagination endpoint serves slices of the job's stored triangle list with
opaque cursors minted by :mod:`repro.service.protocol`.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable
from urllib.parse import parse_qs, urlsplit

from repro.experiments.store import ResultStore
from repro.poolexec import segment_stats
from repro.service.jobs import SERVICE_TASK, JobManager
from repro.service.protocol import (
    DEFAULT_PAGE_LIMIT,
    MAX_PAGE_LIMIT,
    SERVICE_SCHEMA,
    ServiceError,
    as_int,
    decode_cursor,
    encode_cursor,
    not_found,
    sse_event,
)

#: Longest a request body may be, guarding the single-threaded JSON parse
#: (64 MiB of edges is far beyond anything the simulator handles anyway).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Seconds an idle SSE subscriber waits before a ``:`` heartbeat comment.
SSE_HEARTBEAT_SECONDS = 5.0

_ROUTES: list[tuple[str, re.Pattern[str], str]] = [
    ("GET", re.compile(r"^/health$"), "handle_health"),
    ("GET", re.compile(r"^/v1/stats$"), "handle_stats"),
    ("GET", re.compile(r"^/v1/graphs$"), "handle_graphs_index"),
    ("POST", re.compile(r"^/v1/graphs$"), "handle_graphs_create"),
    ("GET", re.compile(r"^/v1/graphs/(?P<graph_id>[0-9a-f]{16})$"), "handle_graph_get"),
    ("DELETE", re.compile(r"^/v1/graphs/(?P<graph_id>[0-9a-f]{16})$"), "handle_graph_delete"),
    ("POST", re.compile(r"^/v1/graphs/(?P<graph_id>[0-9a-f]{16})/jobs$"), "handle_job_submit"),
    ("GET", re.compile(r"^/v1/jobs$"), "handle_jobs_index"),
    ("GET", re.compile(r"^/v1/jobs/(?P<job_id>[0-9a-f]{16})$"), "handle_job_get"),
    ("GET", re.compile(r"^/v1/jobs/(?P<job_id>[0-9a-f]{16})/events$"), "handle_job_events"),
    (
        "GET",
        re.compile(r"^/v1/jobs/(?P<job_id>[0-9a-f]{16})/triangles$"),
        "handle_job_triangles",
    ),
]


class _Handler(BaseHTTPRequestHandler):
    """Per-connection glue: parse, route, serialise; logic lives on the service."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1"
    service: "TriangleService"  # injected by the subclass TriangleService builds

    # -- plumbing -------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:
        if self.service.verbose:
            super().log_message(format, *args)

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise ServiceError(
                f"request body exceeds {MAX_BODY_BYTES} bytes", status=413, code="body_too_large"
            )
        if length == 0:
            return None
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except ValueError:
            raise ServiceError("request body is not valid JSON", code="bad_json") from None

    def _send_json(self, document: dict[str, Any], status: int = 200) -> None:
        body = json.dumps({"schema": SERVICE_SCHEMA, **document}, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _dispatch(self, method: str) -> None:
        self.service.count_request()
        url = urlsplit(self.path)
        query = {key: values[-1] for key, values in parse_qs(url.query).items()}
        try:
            for route_method, pattern, handler_name in _ROUTES:
                if route_method != method:
                    continue
                match = pattern.match(url.path)
                if match is None:
                    continue
                handler: Callable[..., None] = getattr(self.service, handler_name)
                handler(self, query, **match.groupdict())
                return
            raise not_found("route", f"{method} {url.path}")
        except ServiceError as error:
            self._send_json(error.to_json(), status=error.status)
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True
        except Exception as error:  # defensive: one bad request must not kill the thread
            self._send_json(
                {"error": {"code": "internal", "message": f"{type(error).__name__}: {error}"}},
                status=500,
            )

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def do_DELETE(self) -> None:
        self._dispatch("DELETE")


class TriangleService:
    """The server object ``repro serve`` runs: manager + HTTP front end.

    Parameters mirror the CLI flags; ``port=0`` asks the OS for a free
    port (read the chosen one back from :attr:`port` -- tests and the
    load-test harness rely on this).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        *,
        store: ResultStore | None = None,
        pool: str = "persistent",
        max_workers: int = 4,
        verbose: bool = False,
    ) -> None:
        self.manager = JobManager(store=store, pool=pool, max_workers=max_workers)
        self.verbose = verbose
        # Handler threads bump the counter concurrently: guarded by ``_request_lock``.
        self.request_count = 0
        self._request_lock = threading.Lock()
        self._closed = False
        self._serve_thread: threading.Thread | None = None

        service = self

        class BoundHandler(_Handler):
            pass

        BoundHandler.service = service

        class BoundServer(ThreadingHTTPServer):
            daemon_threads = True
            # Default backlog (5) makes a burst of concurrent connects hit
            # SYN retransmission (+1s latency); size it for a client fleet.
            request_queue_size = 128

        self.httpd = BoundServer((host, port), BoundHandler)

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle ------------------------------------------------------
    def serve_forever(self) -> None:
        """Block serving requests (until :meth:`close` from another thread)."""
        self.httpd.serve_forever(poll_interval=0.1)

    def start(self) -> None:
        """Serve on a background thread (tests, load harness, signal-driven CLI)."""
        self._serve_thread = threading.Thread(
            target=self.serve_forever, name="repro-serve", daemon=True
        )
        self._serve_thread.start()

    def close(self, drain_timeout: float | None = 30.0) -> None:
        """Graceful shutdown: stop accepting, drain jobs, release engines.

        Idempotent.  The persistent worker pool is process-owned and torn
        down by the CLI layer (it may be shared with other engines in the
        same process, e.g. an in-process load test).
        """
        if self._closed:
            return
        self._closed = True
        self.httpd.shutdown()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=10.0)
        self.httpd.server_close()
        self.manager.close(drain_timeout=drain_timeout)

    def __enter__(self) -> "TriangleService":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def count_request(self) -> None:
        """Count one HTTP request (called from every handler thread)."""
        with self._request_lock:
            self.request_count += 1

    # -- endpoints ------------------------------------------------------
    def handle_health(self, request: _Handler, query: dict[str, str]) -> None:
        request._send_json({"status": "ok"})

    def handle_stats(self, request: _Handler, query: dict[str, str]) -> None:
        with self._request_lock:
            requests = self.request_count
        request._send_json(
            {
                "manager": self.manager.stats(),
                "segments": segment_stats(),
                "requests": requests,
            }
        )

    def handle_graphs_index(self, request: _Handler, query: dict[str, str]) -> None:
        request._send_json({"graphs": self.manager.describe_graphs()})

    def handle_graphs_create(self, request: _Handler, query: dict[str, str]) -> None:
        entry, created = self.manager.register_graph(request._read_body())
        request._send_json(
            {"graph": self.manager.describe_graph(entry.graph_id), "created": created},
            status=201 if created else 200,
        )

    def handle_graph_get(self, request: _Handler, query: dict[str, str], graph_id: str) -> None:
        request._send_json({"graph": self.manager.describe_graph(graph_id)})

    def handle_graph_delete(self, request: _Handler, query: dict[str, str], graph_id: str) -> None:
        self.manager.drop_graph(graph_id)
        request._send_json({"dropped": graph_id})

    def handle_job_submit(self, request: _Handler, query: dict[str, str], graph_id: str) -> None:
        job, created = self.manager.submit(graph_id, request._read_body())
        status = 202 if created else 200
        request._send_json({"job": job.summary(), "created": created}, status=status)

    def handle_jobs_index(self, request: _Handler, query: dict[str, str]) -> None:
        """Live jobs plus artifacts persisted by earlier server processes."""
        live = [job.summary() for job in self.manager.jobs()]
        live_ids = {job["id"] for job in live}
        stored = []
        if self.manager.store is not None:
            for artifact in self.manager.store.list():
                if artifact.get("task") != SERVICE_TASK:
                    continue
                if artifact.get("spec_hash") in live_ids:
                    continue
                stored.append(
                    {
                        "id": artifact.get("spec_hash"),
                        "state": "done",
                        "source": "store",
                        "query": artifact.get("payload"),
                        "result": {
                            key: value
                            for key, value in artifact["result"].items()
                            if key != "triangle_list"
                        },
                    }
                )
        request._send_json({"jobs": live, "stored": stored})

    def handle_job_get(self, request: _Handler, query: dict[str, str], job_id: str) -> None:
        request._send_json({"job": self.manager.job(job_id).summary()})

    def handle_job_events(self, request: _Handler, query: dict[str, str], job_id: str) -> None:
        """Stream the job's event log as server-sent events until terminal.

        The stream replays history first (from ``Last-Event-ID``/``after``
        when resuming), so subscribing to an already-finished job yields
        its whole story and closes immediately -- no race between finishing
        and subscribing.
        """
        job = self.manager.job(job_id)
        last_id = request.headers.get("Last-Event-ID") or query.get("after")
        index = 0
        if last_id is not None:
            index = (as_int(last_id, "Last-Event-ID", minimum=0) or 0) + 1
        request.send_response(200)
        request.send_header("Content-Type", "text/event-stream")
        request.send_header("Cache-Control", "no-cache")
        request.send_header("Connection", "close")
        request.end_headers()
        request.close_connection = True
        try:
            while True:
                events = job.events_since(index, timeout=SSE_HEARTBEAT_SECONDS)
                if not events:
                    if self._closed:
                        return
                    request.wfile.write(b": heartbeat\n\n")
                    request.wfile.flush()
                    continue
                for event_index, event, data in events:
                    request.wfile.write(sse_event(event, data, event_id=event_index))
                    index = event_index + 1
                request.wfile.flush()
                if job.terminal and index >= job.event_count:
                    return
        except (BrokenPipeError, ConnectionResetError):
            return

    def handle_job_triangles(self, request: _Handler, query: dict[str, str], job_id: str) -> None:
        """One cursor page of the job's stored triangles.

        ``limit`` caps the page size (clamped to :data:`MAX_PAGE_LIMIT`);
        ``cursor`` continues a previous page.  ``next_cursor`` is ``None``
        on the final page.  409 for a job that has not finished, 404 for a
        count-mode job (it stored no triangles).
        """
        job = self.manager.job(job_id)
        if not job.terminal:
            raise ServiceError(
                f"job {job_id} is still {job.state}; triangles are paged after completion",
                status=409,
                code="job_not_finished",
            )
        if job.triangles is None:
            raise ServiceError(
                f"job {job_id} stored no triangles (mode={job.query.get('mode')!r})",
                status=404,
                code="no_triangles",
            )
        limit = as_int(
            query.get("limit"),
            "limit",
            default=DEFAULT_PAGE_LIMIT,
            minimum=1,
            maximum=MAX_PAGE_LIMIT,
        )
        offset = 0
        cursor = query.get("cursor")
        if cursor is not None:
            offset = decode_cursor(cursor, job_id)
        page = job.triangles[offset : offset + limit]
        next_offset = offset + len(page)
        has_more = next_offset < len(job.triangles)
        request._send_json(
            {
                "job": job_id,
                "offset": offset,
                "total": len(job.triangles),
                "triangles": [list(triangle) for triangle in page],
                "next_cursor": encode_cursor(job_id, next_offset) if has_more else None,
            }
        )
