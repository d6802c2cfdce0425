"""Dependency-free live metrics endpoint for in-flight runs.

:class:`MetricsServer` wraps a stdlib ``ThreadingHTTPServer`` on a
daemon thread and serves three routes:

- ``/metrics`` — the registry in the Prometheus text exposition
  format, with the format's versioned ``Content-Type``, scrapeable by
  a stock Prometheus;
- ``/healthz`` — a small JSON liveness document (run phase, rows/sec)
  with a 200/503 status split on run failure;
- ``/runs/<run_id>`` — the full JSON snapshot of the identified run
  (404 for an unknown id).

Hardening: every accepted connection gets a per-socket timeout
(:attr:`MetricsServer.connection_timeout`), so a client that connects
and then never sends a request — or stops reading mid-response —
stalls only its own handler thread briefly instead of wedging
``/healthz`` for every other scraper; and non-GET methods are answered
with ``405`` plus an ``Allow`` header instead of the stdlib's ``501``.

The server binds before the constructor returns (``port=0`` picks an
ephemeral port, exposed as :attr:`port`), so tests and scripts can
scrape immediately.  :meth:`close` shuts the listener down and joins
the thread; the object is also a context manager, and `repro.mine`
closes it on run completion and on SIGTERM via
:func:`repro.runtime.guards.graceful_interrupts`.

All request routing funnels through :meth:`MetricsServer.
handle_request` — subclasses (the job API of :class:`repro.service.
server.ServiceServer`) override it to add routes and methods while
inheriting the listener, the timeout discipline and the close
semantics.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from repro.observe.live import LiveRunStatus
from repro.observe.metrics import MetricsRegistry

#: The Prometheus text exposition format's content type.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Bucket bounds (seconds) for the HTTP request-duration histogram.
REQUEST_SECONDS_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0, 60.0,
)

#: First path segments whose requests get a real route label; anything
#: else collapses to ``<other>`` so hostile paths cannot explode the
#: ``route`` label's cardinality.
KNOWN_ROUTE_HEADS = ("metrics", "healthz", "runs", "jobs")

#: Literal sub-resource segments preserved in route labels (an id
#: segment between them is replaced by ``<id>``).
ROUTE_TAILS = ("trace", "result", "deltas")


def route_label(path: str) -> str:
    """Collapse a request path to a bounded route pattern.

    ``/jobs/job-1b2c/result`` becomes ``/jobs/<id>/result`` — the
    label RED metrics aggregate under.  Unknown route families fold to
    ``<other>``; raw paths never become label values.
    """
    path = path.split("?", 1)[0]
    segments = [segment for segment in path.split("/") if segment]
    if not segments:
        return "/"
    if segments[0] not in KNOWN_ROUTE_HEADS:
        return "<other>"
    pattern = [segments[0]]
    for segment in segments[1:]:
        pattern.append(segment if segment in ROUTE_TAILS else "<id>")
    return "/" + "/".join(pattern)

#: A ``handle_request`` return value:
#: ``(status, content_type, body_bytes, extra_headers)``.
Response = Tuple[int, str, bytes, Optional[Dict[str, str]]]


def json_response(
    code: int, document, headers: Optional[Dict[str, str]] = None
) -> Response:
    """Build a JSON :data:`Response`."""
    return (
        code,
        "application/json",
        json.dumps(document).encode("utf-8"),
        headers,
    )


class MetricsServer:
    """Serve live metrics for one process's runs.

    ``registry`` is scraped by ``/metrics``; ``status`` (optional)
    feeds ``/healthz`` and is looked up by ``/runs/<run_id>``.
    """

    #: Seconds an accepted connection may sit idle (no request bytes,
    #: or a stalled read of our response) before its socket times out
    #: and the handler thread moves on.  One misbehaving client must
    #: never wedge the other scrapers.
    connection_timeout: float = 30.0

    #: HTTP methods this server answers; everything else gets ``405``
    #: with an ``Allow`` header listing these.
    allow_methods: Tuple[str, ...] = ("GET",)

    def __init__(
        self,
        registry: MetricsRegistry,
        port: int = 0,
        host: str = "127.0.0.1",
        status: Optional[LiveRunStatus] = None,
        connection_timeout: Optional[float] = None,
        journal=None,
    ) -> None:
        self.registry = registry
        self.status = status
        #: Optional :class:`~repro.observe.journal.RunJournal` the
        #: per-request access-log events are emitted to.
        self.journal = journal
        #: Per-handler-thread request context (the current request id).
        self._request_context = threading.local()
        if connection_timeout is not None:
            self.connection_timeout = connection_timeout
        server = self

        class Handler(BaseHTTPRequestHandler):
            # socketserver applies this to the connection in setup();
            # a timed-out read surfaces as socket.timeout and closes
            # just this connection.
            timeout = server.connection_timeout

            def log_message(self, format, *args):  # noqa: A002
                pass  # no access-log noise on stderr

            def _send(self, code, content_type, body: bytes,
                      headers: Optional[Dict[str, str]] = None) -> None:
                self.send_response(code)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                for name, value in (headers or {}).items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(body)

            def _dispatch(self, method: str) -> None:
                try:
                    body = b""
                    length = self.headers.get("Content-Length")
                    if length:
                        body = self.rfile.read(int(length))
                    code, content_type, payload, headers = (
                        server.dispatch_request(
                            method, self.path, body, self.headers
                        )
                    )
                    self._send(code, content_type, payload, headers)
                except (
                    BrokenPipeError,
                    ConnectionResetError,
                    socket.timeout,
                ):
                    pass  # client went away or stalled mid-exchange
                except ValueError:
                    try:
                        self._send(
                            400, "application/json",
                            b'{"error": "malformed request"}',
                        )
                    except OSError:
                        pass

            def do_GET(self):  # noqa: N802
                self._dispatch("GET")

            def do_POST(self):  # noqa: N802
                self._dispatch("POST")

            def do_PUT(self):  # noqa: N802
                self._dispatch("PUT")

            def do_PATCH(self):  # noqa: N802
                self._dispatch("PATCH")

            def do_DELETE(self):  # noqa: N802
                self._dispatch("DELETE")

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-metrics-server",
            daemon=True,
        )
        self._thread.start()
        self.closed = False

    @property
    def url(self) -> str:
        """Base URL of the listener (e.g. ``http://127.0.0.1:8321``)."""
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # Request-scoped instrumentation
    # ------------------------------------------------------------------

    def current_request_id(self) -> Optional[str]:
        """The ``X-Request-Id`` of the request this thread is serving."""
        return getattr(self._request_context, "request_id", None)

    def resolve_tenant(self, method: str, path: str, body: bytes) -> str:
        """The tenant label for a request; ``"-"`` when unknown.

        The base metrics server is tenantless; the job API overrides
        this to attribute each request to the owning tenant.
        """
        return "-"

    def dispatch_request(
        self, method: str, path: str, body: bytes, headers=None
    ) -> Response:
        """Instrumented request entry point (the HTTP handler's path).

        Mints a request id — or echoes an incoming ``X-Request-Id``
        header verbatim — before routing, holds it in a thread-local
        so route handlers can stamp it onto whatever they create (a
        submitted job's ``trace_id``), then records the RED metrics
        and the access-log journal event and echoes the id back as a
        response header.  ``handle_request`` stays the plain routing
        seam tests and subclasses use directly.
        """
        request_id = None
        if headers is not None:
            request_id = headers.get("X-Request-Id")
        if not request_id:
            request_id = uuid.uuid4().hex[:16]
        request_id = str(request_id).strip()[:128] or uuid.uuid4().hex[:16]
        self._request_context.request_id = request_id
        started = time.perf_counter()
        status_code = 500
        try:
            response = self.handle_request(method, path, body)
            status_code = response[0]
        except ValueError:
            status_code = 400
            raise
        finally:
            duration = time.perf_counter() - started
            self.record_request(
                method, path, status_code, duration, request_id, body
            )
            self._request_context.request_id = None
        code, content_type, payload, extra = response
        merged = dict(extra or {})
        merged.setdefault("X-Request-Id", request_id)
        return code, content_type, payload, merged

    def record_request(
        self,
        method: str,
        path: str,
        status: int,
        duration: float,
        request_id: str,
        body: bytes = b"",
    ) -> None:
        """Fold one served request into RED metrics and the journal."""
        route = route_label(path)
        try:
            tenant = self.resolve_tenant(method, path, body)
        except Exception:
            tenant = "-"
        prefix = self.registry.prefix
        self.registry.counter(
            f"{prefix}_http_requests_total",
            "HTTP requests served, by route/method/status/tenant.",
            route=route, method=method, status=str(int(status)),
            tenant=tenant,
        ).inc()
        self.registry.histogram(
            f"{prefix}_http_request_seconds",
            "Wall-clock seconds spent handling HTTP requests.",
            buckets=REQUEST_SECONDS_BUCKETS, route=route,
        ).observe(duration)
        journal = self.journal
        if journal is not None:
            journal.emit(
                "http-request",
                method=method,
                route=route,
                status=int(status),
                duration_ms=round(duration * 1000.0, 3),
                tenant=tenant,
                request_id=request_id,
            )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def handle_request(self, method: str, path: str, body: bytes) -> Response:
        """Route one request; subclasses override to add routes.

        Returns ``(status, content_type, body, extra_headers)``.  The
        base server is read-only: any non-GET method is ``405``.
        """
        if method != "GET":
            return self.method_not_allowed()
        return self.handle_get(path)

    def method_not_allowed(self) -> Response:
        """The ``405`` response, carrying the ``Allow`` header."""
        return json_response(
            405,
            {"error": "method not allowed",
             "allow": list(self.allow_methods)},
            headers={"Allow": ", ".join(self.allow_methods)},
        )

    def handle_get(self, path: str) -> Response:
        """The read-only routes every server variant carries."""
        if path == "/metrics":
            return (
                200,
                PROMETHEUS_CONTENT_TYPE,
                self.registry.to_prometheus().encode("utf-8"),
                None,
            )
        if path == "/healthz":
            code, document = self.health()
            return json_response(code, document)
        if path.startswith("/runs/"):
            run_id = path[len("/runs/"):]
            status = self.status
            if status is None or status.run_id != run_id:
                return json_response(
                    404, {"error": "unknown run", "run_id": run_id}
                )
            return json_response(200, status.snapshot())
        return (
            404,
            "text/plain; charset=utf-8",
            b"repro: /metrics /healthz /runs/<run_id>\n",
            None,
        )

    def health(self):
        """The ``/healthz`` response as ``(status_code, document)``."""
        status = self.status
        if status is None:
            return 200, {"status": "ok", "run": None}
        document = {
            "status": "failed" if status.failed else "ok",
            "run_id": status.run_id,
            "phase": status.phase,
            "finished": status.finished,
            "rows_scanned": status.rows_scanned,
            "rows_per_second": status.rows_per_second(),
        }
        return (503 if status.failed else 200), document

    def close(self) -> None:
        """Stop serving and join the listener thread (idempotent)."""
        if self.closed:
            return
        self.closed = True
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "MetricsServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "serving"
        return f"MetricsServer({self.url}, {state})"
