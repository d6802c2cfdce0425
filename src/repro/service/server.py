"""The job API: HTTP routes of the mining service.

:class:`ServiceServer` extends the read-only
:class:`~repro.observe.server.MetricsServer` (keeping ``/metrics``,
``/healthz`` and the connection hardening) with the job lifecycle::

    POST   /jobs                 submit a declarative job spec
    GET    /jobs[?tenant=T]      list jobs (optionally one tenant's)
    GET    /jobs/<id>[?wait=S]   one job's state document (``wait``
                                 long-polls up to S seconds until the
                                 job leaves queued/running)
    GET    /jobs/<id>/result     the committed result (409 until done;
                                 a live job answers with its current
                                 rule set)
    POST   /jobs/<id>/deltas     ingest one delta batch into a live job
    DELETE /jobs/<id>            cancel (idempotent on terminal jobs)

Status mapping: a malformed spec is ``400``; an unknown job is
``404``; asking for the result of an unfinished job is ``409`` (the
state document says why); a quota or disk rejection is ``429`` with a
``Retry-After`` header when backing off can help; a draining service
refuses new work with ``503``.  Delta ingestion adds: ``202`` for a
fresh commit (``200`` when the batch is a duplicate or was applied
synchronously via ``"wait": true``), ``409`` for sequence-discipline
violations (out-of-order, payload mismatch, closed session) and
``429`` + ``Retry-After`` when the WAL backlog is at the cap.

The server holds no job state of its own — every route delegates to
the owning :class:`repro.service.MiningService`, so the HTTP layer
can be torn down and rebuilt (or never started, as in the crash-point
tests) without touching the durable index.
"""

from __future__ import annotations

import json
import time
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from repro.live.wal import DeltaLogError, DeltaMismatch, OutOfOrderDelta
from repro.observe.exporters import trace_to_chrome
from repro.observe.server import MetricsServer, Response, json_response
from repro.service.jobs import DONE, QUEUED, RUNNING, JobRecord
from repro.service.quotas import AdmissionError

#: Hard cap on one long-poll's duration, whatever the client asks.
MAX_WAIT_SECONDS = 60.0

#: How often a long-poll re-reads the job state.
WAIT_POLL_SECONDS = 0.05


def job_document(record: JobRecord) -> dict:
    """The public JSON view of one job."""
    return {
        "job_id": record.job_id,
        "tenant": record.tenant,
        "state": record.state,
        "attempts": record.attempts,
        "created_at": record.created_at,
        "updated_at": record.updated_at,
        "error": record.error,
        "rules": record.rules,
        "spec": record.spec.to_mapping(),
        "history": [list(entry) for entry in record.history],
    }


class ServiceServer(MetricsServer):
    """HTTP front end of one :class:`repro.service.MiningService`."""

    allow_methods = ("GET", "POST", "DELETE")

    def __init__(self, registry, service, port: int = 0,
                 host: str = "127.0.0.1",
                 connection_timeout: Optional[float] = None) -> None:
        self.service = service
        super().__init__(
            registry, port=port, host=host,
            connection_timeout=connection_timeout,
            journal=service.journal,
        )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def handle_request(self, method: str, path: str, body: bytes) -> Response:
        parts = urlsplit(path)
        segments = [s for s in parts.path.split("/") if s]
        if segments[:1] == ["jobs"]:
            return self.handle_jobs(method, segments[1:], parts.query, body)
        if method != "GET":
            return self.method_not_allowed()
        return self.handle_get(path)

    def handle_jobs(
        self, method: str, segments, query: str, body: bytes
    ) -> Response:
        if method == "POST" and not segments:
            return self.submit(body)
        if method == "GET" and not segments:
            tenants = parse_qs(query).get("tenant")
            return self.list_jobs(tenants[0] if tenants else None)
        if method == "GET" and len(segments) == 1:
            return self.get_job(segments[0], query)
        if method == "GET" and len(segments) == 2 and segments[1] == "result":
            return self.get_result(segments[0])
        if method == "POST" and len(segments) == 2 and segments[1] == "deltas":
            return self.post_delta(segments[0], body)
        if method == "DELETE" and len(segments) == 1:
            return self.cancel_job(segments[0])
        if method not in self.allow_methods:
            return self.method_not_allowed()
        return json_response(404, {"error": "unknown job route"})

    # ------------------------------------------------------------------
    # Job routes
    # ------------------------------------------------------------------

    def submit(self, body: bytes) -> Response:
        try:
            document = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return json_response(400, {"error": "body must be a JSON object"})
        if isinstance(document, dict) and not document.get("trace_id"):
            # Stamp the request's identity onto the spec: every span
            # the job ever produces — scheduler attempts, worker
            # payloads, live delta applies — then
            # carries the X-Request-Id that submitted it.
            request_id = self.current_request_id()
            if request_id:
                document = dict(document)
                document["trace_id"] = request_id
        try:
            record, created = self.service.submit(document)
        except AdmissionError as rejection:
            self.service.reject_event(rejection)
            headers = None
            if rejection.retry_after is not None:
                headers = {"Retry-After": str(rejection.retry_after)}
            return json_response(
                rejection.status,
                {"error": rejection.reason, "kind": rejection.kind},
                headers=headers,
            )
        except ValueError as error:
            return json_response(400, {"error": str(error)})
        return json_response(
            201 if created else 200, self._document(record)
        )

    def list_jobs(self, tenant: Optional[str]) -> Response:
        records = self.service.list_jobs(tenant)
        return json_response(
            200,
            {
                "jobs": [job_document(record) for record in records],
                "tenant": tenant,
            },
        )

    def _document(self, record: JobRecord) -> dict:
        """The job document, enriched with live-session state."""
        document = job_document(record)
        session = self.service.live_session(record.job_id)
        if session is not None:
            document["live"] = session.snapshot()
        return document

    def get_job(self, job_id: str, query: str = "") -> Response:
        record = self.service.get_job(job_id)
        if record is None:
            return json_response(
                404, {"error": "unknown job", "job_id": job_id}
            )
        wait_values = parse_qs(query).get("wait")
        if wait_values:
            try:
                wait = float(wait_values[0])
            except ValueError:
                return json_response(
                    400, {"error": "wait must be a number of seconds"}
                )
            # Long-poll: hold the request until the job leaves the
            # queued/running states or the (capped) wait elapses; the
            # response is the job document either way, so the caller
            # just inspects ``state``.
            deadline = time.monotonic() + max(
                0.0, min(wait, MAX_WAIT_SECONDS)
            )
            while (
                record is not None
                and record.state in (QUEUED, RUNNING)
                and time.monotonic() < deadline
            ):
                time.sleep(WAIT_POLL_SECONDS)
                record = self.service.get_job(job_id)
            if record is None:  # pragma: no cover — index never drops
                return json_response(
                    404, {"error": "unknown job", "job_id": job_id}
                )
        return json_response(200, self._document(record))

    def get_result(self, job_id: str) -> Response:
        record = self.service.get_job(job_id)
        if record is None:
            return json_response(
                404, {"error": "unknown job", "job_id": job_id}
            )
        session = self.service.live_session(job_id)
        if session is not None:
            # A live job has no final result; answer with the rule
            # set the session holds right now.
            return json_response(200, session.rules_document())
        if record.state != DONE:
            return json_response(
                409,
                {
                    "error": f"job is {record.state}, result not available",
                    "job_id": job_id,
                    "state": record.state,
                },
            )
        return (
            200,
            "application/json",
            self.service.read_result(job_id).encode("utf-8"),
            None,
        )

    def post_delta(self, job_id: str, body: bytes) -> Response:
        try:
            document = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return json_response(400, {"error": "body must be a JSON object"})
        try:
            receipt = self.service.submit_delta(job_id, document)
        except KeyError:
            return json_response(
                404, {"error": "unknown job", "job_id": job_id}
            )
        except OutOfOrderDelta as error:
            return json_response(
                409,
                {
                    "error": str(error), "kind": "out-of-order",
                    "seq": error.seq, "expected": error.expected,
                },
            )
        except DeltaMismatch as error:
            return json_response(
                409,
                {"error": str(error), "kind": "mismatch", "seq": error.seq},
            )
        except DeltaLogError as error:
            return json_response(
                409, {"error": str(error), "kind": "conflict"}
            )
        except AdmissionError as rejection:
            self.service.reject_event(rejection)
            headers = None
            if rejection.retry_after is not None:
                headers = {"Retry-After": str(rejection.retry_after)}
            return json_response(
                rejection.status,
                {"error": rejection.reason, "kind": rejection.kind},
                headers=headers,
            )
        except ValueError as error:
            return json_response(400, {"error": str(error)})
        status = 202 if receipt.status == "committed" else 200
        if receipt.applied_seq >= receipt.seq:
            status = 200  # applied synchronously (wait or duplicate)
        return json_response(
            status,
            {
                "job_id": job_id,
                "seq": receipt.seq,
                "status": receipt.status,
                "watermark": receipt.watermark,
                "applied_seq": receipt.applied_seq,
                "rows": receipt.rows,
                "appeared": receipt.appeared,
                "disappeared": receipt.disappeared,
                "n_rules": receipt.n_rules,
            },
        )

    def cancel_job(self, job_id: str) -> Response:
        state = self.service.cancel_job(job_id)
        if state is None:
            return json_response(
                404, {"error": "unknown job", "job_id": job_id}
            )
        return json_response(200, {"job_id": job_id, "state": state})

    # ------------------------------------------------------------------
    # Live run pages
    # ------------------------------------------------------------------

    def handle_get(self, path: str) -> Response:
        # ``/runs/<job_id>`` of an open live session is served from
        # the session's status; everything else (metrics, healthz,
        # the batch run page) falls through to the metrics server.
        segments = [s for s in urlsplit(path).path.split("/") if s]
        if (
            len(segments) == 3
            and segments[0] == "runs"
            and segments[2] == "trace"
        ):
            return self.get_trace(segments[1])
        if len(segments) == 2 and segments[0] == "runs":
            session = self.service.live_session(segments[1])
            if session is not None:
                return json_response(200, session.snapshot())
        return super().handle_get(path)

    def get_trace(self, job_id: str) -> Response:
        """``/runs/<id>/trace``: the archived span tree as Chrome JSON.

        The document loads directly in ``chrome://tracing`` and
        Perfetto; 404 until the first attempt has archived its spans.
        """
        archive = self.service.read_trace(job_id)
        if archive is None:
            return json_response(
                404, {"error": "no trace archived", "job_id": job_id}
            )
        return json_response(200, trace_to_chrome(archive))

    # ------------------------------------------------------------------
    # Request attribution
    # ------------------------------------------------------------------

    def resolve_tenant(self, method: str, path: str, body: bytes) -> str:
        """Attribute a request to the owning tenant for RED metrics.

        Job-scoped routes resolve through the index; a submit parses
        its own body (the job does not exist yet); list routes use the
        ``?tenant=`` filter.  Anything unattributable is ``"-"`` —
        never a guess, never an unbounded raw value.
        """
        parts = urlsplit(path)
        segments = [s for s in parts.path.split("/") if s]
        if segments[:1] != ["jobs"]:
            return "-"
        if len(segments) >= 2:
            record = self.service.get_job(segments[1])
            return record.tenant if record is not None else "-"
        if method == "POST":
            try:
                document = json.loads(body.decode("utf-8"))
                tenant = document.get("tenant", "default")
            except (ValueError, UnicodeDecodeError, AttributeError):
                return "-"
            if isinstance(tenant, str) and tenant:
                return tenant
            return "-"
        tenants = parse_qs(parts.query).get("tenant")
        if tenants and tenants[0]:
            return tenants[0]
        return "-"

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------

    def health(self):
        """Service-level liveness: job counts, drain state, uptime."""
        summary = self.service.health_summary()
        code = 503 if summary.get("draining") else 200
        return code, summary
