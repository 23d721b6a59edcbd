"""The query service application and its threaded HTTP/1.1 server.

The service is three nested pieces:

- :class:`StoreRegistry` — named document stores (name → loaded
  :class:`~repro.engine.database.Database` + metadata) behind a lock,
  so PUT/DELETE from one connection never corrupts a query running on
  another.
- :class:`QueryService` — the transport-independent application:
  every operation is a plain method returning ``(status, payload)``,
  wrapped by the per-request observability middleware
  (:meth:`QueryService.observe`) that opens a ``repro.obs`` span
  context, folds request latency into the process duration histograms
  (``service.request`` plus ``service.<route>``) and counts
  requests/errors — so ``GET /metrics`` exposes live tail latencies
  per route in OpenMetrics form.
- :class:`ReproServer` / :func:`make_server` / :func:`serve` — a
  ``socketserver.ThreadingTCPServer`` whose handler frames HTTP/1.1
  itself and speaks the JSON protocol of :mod:`repro.service.protocol`.
  One thread per connection; the engine underneath is safe for
  concurrent *queries* on a shared Database
  (``tests/test_concurrency.py`` pins this), while store replacement
  swaps whole Database objects atomically.  The handler caps request and header lines at
  64 KiB, headers at 100 and bodies at 256 MiB, keeps HTTP/1.1
  connections alive, answers ``Expect: 100-continue``, sends each
  response in one write, and refuses what it cannot frame with a typed
  JSON error and ``Connection: close`` (docs/SERVICE.md).  Serving
  loads no HTTP client, e-mail parser or TLS module.

Two failure boundaries are fault-injection sites
(docs/ROBUSTNESS.md): ``service.decode`` corrupts/fails the request
body read, ``service.handler`` trips request dispatch — chaos rules
like ``service.*:error`` prove the server answers *degraded, typed*
errors rather than wrong answers.
"""

from __future__ import annotations

import json
import socketserver
import sys
import threading
import time
from contextlib import contextmanager
from http import HTTPStatus
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.engine import Database
from repro.errors import ReproError
from repro.faults import faultpoint, register_site
from repro.obs.budget import ResourceBudget
from repro.obs.context import Observation, current, observed
from repro.obs.events import EVENT_SCHEMA, EventLogWriter, TraceBuffer
from repro.obs.metrics import METRICS
from repro.obs.sampling import TraceSampler, new_trace_id
from repro.obs.tracer import Tracer
from repro.service.protocol import (
    ServiceError,
    encode_answer,
    error_payload,
    error_status,
    stats_payload,
    validate_query_request,
)
from repro.service.resilience import (
    AdmissionController,
    BreakerBoard,
    CircuitOpenError,
    DeadlineClock,
    DeadlineExceededError,
    DrainingError,
    OverloadedError,
    counts_against_breaker,
    parse_deadline_ms,
)

__all__ = ["QueryService", "StoreRegistry", "make_server", "serve"]

#: typed refusals the middleware counts as load-shedding, not failures
_REFUSALS = (OverloadedError, DeadlineExceededError, CircuitOpenError, DrainingError)

register_site("service.decode", "HTTP request body read/decode")
register_site("service.handler", "HTTP request dispatch")

#: refuse request bodies larger than this (a 256 MiB document is far
#: beyond what the in-memory engine should be fed over one request)
MAX_BODY_BYTES = 256 * 1024 * 1024

#: upper bound on queries per batch request
MAX_BATCH = 1024

_NAME_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
)

#: characters a client-supplied ``X-Repro-Trace`` id may use; anything
#: else (or an unreasonable length) is ignored and a fresh id issued —
#: the id is echoed in response headers, so it must never carry CR/LF
#: or other header-splitting material
_TRACE_ID_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_"
)


def _clean_trace_id(raw: "str | None") -> "str | None":
    """A client trace id, or None when absent/unusable."""
    if not raw:
        return None
    raw = raw.strip()
    if not 8 <= len(raw) <= 128 or not set(raw) <= _TRACE_ID_OK:
        return None
    return raw


def _int_param(
    params: "dict[str, str]", name: str, default: "int | None"
) -> "int | None":
    """An integer query parameter; a malformed one is a typed 400."""
    if name not in params:
        return default
    try:
        return int(params[name])
    except ValueError:
        raise ServiceError(
            f"{name} must be an integer, got {params[name]!r}",
            code="bad-" + name.replace("_", "-"),
        ) from None


def _check_store_name(name: str) -> str:
    if not name or len(name) > 64 or not set(name) <= _NAME_OK:
        raise ServiceError(
            f"store name {name!r} must be 1-64 chars from [A-Za-z0-9._-]",
            status=400,
            code="bad-store-name",
        )
    return name


def _chop_bytes(payload: bytes, rng) -> bytes:
    """Corruption mutator for the ``service.decode`` site."""
    if not isinstance(payload, (bytes, bytearray)) or len(payload) < 2:
        return b""
    return bytes(payload[: rng.randrange(1, len(payload))])


class StoreRegistry:
    """Named document stores: name → (Database, metadata)."""

    def __init__(self):
        self._stores: dict[str, dict[str, Any]] = {}
        self._lock = threading.RLock()

    def put(self, name: str, db: Database, source: str = "inline") -> dict:
        """Install (or replace) a store; returns its metadata record."""
        _check_store_name(name)
        entry = {
            "name": name,
            "nodes": db.tree.n,
            "source": source,
            "created_at": time.time(),
            "db": db,
        }
        with self._lock:
            replaced = name in self._stores
            self._stores[name] = entry
        entry = dict(entry)
        entry["replaced"] = replaced
        return entry

    def get(self, name: str) -> Database:
        with self._lock:
            entry = self._stores.get(name)
        if entry is None:
            raise ServiceError(
                f"no store named {name!r}", status=404, code="store-not-found"
            )
        return entry["db"]

    def info(self, name: str) -> dict:
        with self._lock:
            entry = self._stores.get(name)
        if entry is None:
            raise ServiceError(
                f"no store named {name!r}", status=404, code="store-not-found"
            )
        db: Database = entry["db"]
        return {
            "name": entry["name"],
            "nodes": entry["nodes"],
            "source": entry["source"],
            "created_at": entry["created_at"],
            "indexed": db.has_index,
            "queries_served": db.queries_served,
            "plan_cache": db.plan_cache._asdict(),
        }

    def delete(self, name: str) -> None:
        with self._lock:
            if name not in self._stores:
                raise ServiceError(
                    f"no store named {name!r}", status=404, code="store-not-found"
                )
            del self._stores[name]

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._stores)

    def __len__(self) -> int:
        with self._lock:
            return len(self._stores)


class QueryService:
    """The transport-independent application behind the HTTP handler.

    Every public operation returns ``(status, payload)`` and raises
    nothing the protocol cannot map — the HTTP layer (and the tests,
    which call these methods directly) wrap each call in
    :meth:`observe` and :func:`repro.service.protocol.error_payload`.
    """

    def __init__(
        self,
        stores: "StoreRegistry | None" = None,
        plan_cache: "int | None" = None,
        max_concurrency: "int | None" = None,
        queue_limit: int = 16,
        breaker_threshold: int = 5,
        breaker_cooldown_s: float = 5.0,
        breaker_seed: int = 0,
        sampler: "TraceSampler | None" = None,
        event_log: "EventLogWriter | None" = None,
        slow_ms: "float | None" = None,
        trace_capacity: int = 256,
    ):
        self.stores = stores if stores is not None else StoreRegistry()
        self.default_plan_cache = plan_cache
        self.started_at = time.time()
        self.admission = AdmissionController(
            max_concurrency=max_concurrency, queue_limit=queue_limit
        )
        self.breakers = BreakerBoard(
            threshold=breaker_threshold,
            cooldown_s=breaker_cooldown_s,
            seed=breaker_seed,
        )
        #: retention policy for request traces (head/tail/error sampling)
        self.sampler = sampler if sampler is not None else TraceSampler()
        #: most recent retained traces, behind GET /debug/traces
        self.traces = TraceBuffer(trace_capacity)
        #: optional JSONL event log (one record per request)
        self.event_log = event_log
        #: log requests at least this slow to stderr (None disables)
        self.slow_ms = slow_ms

    # -- middleware --------------------------------------------------------

    @contextmanager
    def observe(self, route: str, trace_id: "str | None" = None):
        """Per-request observability: a fresh Observation context for
        the request thread, latency folded into ``service.request`` and
        ``service.<route>`` histograms, request/error counters.

        This is also the tracing middleware: the request gets a trace
        id (the client's via ``X-Repro-Trace``, or a fresh one) and —
        when the sampler says to record — a :class:`Tracer` whose open
        ``request:<route>`` root the engine's supervised path nests its
        spans under.  On exit the sampler makes the final retention
        call; retained traces land in the in-memory ring
        (``/debug/traces``) and every request emits one summary record
        to the event log when one is configured.  Telemetry failures
        (including injected ``obs.sample`` faults) degrade to counted
        drops, never to request failures.
        """
        if trace_id is None:
            trace_id = new_trace_id()
        tracer = None
        try:
            # the sampling fault boundary: an injected fault here must
            # cost at most the trace (degrade to "not recorded")
            faultpoint("obs.sample", trace_id)
            if self.sampler.record(trace_id):
                tracer = Tracer()
        except Exception:
            METRICS.add("obs.sample_dropped")
        obs = Observation(tracer=tracer, trace_id=trace_id)
        start = time.perf_counter()
        outcome = "error"
        try:
            with observed(obs):
                with obs.span("request:" + route):
                    yield obs
            outcome = "ok"
        except _REFUSALS:
            # a typed refusal (shed / deadline / open circuit / drain)
            # is the service *working as designed* under pressure, not
            # a failure — it gets its own counter, never service.errors
            outcome = "refused"
            raise
        except Exception as exc:
            # the same machine-readable code the error payload carries,
            # so event-log records join cleanly against client reports
            obs.annotate(
                error=type(exc).__name__, error_code=error_status(exc)[1]
            )
            raise
        finally:
            elapsed = time.perf_counter() - start
            for name, value in obs.counters.items():
                METRICS.add(name, value)
            METRICS.observe_duration("service.request", elapsed)
            METRICS.observe_duration("service." + route, elapsed)
            METRICS.add("service.requests")
            if outcome == "error":
                METRICS.add("service.errors")
            elif outcome == "refused":
                METRICS.add("service.refusals")
            try:
                self._finish_request(trace_id, route, outcome, elapsed, obs)
            except Exception:  # telemetry must never fail a request
                METRICS.add("obs.telemetry_dropped")

    def _finish_request(
        self,
        trace_id: str,
        route: str,
        outcome: str,
        elapsed: float,
        obs: Observation,
    ) -> None:
        """Retention decision + event record for one finished request."""
        retained_by = None
        try:
            faultpoint("obs.sample", trace_id)
            retained_by = self.sampler.retain(
                trace_id, elapsed, failed=outcome == "error"
            )
        except Exception:
            METRICS.add("obs.sample_dropped")
        record: dict[str, Any] = {
            "schema": EVENT_SCHEMA,
            "trace_id": trace_id,
            "route": route,
            "outcome": outcome,
            "duration_ms": round(elapsed * 1e3, 3),
            "sampled": retained_by is not None,
        }
        if retained_by is not None:
            record["retained_by"] = retained_by
        if obs.meta:
            record.update(obs.meta)
        tracer = obs.tracer
        if retained_by is not None and tracer is not None and tracer.root is not None:
            from repro.obs.export import trace_to_dict

            record["spans"] = trace_to_dict(tracer.root)
        if retained_by is not None:
            self.traces.add(record)
        if self.event_log is not None:
            self.event_log.submit(record)
        if self.slow_ms is not None and elapsed * 1e3 >= self.slow_ms:
            METRICS.add("service.slow_requests")
            print(
                f"[repro.service] slow request trace={trace_id} "
                f"route={route} {elapsed * 1e3:.1f} ms "
                f"(threshold {self.slow_ms:g} ms)",
                file=sys.stderr,
            )

    @contextmanager
    def _admitted(self, deadline: "DeadlineClock | None"):
        """Admission + deadline gate around one unit of store work.

        Refuses before any engine work happens: 503 while draining,
        504 when the request's deadline is already spent (or expires
        while queued — the queue wait is charged against the same
        clock), 429 when both the in-flight gauge and the queue are
        full.  On admit, yields after subtracting queue-wait so the
        caller sees only the budget that is actually left.
        """
        if deadline is not None:
            deadline.check("before admission")
        self.admission.admit(deadline)
        try:
            if deadline is not None:
                deadline.check("after queue wait")
            yield
        finally:
            self.admission.release()

    def _breaker_run(self, name: str, work):
        """Run store work behind the store's circuit breaker."""
        breaker = self.breakers.lease(name)
        breaker.check()
        try:
            result = work()
        except BaseException as exc:
            if counts_against_breaker(exc):
                breaker.record_failure()
            else:
                breaker.record_success()
            raise
        breaker.record_success()
        return result

    # -- operations --------------------------------------------------------

    def health(self) -> "tuple[int, dict]":
        """Liveness: always 200 while the process can answer at all."""
        return 200, {
            "ok": True,
            "stores": len(self.stores),
            "uptime_s": round(time.time() - self.started_at, 3),
            "admission": self.admission.snapshot(),
            "breakers": self.breakers.states(),
        }

    def readiness(self) -> "tuple[int, dict]":
        """Readiness: 503 while draining or under a breaker storm.

        Liveness (``/healthz``) says "don't restart me"; readiness
        says "don't send me traffic".  A draining service and one whose
        breaker board is mostly open are both alive but not ready.
        """
        snapshot = self.admission.snapshot()
        storming = self.breakers.storming()
        ready = not snapshot["draining"] and not storming
        payload = {
            "ready": ready,
            "draining": snapshot["draining"],
            "breaker_storm": storming,
            "in_flight": snapshot["in_flight"],
        }
        return (200 if ready else 503), payload

    # -- lifecycle ---------------------------------------------------------

    def shutdown(self, drain_s: float = 5.0) -> bool:
        """Graceful drain: stop admitting, wait for in-flight work.

        Returns True when the drain finished cleanly inside the window.
        Idempotent; the HTTP server calls this before closing sockets
        (:meth:`ReproServer.shutdown_gracefully`).
        """
        return self.admission.drain(drain_s)

    def metrics_text(self) -> "tuple[int, str]":
        from repro.obs import render_openmetrics

        return 200, render_openmetrics(METRICS)

    def traces_list(self, limit: int = 50) -> "tuple[int, dict]":
        """GET /debug/traces — recent retained traces, newest first."""
        payload = {
            "traces": self.traces.list(limit),
            "sampler": self.sampler.describe(),
        }
        if self.event_log is not None:
            payload["event_log"] = self.event_log.stats()
        return 200, payload

    def trace_get(self, trace_id: str) -> "tuple[int, dict]":
        """GET /debug/traces/{id} — one retained trace, span tree and all."""
        record = self.traces.get(trace_id)
        if record is None:
            raise ServiceError(
                f"no retained trace {trace_id!r} (expired from the ring "
                "buffer, or never sampled)",
                status=404,
                code="trace-not-found",
            )
        return 200, {"trace": record}

    def list_stores(self) -> "tuple[int, dict]":
        return 200, {"stores": [self.stores.info(n) for n in self.stores.names()]}

    def ingest(
        self,
        name: str,
        text: str,
        plan_cache: "int | None" = None,
        recover: bool = False,
        warm: bool = False,
        source: str = "inline",
        deadline_s: "float | None" = None,
    ) -> "tuple[int, dict]":
        """PUT a document: parse, install, optionally pre-build the index.

        What is left of the deadline once admitted bounds the parse, which
        charges the budget once per batch: past the deadline nothing is
        installed, and the PUT gets the refusal of a query whose engine
        deadline runs out.
        """
        deadline = DeadlineClock(deadline_s) if deadline_s is not None else None
        with self._admitted(deadline), _budgeted(deadline):
            db = Database.from_xml(
                text,
                recover=recover,
                plan_cache=plan_cache if plan_cache is not None
                else self.default_plan_cache,
            )
            if warm:
                db.index  # build eagerly: pay the index once at ingest time
            entry = self.stores.put(name, db, source=source)
            self.breakers.reset(name)  # a fresh document deserves a fresh circuit
        entry.pop("db", None)
        return 201, {"store": entry}

    def store_info(self, name: str) -> "tuple[int, dict]":
        return 200, {"store": self.stores.info(name)}

    def delete_store(self, name: str) -> "tuple[int, dict]":
        self.stores.delete(name)
        self.breakers.reset(name)
        return 200, {"deleted": name}

    def query(
        self, name: str, request_obj: Any, deadline_s: "float | None" = None
    ) -> "tuple[int, dict]":
        """POST /stores/{name}/query — one engine call.

        ``deadline_s`` (from ``X-Repro-Deadline-Ms``) and the body's
        ``deadline_ms`` share one clock: the engine receives the
        tighter of the two, minus whatever admission queueing already
        spent.
        """
        spec = validate_query_request(request_obj)
        deadline = (
            DeadlineClock(deadline_s)
            if deadline_s is not None
            else (DeadlineClock(spec["deadline"]) if spec["deadline"] is not None
                  else None)
        )
        with self._admitted(deadline):
            db = self.stores.get(name)
            if deadline is not None:
                spec = dict(spec, deadline=deadline.engine_deadline(spec["deadline"]))
            result = self._breaker_run(name, lambda: self._run(db, spec))
        ctx = current()
        if ctx is not None:  # event-log fields for the request record
            ctx.annotate(
                store=name,
                kind=spec["kind"],
                strategy=result.stats.strategy,
                attempts=len(result.stats.attempts),
            )
        return 200, {
            "kind": spec["kind"],
            "answer": encode_answer(result.answer),
            "stats": stats_payload(result.stats),
        }

    def batch(
        self, name: str, request_obj: Any, deadline_s: "float | None" = None
    ) -> "tuple[int, dict]":
        """POST /stores/{name}/batch — many queries, per-item outcomes.

        The batch itself always answers 200; each item carries either
        its answer or its own typed error, so one bad query (or one
        budget exhaustion) degrades that item only.
        """
        if not isinstance(request_obj, dict) or not isinstance(
            request_obj.get("queries"), list
        ):
            raise ServiceError("batch request must be {'queries': [...]}")
        queries = request_obj["queries"]
        if len(queries) > MAX_BATCH:
            raise ServiceError(
                f"batch of {len(queries)} exceeds the {MAX_BATCH}-query cap",
                status=400,
                code="batch-too-large",
            )
        deadline = DeadlineClock(deadline_s) if deadline_s is not None else None
        results = []
        failed = 0
        with self._admitted(deadline):
            db = self.stores.get(name)
            for item in queries:
                try:
                    # the whole batch shares one admission slot and one
                    # deadline clock; each item re-checks both the clock
                    # and the store's breaker so a batch cannot outlive
                    # its window or hammer an open circuit
                    if deadline is not None:
                        deadline.check("between batch items")
                    spec = validate_query_request(item)
                    if deadline is not None:
                        spec = dict(
                            spec, deadline=deadline.engine_deadline(spec["deadline"])
                        )
                    result = self._breaker_run(name, lambda: self._run(db, spec))
                    results.append(
                        {
                            "ok": True,
                            "kind": spec["kind"],
                            "answer": encode_answer(result.answer),
                            "stats": stats_payload(result.stats),
                        }
                    )
                except Exception as exc:  # each item degrades independently
                    status, payload = error_payload(exc)
                    failed += 1
                    results.append({"ok": False, "status": status, **payload})
        return 200, {"results": results, "total": len(results), "failed": failed}

    @staticmethod
    def _run(db: Database, spec: dict):
        supervision = {
            "deadline": spec["deadline"],
            "max_visited": spec["max_visited"],
            "retries": spec["retries"],
            "on_error": spec["on_error"],
        }
        if spec["kind"] == "datalog":
            return db.datalog(
                spec["query"], spec["strategy"], spec["query_pred"], **supervision
            )
        return db.run(spec["kind"], spec["query"], spec["strategy"], **supervision)


@contextmanager
def _budgeted(deadline: "DeadlineClock | None"):
    """Charge the work inside against what is left of ``deadline``: a
    budget on the request's Observation (a fresh one outside a request),
    which :meth:`~repro.obs.context.Observation.tick` enforces."""
    if deadline is None:
        yield
        return
    obs = current() or Observation()
    saved = obs.budget
    obs.budget = ResourceBudget(deadline_s=deadline.engine_deadline(None))
    try:
        with observed(obs):
            yield
    finally:
        obs.budget = saved


# ---------------------------------------------------------------------------
# the HTTP layer
# ---------------------------------------------------------------------------

#: the longest request line or header line, and the most header lines
#: one request may carry
MAX_LINE_BYTES = 65536
MAX_HEADERS = 100

_METHODS = frozenset(("GET", "PUT", "POST", "DELETE"))
_SERVER = "repro-service/1.0 Python/" + sys.version.split()[0]
_REASONS = {status.value: status.phrase for status in HTTPStatus}
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = (None, "Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
#: the access log escapes control characters and backslashes, so a
#: request line cannot forge or hide log lines
_LOG_ESCAPES = {c: f"\\x{c:02x}" for c in (*range(0x20), *range(0x7F, 0xA0))}
_LOG_ESCAPES[ord("\\")] = "\\\\"


def _http_date() -> str:
    """The current time as an HTTP ``Date`` value (RFC 9110)."""
    now = time.gmtime()
    return "%s, %02d %s %04d %02d:%02d:%02d GMT" % (
        _DAYS[now.tm_wday], now.tm_mday, _MONTHS[now.tm_mon], now.tm_year,
        now.tm_hour, now.tm_min, now.tm_sec,
    )


class _Handler(socketserver.StreamRequestHandler):
    """Frames HTTP/1.1 on one connection and routes the JSON protocol
    onto a :class:`QueryService`.

    ==================================  =========================================
    route                               operation
    ==================================  =========================================
    ``GET  /healthz``                   liveness + admission/breaker state
    ``GET  /readyz``                    readiness (503 while draining or
                                        under a breaker storm)
    ``GET  /metrics``                   OpenMetrics exposition of ``METRICS``
    ``GET  /debug/traces``              recent retained traces (``?limit=``)
    ``GET  /debug/traces/{id}``         one retained trace with its span tree
    ``GET  /stores``                    list stores with metadata
    ``PUT  /stores/{name}``             ingest XML body (``?plan_cache=&recover=
                                        &warm=``)
    ``GET  /stores/{name}``             store info (index state, query cache)
    ``DELETE /stores/{name}``           drop a store
    ``POST /stores/{name}/query``       one query (JSON body)
    ``POST /stores/{name}/batch``       many queries, per-item outcomes
    ==================================  =========================================

    Requests on a connection are answered in order.  HTTP/1.1 keeps the
    connection open unless the request says ``Connection: close``,
    HTTP/1.0 closes it unless the request says ``keep-alive``.  A
    request that cannot be framed gets a typed JSON refusal and the
    connection closes: 414 for a request line over
    :data:`MAX_LINE_BYTES`, 431 for a longer header line or more than
    :data:`MAX_HEADERS` of them, 400 for a malformed request or header
    line, 505 for a version other than 1.x, and 501 for another method
    or any ``Transfer-Encoding``.
    """

    # TCP_NODELAY on every accepted connection (StreamRequestHandler)
    disable_nagle_algorithm = True

    @property
    def service(self) -> QueryService:
        return self.server.service  # type: ignore[attr-defined]

    # -- framing -----------------------------------------------------------

    def handle(self) -> None:
        """Answer requests until one closes the connection."""
        try:
            while self._exchange():
                pass
        except OSError:  # the client hung up or reset the connection
            pass

    def _exchange(self) -> bool:
        """Read, route and answer one request; False ends the connection."""
        self.requestline = ""
        self._keep_alive = self._continue = self._unread = False
        self._trace_id = None
        line = self.rfile.readline(MAX_LINE_BYTES + 1)
        try:
            if len(line) > MAX_LINE_BYTES:
                raise ServiceError(
                    f"request line exceeds {MAX_LINE_BYTES} bytes",
                    status=414, code="request-line-too-long",
                )
            if not line.strip():  # end of stream, or a blank line
                return False
            method, path = self._read_head(line)
        except ServiceError as exc:
            self._keep_alive = False
            self._send_json(*error_payload(exc))
            return False
        self._route(method, path)
        return self._keep_alive

    def _read_head(self, line: bytes) -> "tuple[str, str]":
        """Parse the request line and the headers; returns the method
        and the path, or raises the request's typed refusal."""
        self.requestline = line.decode("iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        proto, _, number = words[-1].partition("/")
        major, dot, minor = number.partition(".")
        if (
            len(words) != 3 or proto != "HTTP" or not dot
            or not major.isdecimal() or not minor.isdecimal()
        ):
            raise ServiceError(
                f"malformed request line {self.requestline[:100]!r}",
                code="bad-request-line",
            )
        if major.lstrip("0") != "1":
            raise ServiceError(
                f"{words[-1]} is not supported; speak HTTP/1.1 or HTTP/1.0",
                status=505, code="unsupported-http-version",
            )
        self.headers = self._read_headers()
        http11 = minor.lstrip("0") != ""
        connection = self.headers.get("connection", "").lower()
        self._keep_alive = (
            connection != "close" if http11 else connection == "keep-alive"
        )
        method, path = words[:2]
        if method not in _METHODS:
            raise ServiceError(
                f"method {method[:100]!r} is not implemented",
                status=501, code="unsupported-method",
            )
        if "transfer-encoding" in self.headers:
            raise ServiceError(
                "Transfer-Encoding is not implemented; send Content-Length",
                status=501, code="unsupported-transfer-encoding",
            )
        self._continue = (
            http11 and self.headers.get("expect", "").lower() == "100-continue"
        )
        self._unread = self.headers.get("content-length", "0") != "0"
        if path.startswith("//"):  # never a scheme-relative URL
            path = "/" + path.lstrip("/")
        return method, path

    def _read_headers(self) -> "dict[str, str]":
        """Header values by lower-cased name; the first of repeats wins."""
        headers: dict[str, str] = {}
        for _ in range(MAX_HEADERS + 1):
            line = self.rfile.readline(MAX_LINE_BYTES + 1)
            if len(line) > MAX_LINE_BYTES:
                raise ServiceError(
                    f"header line exceeds {MAX_LINE_BYTES} bytes",
                    status=431, code="header-line-too-long",
                )
            if line in (b"\r\n", b"\n", b""):
                return headers
            text = line.decode("iso-8859-1")
            name, colon, value = text.partition(":")
            if not colon or name.split() != [name]:
                raise ServiceError(
                    f"malformed header line {text.rstrip()[:100]!r}",
                    code="bad-header",
                )
            headers.setdefault(name.lower(), value.strip())
        raise ServiceError(
            f"more than {MAX_HEADERS} header lines",
            status=431, code="too-many-headers",
        )

    def _read_body(self) -> bytes:
        raw = self.headers.get("content-length") or "0"
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if length < 0:
            # without a length the next request cannot be found: the
            # unread body closes the connection after the answer
            raise ServiceError(
                f"Content-Length must be a non-negative integer, got {raw!r}",
                code="bad-content-length",
            )
        if length > MAX_BODY_BYTES:
            raise ServiceError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte cap",
                status=413,
                code="body-too-large",
            )
        if self._continue:
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        try:
            body = self.rfile.read(length) if length else b""
        except OSError:  # reset mid-body: the same short read as a hang-up
            body = b""
        if len(body) < length:
            raise ServiceError(
                f"request body ended after {len(body)} of {length} bytes",
                code="incomplete-body",
            )
        self._unread = False
        return faultpoint("service.decode", body, mutator=_chop_bytes)

    def _json_body(self) -> Any:
        body = self._read_body()
        try:
            return json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, ValueError) as exc:
            raise ServiceError(
                f"request body is not valid JSON: {exc}", code="bad-json"
            ) from exc

    def _text_body(self) -> str:
        body = self._read_body()
        try:
            return body.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ServiceError(
                f"request body is not valid UTF-8: {exc}", code="bad-encoding"
            ) from exc

    def _send_json(
        self, status: int, payload: Any, retry_after: "float | None" = None
    ) -> None:
        headers = []
        if self._trace_id:
            headers.append("X-Repro-Trace: " + self._trace_id)
        if retry_after is not None:
            # RFC 9110 wants an integer number of seconds; round up so
            # "come back in 0.3s" never becomes "come back immediately"
            headers.append(f"Retry-After: {max(1, int(-(-retry_after // 1)))}")
        body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        self._send(status, "application/json", body.encode("utf-8"), headers)

    def _send(
        self, status: int, content_type: str, body: bytes, headers=()
    ) -> None:
        """Log the request, then send the status line, the headers and
        ``body`` in one write: a body sent as a second small segment
        waits for the client's delayed ACK of the first (~40 ms per
        keep-alive reply)."""
        if self._unread:  # a body no route read cannot be skipped over
            self._keep_alive = False
        if self.server.verbose:  # type: ignore[attr-defined]
            self._log(status)
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, '')}",
            "Server: " + _SERVER,
            "Date: " + _http_date(),
            "Content-Type: " + content_type,
            *headers,
            f"Content-Length: {len(body)}",
        ]
        if not self._keep_alive:
            head.append("Connection: close")
        self.wfile.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)

    def _log(self, status: int) -> None:
        """One access-log line on stderr: client address, local time,
        request line (control characters escaped) and status."""
        now = time.localtime()
        sys.stderr.write(
            '%s - - [%02d/%s/%04d %02d:%02d:%02d] "%s" %d -\n' % (
                self.client_address[0], now.tm_mday, _MONTHS[now.tm_mon],
                now.tm_year, now.tm_hour, now.tm_min, now.tm_sec,
                self.requestline.translate(_LOG_ESCAPES), status,
            )
        )

    # -- dispatch ----------------------------------------------------------

    def _route(self, method: str, path: str) -> None:
        split = urlsplit(path)
        parts = [p for p in split.path.split("/") if p]
        params = {k: v[-1] for k, v in parse_qs(split.query).items()}
        # set before anything can raise so the error path always has
        # this request's id
        self._trace_id = _clean_trace_id(self.headers.get("x-repro-trace"))
        try:
            self._deadline_s = parse_deadline_ms(
                self.headers.get("x-repro-deadline-ms")
            )
            route, handler = self._match(method, parts)
            with self.service.observe(route, trace_id=self._trace_id) as obs:
                self._trace_id = obs.trace_id
                faultpoint("service.handler")
                status, payload = handler(params)
        except Exception as exc:
            if not isinstance(exc, ReproError):  # ServiceError included
                METRICS.add("service.unexpected_errors")
            status, payload = error_payload(exc, trace_id=self._trace_id)
            self._send_json(
                status, payload, retry_after=getattr(exc, "retry_after", None)
            )
            return
        if isinstance(payload, str):
            content_type = (
                "application/openmetrics-text" if route == "metrics"
                else "text/plain"
            )
            self._send(status, content_type, payload.encode("utf-8"))
            return
        if isinstance(payload, dict) and "trace_id" not in payload:
            payload["trace_id"] = self._trace_id
        self._send_json(status, payload)

    def _match(self, method: str, parts: "list[str]"):
        svc = self.service
        if method == "GET" and parts == ["healthz"]:
            return "healthz", lambda params: svc.health()
        if method == "GET" and parts == ["readyz"]:
            return "readyz", lambda params: svc.readiness()
        if method == "GET" and parts == ["metrics"]:
            return "metrics", lambda params: svc.metrics_text()
        if method == "GET" and parts == ["debug", "traces"]:
            return "debug.traces", lambda params: svc.traces_list(
                _int_param(params, "limit", 50)
            )
        if (
            method == "GET"
            and len(parts) == 3
            and parts[0] == "debug"
            and parts[1] == "traces"
        ):
            trace_id = parts[2]
            return "debug.trace", lambda params: svc.trace_get(trace_id)
        if method == "GET" and parts == ["stores"]:
            return "stores.list", lambda params: svc.list_stores()
        if len(parts) == 2 and parts[0] == "stores":
            name = parts[1]
            if method == "PUT":
                def put(params):
                    text = self._text_body()
                    return svc.ingest(
                        name,
                        text,
                        plan_cache=_int_param(params, "plan_cache", None),
                        recover=params.get("recover", "0") in ("1", "true"),
                        warm=params.get("warm", "0") in ("1", "true"),
                        source="http-put",
                        deadline_s=self._deadline_s,
                    )
                return "stores.put", put
            if method == "GET":
                return "stores.get", lambda params: svc.store_info(name)
            if method == "DELETE":
                return "stores.delete", lambda params: svc.delete_store(name)
        if len(parts) == 3 and parts[0] == "stores" and method == "POST":
            name, op = parts[1], parts[2]
            if op == "query":
                return "query", lambda params: svc.query(
                    name, self._json_body(), deadline_s=self._deadline_s
                )
            if op == "batch":
                return "batch", lambda params: svc.batch(
                    name, self._json_body(), deadline_s=self._deadline_s
                )
        raise ServiceError(
            f"no route for {method} {'/' + '/'.join(parts)}",
            status=404,
            code="no-such-route",
        )


class ReproServer(socketserver.ThreadingTCPServer):
    """One thread per connection; workers die with the process."""

    daemon_threads = True
    allow_reuse_address = True
    # overload must surface as a typed 429 from admission control, not
    # as kernel RSTs — the stdlib default accept backlog of 5 drops
    # connection bursts before the service ever sees them
    request_queue_size = 128

    def __init__(self, address, service: QueryService, verbose: bool = False):
        super().__init__(address, _Handler)
        self.service = service
        self.verbose = verbose

    def shutdown_gracefully(self, drain_s: float = 5.0) -> bool:
        """Drain in-flight requests, then stop the accept loop.

        New work is refused (503 ``draining``) the moment the drain
        starts while health/readiness probes keep answering, so a
        balancer sees ``/readyz`` flip before the socket closes.  Must
        be called off the ``serve_forever`` thread (as
        ``socketserver``'s ``shutdown`` must).  Returns True when all
        in-flight requests finished inside the drain window.
        """
        clean = self.service.shutdown(drain_s)
        self.shutdown()
        return clean


def make_server(
    service: "QueryService | None" = None,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
) -> ReproServer:
    """A bound (not yet serving) server; ``port=0`` picks a free port.

    The caller drives it: ``server.serve_forever()`` inline, or on a
    thread for tests and the chaos sweep::

        server = make_server(service)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        ...
        server.shutdown()
    """
    return ReproServer((host, port), service or QueryService(), verbose=verbose)


def serve(
    service: "QueryService | None" = None,
    host: str = "127.0.0.1",
    port: int = 8008,
    verbose: bool = True,
    drain_s: float = 5.0,
) -> None:
    """Run the server until interrupted (the ``repro serve`` command).

    SIGTERM triggers a graceful drain: stop admitting, finish in-flight
    requests up to ``drain_s`` seconds, then close.  The drain runs on
    a helper thread because ``shutdown()`` deadlocks when called from
    the ``serve_forever`` thread itself.
    """
    import signal

    server = make_server(service, host, port, verbose=verbose)

    def _drain_and_stop(signum, frame):  # pragma: no cover - signal path
        threading.Thread(
            target=server.shutdown_gracefully, args=(drain_s,), daemon=True
        ).start()

    try:
        previous = signal.signal(signal.SIGTERM, _drain_and_stop)
    except ValueError:  # pragma: no cover - not on the main thread
        previous = None
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        server.service.shutdown(drain_s)
    finally:
        if previous is not None:  # pragma: no branch
            try:
                signal.signal(signal.SIGTERM, previous)
            except ValueError:  # pragma: no cover
                pass
        server.server_close()
