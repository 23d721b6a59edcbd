"""The scenario-driven load generator (``repro load``).

A :class:`LoadScenario` is a document family plus a query mix.  The two
shipped scenarios stress the two degenerate tree shapes from the
workload module:

- ``deep-tree`` — one 50k-level spine (:func:`repro.workloads.deep_tree`):
  every descendant-axis query walks an extreme path length.
- ``wide-tree`` — one node with 500k children
  (:func:`repro.workloads.wide_tree`): sibling axes and label partitions
  at extreme fan-out.

``FAST`` mode (CI smoke) shrinks the fixtures ~25× so the whole run
fits in seconds; full mode is the committed-baseline configuration.

:func:`run_load` boots an in-process threaded server on an ephemeral
port (or targets an already-running one via ``url``), installs the
fixture stores, replays the mix from ``concurrency`` closed-loop worker
threads over real HTTP connections, and emits a scorecard per scenario:
requests, errors, RPS, and exact P50/P95/P99 latencies.  Scorecards are
recorded through :data:`repro.perf.RECORDER` and written as
``LOADTEST_<n>.json`` run files (schema ``repro.perf.load/1``) —
a sibling sequence to the ``BENCH_<n>.json`` files, compared by
:func:`compare_report` in the ``service-smoke`` CI job.
"""

from __future__ import annotations

import datetime as _dt
import http.client
import json
import os
import re
import threading
import time
from typing import Any, Callable, Sequence

from repro.engine import Database
from repro.service.app import QueryService, make_server
from repro.workloads import deep_tree, wide_tree

__all__ = [
    "LOAD_SCHEMA",
    "SCENARIOS",
    "LoadScenario",
    "compare_report",
    "format_scorecard",
    "list_reports",
    "load_report",
    "run_load",
    "write_report",
]

LOAD_SCHEMA = "repro.perf.load/1"

_LOAD_RE = re.compile(r"^LOADTEST_(\d+)\.json$")


class LoadScenario:
    """One load configuration: a document family plus a query mix.

    ``build(fast)`` constructs the fixture tree (full or FAST size);
    ``mix`` is the request-body cycle the workers replay — every entry
    is a complete ``/query`` JSON body, so the generator exercises the
    exact wire protocol clients use.
    """

    __slots__ = ("name", "description", "factory", "full_size", "fast_size", "mix")

    def __init__(
        self,
        name: str,
        description: str,
        factory: Callable[[int], Any],
        full_size: int,
        fast_size: int,
        mix: Sequence[dict],
    ):
        self.name = name
        self.description = description
        self.factory = factory
        self.full_size = full_size
        self.fast_size = fast_size
        self.mix = tuple(mix)

    def build(self, fast: bool = False):
        return self.factory(self.fast_size if fast else self.full_size)

    def size(self, fast: bool = False) -> int:
        return self.fast_size if fast else self.full_size


#: the shipped scenarios: the two degenerate shapes, all four languages
SCENARIOS: dict[str, LoadScenario] = {
    scenario.name: scenario
    for scenario in (
        LoadScenario(
            "deep-tree",
            "a single 50k-level spine; descendant axes at extreme depth",
            deep_tree,
            full_size=50_000,
            fast_size=2_000,
            mix=(
                {"kind": "xpath", "query": "Child*[lab() = mark]"},
                {"kind": "xpath", "query": "Child*[lab() = target]"},
                {"kind": "twig", "query": "//section/mark"},
                {"kind": "cq", "query": "ans(y) :- Child(x, y), Lab:mark(y)"},
                {
                    "kind": "datalog",
                    "query": "Q(x) :- Lab:target(x).",
                    "query_pred": "Q",
                },
            ),
        ),
        LoadScenario(
            "wide-tree",
            "one node with 500k children; sibling axes at extreme fan-out",
            wide_tree,
            full_size=500_000,
            fast_size=20_000,
            mix=(
                {"kind": "xpath", "query": "Child[lab() = hit]"},
                {"kind": "twig", "query": "/collection/hit"},
                {"kind": "cq", "query": "ans(y) :- Child(x, y), Lab:hit(y)"},
                {
                    "kind": "datalog",
                    "query": "Q(x) :- Lab:hit(x).",
                    "query_pred": "Q",
                },
            ),
        ),
    )
}


# ---------------------------------------------------------------------------
# the closed-loop worker pool
# ---------------------------------------------------------------------------


class _Counter:
    """A shared take-a-ticket counter for closed-loop workers."""

    __slots__ = ("_lock", "_next", "limit")

    def __init__(self, limit: int):
        self._lock = threading.Lock()
        self._next = 0
        self.limit = limit

    def take(self) -> int:
        """The next ticket, or -1 when the run is exhausted."""
        with self._lock:
            if self._next >= self.limit:
                return -1
            ticket = self._next
            self._next += 1
            return ticket


#: per-attempt client backoff schedule for 429 retries
_RETRY_LIMIT = 5
_RETRY_SLEEP_CAP_S = 0.5


def _retry_delay_s(response_payload: bytes, attempt: int) -> float:
    """How long a shed client sleeps before retrying: the server's
    ``retry_after`` hint (JSON body, finer-grained than the integer
    ``Retry-After`` header) scaled by exponential backoff, capped so
    load runs stay bounded."""
    hint = 0.05
    try:
        body = json.loads(response_payload.decode("utf-8"))
        hint = float(body["error"]["retry_after"])
    except Exception:
        pass
    return min(max(hint, 0.01) * (2 ** attempt), _RETRY_SLEEP_CAP_S)


def _worker(
    host: str,
    port: int,
    path: str,
    bodies: Sequence[bytes],
    tickets: _Counter,
    latencies: list,
    failures: list,
    sheds: list,
    deadline_exceeded: list,
    headers: "dict[str, str] | None" = None,
    traced: "list | None" = None,
) -> None:
    """One closed-loop client: take a ticket, send, time, repeat.

    The client speaks the resilience protocol: a 429 ``overloaded``
    response is *not* a failure — it counts as a shed and the ticket is
    retried with exponential backoff honoring the server's Retry-After
    hint (up to ``_RETRY_LIMIT`` attempts); a 504 ``deadline-exceeded``
    counts in its own bucket.  Only untyped/unexpected responses land
    in ``failures``.
    """
    base_headers = {"Content-Type": "application/json", **(headers or {})}
    conn = http.client.HTTPConnection(host, port, timeout=120)
    try:
        while True:
            ticket = tickets.take()
            if ticket < 0:
                return
            body = bodies[ticket % len(bodies)]
            attempt = 0
            while True:
                start = time.perf_counter()
                try:
                    conn.request("POST", path, body=body, headers=base_headers)
                    response = conn.getresponse()
                    payload = response.read()
                    elapsed = time.perf_counter() - start
                except Exception as exc:
                    failures.append((0, f"{type(exc).__name__}: {exc}".encode()))
                    conn.close()  # reconnect on the next ticket
                    break
                if response.status == 200:
                    latencies.append(elapsed)
                    if traced is not None:
                        # the response body echoes the request's trace
                        # id; parsed after the clock stopped, so the
                        # latency sample is untouched
                        try:
                            trace_id = json.loads(
                                payload.decode("utf-8")
                            ).get("trace_id")
                        except Exception:
                            trace_id = None
                        if trace_id:
                            traced.append((elapsed, trace_id))
                    break
                if response.status == 429:
                    sheds.append(ticket)
                    if attempt < _RETRY_LIMIT:
                        time.sleep(_retry_delay_s(payload, attempt))
                        attempt += 1
                        continue
                    break  # shed for good; counted, not a failure
                if response.status == 504:
                    deadline_exceeded.append(ticket)
                    break
                failures.append((response.status, payload[:200]))
                break
    finally:
        conn.close()


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Exact (nearest-rank, linear-interpolated) percentile."""
    if not sorted_values:
        return 0.0
    pos = (len(sorted_values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


def _run_scenario(
    scenario: LoadScenario,
    host: str,
    port: int,
    requests: int,
    concurrency: int,
    fast: bool,
    deadline_ms: "float | None" = None,
) -> dict[str, Any]:
    bodies = [
        json.dumps(body, sort_keys=True).encode("utf-8") for body in scenario.mix
    ]
    path = f"/stores/{scenario.name}/query"
    tickets = _Counter(requests)
    latencies: list[float] = []  # list.append is atomic: no lock needed
    failures: list = []
    sheds: list = []
    deadline_exceeded: list = []
    traced: list = []  # (elapsed, trace_id) per 200, for the slowest-of
    headers = (
        {"X-Repro-Deadline-Ms": str(deadline_ms)}
        if deadline_ms is not None
        else None
    )
    threads = [
        threading.Thread(
            target=_worker,
            args=(host, port, path, bodies, tickets, latencies, failures,
                  sheds, deadline_exceeded, headers, traced),
            daemon=True,
        )
        for _ in range(concurrency)
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    duration = time.perf_counter() - start
    ordered = sorted(latencies)
    # tuples sort by elapsed first, so max() is the slowest observed
    # request — its trace id points straight at /debug/traces/<id>
    slowest = max(traced, default=None)
    return {
        "slowest_ms": round(slowest[0] * 1e3, 3) if slowest else None,
        "slowest_trace_id": slowest[1] if slowest else None,
        "scenario": scenario.name,
        "nodes": scenario.size(fast) + 1,  # +1: the root above the spine/fan
        "requests": len(latencies),
        "errors": len(failures),
        "shed": len(sheds),
        "deadline_exceeded": len(deadline_exceeded),
        "error_samples": [
            [status, body.decode("utf-8", "replace")]
            for status, body in failures[:5]
        ],
        "concurrency": concurrency,
        "duration_s": round(duration, 4),
        "rps": round(len(latencies) / duration, 2) if duration > 0 else 0.0,
        "p50_ms": round(_percentile(ordered, 0.50) * 1e3, 3),
        "p95_ms": round(_percentile(ordered, 0.95) * 1e3, 3),
        "p99_ms": round(_percentile(ordered, 0.99) * 1e3, 3),
    }


def run_load(
    scenarios: "Sequence[str] | None" = None,
    fast: bool = False,
    requests: int = 200,
    concurrency: int = 8,
    host: str = "127.0.0.1",
    record: bool = True,
    max_concurrency: "int | None" = None,
    queue_limit: int = 16,
    deadline_ms: "float | None" = None,
    service: "QueryService | None" = None,
) -> dict[str, Any]:
    """Run the load harness; returns the full report payload (unwritten).

    Boots an in-process threaded server on an ephemeral port, installs
    each scenario's fixture as a store (index pre-built, so latencies
    measure query service, not first-touch indexing), replays the mix
    from ``concurrency`` worker threads, and tears the server down.

    ``max_concurrency``/``queue_limit`` configure the server's
    admission control (for overload testing — sheds land in the
    ``shed`` column, not ``errors``); ``deadline_ms`` stamps every
    request with an ``X-Repro-Deadline-Ms`` header, so expirations land
    in ``deadline_exceeded``.  ``service`` substitutes a pre-configured
    :class:`QueryService` (e.g. one with an event log or a custom
    sampler — the tracing-under-load tests drive a tiny-queue writer
    this way); when given, the admission kwargs are ignored.

    Each scorecard reports ``slowest_ms``/``slowest_trace_id``: the
    slowest observed request's latency and the trace id its response
    echoed, ready to feed ``repro trace show`` or ``/debug/traces/<id>``.
    """
    names = list(scenarios) if scenarios else sorted(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        raise ValueError(
            f"unknown scenario(s): {', '.join(unknown)}; "
            f"options: {', '.join(sorted(SCENARIOS))}"
        )
    if service is None:
        service = QueryService(
            max_concurrency=max_concurrency,
            queue_limit=queue_limit,
        )
    server = make_server(service, host=host, port=0)
    port = server.server_address[1]
    runner = threading.Thread(target=server.serve_forever, daemon=True)
    runner.start()
    scorecards = []
    try:
        for name in names:
            scenario = SCENARIOS[name]
            db = Database(scenario.build(fast))
            db.index  # warm: pay indexing at ingest, not under load
            service.stores.put(name, db, source="loadgen")
            scorecards.append(
                _run_scenario(
                    scenario, host, port, requests, concurrency, fast,
                    deadline_ms=deadline_ms,
                )
            )
            service.stores.delete(name)
    finally:
        server.shutdown()
        server.server_close()
        runner.join(timeout=10)
    report = {
        "fast_mode": bool(fast),
        "requests_per_scenario": requests,
        "concurrency": concurrency,
        "max_concurrency": max_concurrency,
        "queue_limit": queue_limit,
        "deadline_ms": deadline_ms,
        "scenarios": {card["scenario"]: card for card in scorecards},
    }
    if record:
        _record(report)
    return report


def _record(report: dict[str, Any]) -> None:
    """Fold the scorecards into the perf telemetry recorder."""
    from repro.perf import RECORDER

    RECORDER.record_table(
        "service load scorecard",
        ["scenario", "nodes", "requests", "errors", "shed",
         "deadline_exceeded", "rps", "p50_ms", "p95_ms", "p99_ms",
         "slowest_trace_id"],
        [
            [c["scenario"], c["nodes"], c["requests"], c["errors"],
             c.get("shed", 0), c.get("deadline_exceeded", 0),
             c["rps"], c["p50_ms"], c["p95_ms"], c["p99_ms"],
             c.get("slowest_trace_id") or "-"]
            for c in report["scenarios"].values()
        ],
        module="service-loadgen",
    )


# ---------------------------------------------------------------------------
# LOADTEST_<n>.json run files
# ---------------------------------------------------------------------------


def list_reports(root: str = ".") -> list[str]:
    """All ``LOADTEST_<n>.json`` files under ``root``, in run order."""
    entries = []
    for name in os.listdir(root or "."):
        match = _LOAD_RE.match(name)
        if match:
            entries.append((int(match.group(1)), os.path.join(root, name)))
    return [path for _, path in sorted(entries)]


def write_report(report: dict[str, Any], root: str = ".") -> str:
    """Write the next ``LOADTEST_<n>.json`` in sequence; returns its path."""
    from repro.perf import environment_fingerprint

    numbers = [
        int(_LOAD_RE.match(name).group(1))
        for name in os.listdir(root or ".")
        if _LOAD_RE.match(name)
    ]
    run = max(numbers, default=0) + 1
    payload = {
        "schema": LOAD_SCHEMA,
        "run": run,
        "created": _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds"),
        "environment": environment_fingerprint(),
        **report,
    }
    path = os.path.join(root or ".", f"LOADTEST_{run:04d}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return path


def load_report(path: str) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("schema") != LOAD_SCHEMA:
        raise ValueError(
            f"{path}: schema is {payload.get('schema')!r}, expected {LOAD_SCHEMA!r}"
        )
    if not isinstance(payload.get("scenarios"), dict):
        raise ValueError(f"{path}: missing 'scenarios' mapping")
    return payload


def compare_report(
    baseline: dict[str, Any],
    current: dict[str, Any],
    rps_drop_warn: float = 0.5,
    shed_tolerance: float = 0.0,
) -> "tuple[list[str], list[str]]":
    """Compare a fresh report against a committed baseline.

    Returns ``(failures, warnings)``.  Failures are structural — a
    baseline scenario missing from the current run, or any failed
    requests: the service must never drop queries under this load.
    Typed refusals (429 sheds, 504 deadline expirations) are tallied
    *separately* from errors and fail only past ``shed_tolerance``
    (fraction of all attempts, default zero) — so overload experiments
    can declare their expected shed rate instead of tripping the error
    gate.  Raw-throughput changes only *warn* (and only past
    ``rps_drop_warn``, a halving by default), mirroring the bench
    comparator's stance that wall-clock across environments is advisory
    (docs/OBSERVABILITY.md).
    """
    failures: list[str] = []
    warnings: list[str] = []
    old = baseline.get("scenarios", {})
    new = current.get("scenarios", {})
    for name in sorted(old):
        if name not in new:
            failures.append(f"scenario {name!r} missing from the current run")
    for name, card in sorted(new.items()):
        if card.get("errors"):
            failures.append(
                f"{name}: {card['errors']} failed request(s) "
                f"(e.g. {(card.get('error_samples') or [['?', '?']])[0]})"
            )
        shed = card.get("shed", 0) + card.get("deadline_exceeded", 0)
        attempts = card.get("requests", 0) + card.get("errors", 0) + shed
        if shed and attempts:
            rate = shed / attempts
            if rate > shed_tolerance:
                failures.append(
                    f"{name}: shed rate {rate:.1%} "
                    f"({card.get('shed', 0)} shed + "
                    f"{card.get('deadline_exceeded', 0)} deadline-exceeded of "
                    f"{attempts}) exceeds the {shed_tolerance:.1%} tolerance"
                )
            else:
                warnings.append(
                    f"{name}: shed rate {rate:.1%} within the "
                    f"{shed_tolerance:.1%} tolerance"
                )
        base = old.get(name)
        if not base:
            continue
        old_rps, new_rps = base.get("rps", 0), card.get("rps", 0)
        if old_rps and new_rps and new_rps < old_rps * rps_drop_warn:
            warnings.append(
                f"{name}: RPS dropped {old_rps} -> {new_rps} "
                f"(past the {rps_drop_warn:.0%} warn threshold)"
            )
    return failures, warnings


def format_scorecard(report: dict[str, Any]) -> str:
    """The human-readable scorecard (the ``repro load`` output)."""
    lines = [
        "service load scorecard"
        + (" (FAST mode)" if report.get("fast_mode") else ""),
        f"  concurrency={report['concurrency']} "
        f"requests/scenario={report['requests_per_scenario']}",
        f"  {'scenario':<12} {'nodes':>8} {'req':>6} {'err':>4} "
        f"{'shed':>5} {'dl':>4} "
        f"{'rps':>9} {'p50ms':>9} {'p95ms':>9} {'p99ms':>9}",
    ]
    for name, card in sorted(report["scenarios"].items()):
        lines.append(
            f"  {name:<12} {card['nodes']:>8} {card['requests']:>6} "
            f"{card['errors']:>4} {card.get('shed', 0):>5} "
            f"{card.get('deadline_exceeded', 0):>4} "
            f"{card['rps']:>9.2f} {card['p50_ms']:>9.3f} "
            f"{card['p95_ms']:>9.3f} {card['p99_ms']:>9.3f}"
        )
        if card.get("slowest_trace_id"):
            lines.append(
                f"    slowest: {card['slowest_ms']:.3f} ms "
                f"trace={card['slowest_trace_id']}"
            )
    return "\n".join(lines)
