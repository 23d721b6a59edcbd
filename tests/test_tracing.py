"""The request-scoped tracing pipeline, end to end.

Covers the four layers of docs/OBSERVABILITY.md's tracing section:

- **identity** — trace ids issued or accepted (``X-Repro-Trace``),
  echoed in response headers, success bodies and typed error payloads,
  and stamped on every supervisor attempt via the Observation
  ContextVar (including survival across the ThreadingHTTPServer's
  worker threads and *no* leakage between requests reusing a thread),
- **sampling** — the deterministic head draw, tail/error record-all
  policies, and the sampled-out fast path,
- **the event log** — bounded background JSONL writer: schema, size
  rotation, drop-and-count under a stalled disk, telemetry faults
  degrading to counted drops,
- **retrieval** — ``GET /debug/traces[/id]``, the ``repro trace``
  CLI, and the acceptance path: a fault-injected failing request's
  trace id, quoted from its typed error body, replays the span tree
  including the failed attempt.
"""

from __future__ import annotations

import http.client
import json
import threading

import pytest

from repro.engine import Database
from repro.faults import FaultPlan
from repro.obs import (
    METRICS,
    Observation,
    TraceSampler,
    Tracer,
    current,
    head_decision,
    lint_openmetrics,
    new_trace_id,
    observed,
    render_openmetrics,
)
from repro.obs.events import EVENT_SCHEMA, EventLogWriter, TraceBuffer
from repro.service import QueryService, make_server

pytestmark = pytest.mark.service

DOC = (
    "<site><item><name/><keyword/></item>"
    "<item><name/></item>"
    "<people><person><profile/><name/></person></people></site>"
)

XPATH = "Child*[lab() = item]/Child[lab() = name]"


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


class TestHeadDecision:
    def test_boundary_rates(self):
        tid = new_trace_id()
        assert head_decision(tid, 1.0) is True
        assert head_decision(tid, 0.0) is False

    def test_deterministic_per_id(self):
        tid = new_trace_id()
        verdicts = {head_decision(tid, 0.37) for _ in range(50)}
        assert len(verdicts) == 1

    def test_rate_monotone(self):
        """An id kept at a low rate is kept at every higher rate — the
        threshold construction, not independent coin flips."""
        ids = [new_trace_id() for _ in range(500)]
        low = {t for t in ids if head_decision(t, 0.2)}
        high = {t for t in ids if head_decision(t, 0.8)}
        assert low <= high

    def test_rate_is_approximately_honored(self):
        ids = [new_trace_id() for _ in range(4000)]
        kept = sum(head_decision(t, 0.25) for t in ids)
        assert 0.17 < kept / len(ids) < 0.33

    def test_malformed_id_never_raises(self):
        assert head_decision("not-hex!!", 0.5) in (True, False)
        assert head_decision("", 0.5) in (True, False)


class TestTraceSampler:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceSampler(head_rate=1.5)
        with pytest.raises(ValueError):
            TraceSampler(head_rate=-0.1)
        with pytest.raises(ValueError):
            TraceSampler(slow_ms=-1)

    def test_head_only_record_matches_decision(self):
        sampler = TraceSampler(head_rate=0.3, slow_ms=None, keep_errors=False)
        for _ in range(50):
            tid = new_trace_id()
            assert sampler.record(tid) == head_decision(tid, 0.3)

    def test_tail_and_error_force_record_all(self):
        assert TraceSampler(head_rate=0.0, slow_ms=5.0,
                            keep_errors=False).record(new_trace_id())
        assert TraceSampler(head_rate=0.0, slow_ms=None,
                            keep_errors=True).record(new_trace_id())

    def test_disabled_sampler(self):
        sampler = TraceSampler(head_rate=0.0, slow_ms=None, keep_errors=False)
        assert not sampler.enabled
        assert sampler.record(new_trace_id()) is False
        assert sampler.retain(new_trace_id(), 10.0, failed=True) is None

    def test_retain_policy_precedence(self):
        sampler = TraceSampler(head_rate=1.0, slow_ms=100.0, keep_errors=True)
        tid = new_trace_id()
        assert sampler.retain(tid, 0.5, failed=True) == "error"
        assert sampler.retain(tid, 0.5, failed=False) == "slow"
        assert sampler.retain(tid, 0.001, failed=False) == "head"
        strict = TraceSampler(head_rate=0.0, slow_ms=100.0, keep_errors=True)
        assert strict.retain(tid, 0.001, failed=False) is None

    def test_describe(self):
        assert TraceSampler(head_rate=0.5, slow_ms=20.0).describe() == {
            "head_rate": 0.5, "slow_ms": 20.0, "keep_errors": True,
        }


# ---------------------------------------------------------------------------
# the event log writer
# ---------------------------------------------------------------------------


def _record(tid: str, **extra) -> dict:
    base = {"schema": EVENT_SCHEMA, "trace_id": tid, "route": "query",
            "outcome": "ok", "duration_ms": 1.0, "sampled": True}
    base.update(extra)
    return base


class TestEventLogWriter:
    def test_writes_one_json_line_per_record(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        ids = [new_trace_id() for _ in range(5)]
        with EventLogWriter(path) as writer:
            for tid in ids:
                assert writer.submit(_record(tid)) is True
            assert writer.flush(timeout=5.0)
            stats = writer.stats()
        assert stats["submitted"] == 5
        assert stats["written"] == 5
        assert stats["dropped"] == 0
        with open(path, encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh]
        assert [r["trace_id"] for r in lines] == ids
        assert all(r["schema"] == EVENT_SCHEMA for r in lines)

    def test_size_rotation_bounds_the_pair(self, tmp_path):
        import os

        path = str(tmp_path / "events.jsonl")
        with EventLogWriter(path, max_bytes=1024) as writer:
            for i in range(200):
                writer.submit(_record(new_trace_id(), pad="x" * 64, i=i))
            assert writer.flush(timeout=10.0)
            stats = writer.stats()
        assert stats["rotations"] >= 1
        assert os.path.exists(path + ".1")
        # one backup generation only: the pair never exceeds ~2x the cap
        total = os.path.getsize(path) + os.path.getsize(path + ".1")
        assert total <= 2 * 1024 + 512

    def test_full_queue_drops_and_counts_never_blocks(self, tmp_path):
        """A stalled disk must turn into counted data loss, not into
        request latency: submit() returns False immediately."""
        path = str(tmp_path / "events.jsonl")
        writer = EventLogWriter(path, queue_size=2)
        gate = threading.Event()
        entered = threading.Event()
        inner = writer._write_one

        def stalled(record):
            entered.set()
            gate.wait(10.0)
            return inner(record)

        writer._write_one = stalled
        try:
            before = METRICS.snapshot().get("eventlog.dropped", 0)
            # the first record must be *in* the writer thread before the
            # rest arrive, or the drain could free a queue slot mid-burst
            results = [writer.submit(_record(new_trace_id()))]
            assert entered.wait(10.0)
            results += [writer.submit(_record(new_trace_id())) for _ in range(7)]
            # one record stalls in the writer thread, two fill the queue;
            # everything past that bounded backlog is dropped
            assert results == [True] * 3 + [False] * 5
            gate.set()
            assert writer.flush(timeout=10.0)
            stats = writer.stats()
            assert stats["dropped"] == results.count(False)
            assert stats["written"] == results.count(True)
            assert stats["submitted"] == 8
            after = METRICS.snapshot().get("eventlog.dropped", 0)
            assert after - before == stats["dropped"]
        finally:
            gate.set()
            writer.close()

    def test_closed_writer_drops_and_counts(self, tmp_path):
        writer = EventLogWriter(str(tmp_path / "events.jsonl"))
        writer.close()
        assert writer.submit(_record(new_trace_id())) is False
        assert writer.stats()["dropped"] == 1

    def test_injected_fault_degrades_to_counted_drop(self, tmp_path):
        """The obs.eventlog fault site: an injected write failure costs
        exactly the one record, and the writer keeps going."""
        path = str(tmp_path / "events.jsonl")
        with EventLogWriter(path) as writer:
            with FaultPlan(["obs.eventlog:error@nth=1"], seed=0) as plan:
                writer.submit(_record("doomed-record-0000"))
                writer.submit(_record("survivor-record-00"))
                assert writer.flush(timeout=5.0)
            assert plan.trips
            stats = writer.stats()
        assert stats == {
            "submitted": 2, "written": 1, "dropped": 1,
            "rotations": 0, "queued": 0,
        }
        with open(path, encoding="utf-8") as fh:
            survivors = [json.loads(line)["trace_id"] for line in fh]
        assert survivors == ["survivor-record-00"]

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            EventLogWriter(str(tmp_path / "x"), max_bytes=10)
        with pytest.raises(ValueError):
            EventLogWriter(str(tmp_path / "x"), queue_size=0)


class TestTraceBuffer:
    def test_ring_trims_oldest(self):
        ring = TraceBuffer(capacity=3)
        for i in range(5):
            ring.add(_record(f"trace-{i:032d}"))
        assert len(ring) == 3
        assert ring.get("trace-" + "0" * 31 + "0") is None
        assert ring.get(f"trace-{4:032d}") is not None

    def test_list_is_newest_first_without_spans(self):
        ring = TraceBuffer(capacity=8)
        ring.add(_record("a" * 32, spans={"name": "request:query"}))
        ring.add(_record("b" * 32))
        listing = ring.list()
        assert [r["trace_id"] for r in listing] == ["b" * 32, "a" * 32]
        assert all("spans" not in r for r in listing)

    def test_get_returns_a_copy(self):
        ring = TraceBuffer()
        ring.add(_record("c" * 32))
        ring.get("c" * 32)["outcome"] = "mutated"
        assert ring.get("c" * 32)["outcome"] == "ok"


# ---------------------------------------------------------------------------
# ContextVar propagation
# ---------------------------------------------------------------------------


class TestContextPropagation:
    def test_observed_scopes_the_context(self):
        tid = new_trace_id()
        assert current() is None
        with observed(Observation(trace_id=tid)) as obs:
            assert current() is obs
            assert current().trace_id == tid
        assert current() is None  # no leak past the request

    def test_fresh_thread_sees_no_foreign_context(self):
        """Each server worker thread gets its own ContextVar slot: one
        request's observation must be invisible to another thread."""
        seen: list = []
        with observed(Observation(trace_id=new_trace_id())):
            worker = threading.Thread(target=lambda: seen.append(current()))
            worker.start()
            worker.join()
        assert seen == [None]

    def test_engine_stamps_ambient_id_on_stats_fast_path(self):
        tid = new_trace_id()
        db = Database.from_xml(DOC)
        with observed(Observation(trace_id=tid)):
            stats = db.xpath(XPATH).stats
        assert stats.trace_id == tid
        assert db.xpath(XPATH).stats.trace_id is None  # outside: untagged

    def test_supervisor_attempts_tagged_with_trace_id(self):
        """Every retry leg of a supervised call carries the request id —
        the attempt chain in an error payload is joinable to its trace."""
        tid = new_trace_id()
        db = Database.from_xml(DOC)
        with FaultPlan(["strategy.linear:transient@nth=1"], seed=0) as plan:
            with observed(Observation(trace_id=tid)):
                result = db.xpath(XPATH, strategy="linear", retries=1)
        assert plan.trips
        stats = result.stats
        assert stats.trace_id == tid
        assert len(stats.attempts) == 2
        assert [a.trace_id for a in stats.attempts] == [tid, tid]
        assert stats.attempts[0].outcome == "transient"

    def test_engine_spans_nest_under_ambient_tracer(self):
        """The service middleware's open request root adopts the engine
        call's spans — one tree per request, not one per engine call."""
        tracer = Tracer()
        obs = Observation(tracer=tracer, trace_id=new_trace_id())
        db = Database.from_xml(DOC)
        with observed(obs):
            with obs.span("request:query"):
                db.xpath(XPATH)
        names = [span.name for span in tracer.root.iter_spans()]
        assert names[0] == "request:query"
        assert "query:xpath" in names
        assert any(name.startswith("strategy:xpath:") for name in names)


# ---------------------------------------------------------------------------
# the service: echo, retrieval, acceptance
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def traced_setup(tmp_path_factory):
    log_path = str(tmp_path_factory.mktemp("tracing") / "events.jsonl")
    event_log = EventLogWriter(log_path)
    service = QueryService(
        sampler=TraceSampler(head_rate=1.0, keep_errors=True),
        event_log=event_log,
    )
    srv = make_server(service)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv.server_address[1], service, log_path
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=10)
    event_log.close()


def request(port, method, path, body=None, headers=None):
    """One HTTP exchange; returns (status, response headers, JSON)."""
    if isinstance(body, (dict, list)):
        body = json.dumps(body).encode()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        payload = response.read()
    finally:
        conn.close()
    return (
        response.status,
        dict(response.getheaders()),
        json.loads(payload) if payload else None,
    )


@pytest.fixture()
def traced_store(traced_setup):
    port, _, _ = traced_setup
    status, _, _ = request(port, "PUT", "/stores/tdocs", DOC.encode())
    assert status == 201
    yield "tdocs"
    request(port, "DELETE", "/stores/tdocs")


class TestServiceTraceEcho:
    def test_fresh_id_in_header_body_and_stats(self, traced_setup, traced_store):
        port, _, _ = traced_setup
        status, headers, payload = request(
            port, "POST", f"/stores/{traced_store}/query",
            {"kind": "xpath", "query": XPATH},
        )
        assert status == 200
        tid = payload["trace_id"]
        assert len(tid) == 32 and set(tid) <= set("0123456789abcdef")
        assert headers["X-Repro-Trace"] == tid
        assert payload["stats"]["trace_id"] == tid

    def test_client_supplied_id_round_trips(self, traced_setup, traced_store):
        port, _, _ = traced_setup
        mine = "client-trace-0042"
        status, headers, payload = request(
            port, "POST", f"/stores/{traced_store}/query",
            {"kind": "xpath", "query": XPATH},
            headers={"X-Repro-Trace": mine},
        )
        assert status == 200
        assert payload["trace_id"] == mine
        assert headers["X-Repro-Trace"] == mine

    @pytest.mark.parametrize(
        "bad", ["short", "x" * 200, "bad id with spaces", "crlf\r\nInjected: 1"]
    )
    def test_unusable_client_id_gets_a_fresh_one(
        self, traced_setup, traced_store, bad
    ):
        port, _, _ = traced_setup
        status, headers, payload = request(
            port, "POST", f"/stores/{traced_store}/query",
            {"kind": "xpath", "query": XPATH},
            headers={"X-Repro-Trace": bad.replace("\r\n", "")},
        )
        assert status == 200
        assert payload["trace_id"] != bad
        assert len(payload["trace_id"]) == 32

    def test_error_payload_carries_trace_id(self, traced_setup):
        port, _, _ = traced_setup
        status, headers, payload = request(
            port, "GET", "/stores/no-such-store"
        )
        assert status == 404
        assert payload["error"]["trace_id"] == headers["X-Repro-Trace"]

    def test_same_worker_thread_does_not_leak_ids(
        self, traced_setup, traced_store
    ):
        """Back-to-back requests on one keep-alive connection reuse one
        handler thread; each must still get its own trace id."""
        port, _, _ = traced_setup
        body = json.dumps({"kind": "xpath", "query": XPATH}).encode()
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            ids = []
            for _ in range(3):
                conn.request(
                    "POST", f"/stores/{traced_store}/query", body=body
                )
                response = conn.getresponse()
                ids.append(json.loads(response.read())["trace_id"])
        finally:
            conn.close()
        assert len(set(ids)) == 3


class TestTraceRetrieval:
    def test_debug_traces_listing(self, traced_setup, traced_store):
        port, service, _ = traced_setup
        _, _, payload = request(
            port, "POST", f"/stores/{traced_store}/query",
            {"kind": "xpath", "query": XPATH},
        )
        tid = payload["trace_id"]
        status, _, listing = request(port, "GET", "/debug/traces?limit=10")
        assert status == 200
        assert listing["sampler"] == service.sampler.describe()
        assert "event_log" in listing
        entry = next(t for t in listing["traces"] if t["trace_id"] == tid)
        assert entry["route"] == "query"
        assert entry["outcome"] == "ok"
        assert entry["store"] == traced_store
        assert "spans" not in entry  # span trees stay behind the id lookup

    def test_debug_trace_by_id_has_span_tree(self, traced_setup, traced_store):
        port, _, _ = traced_setup
        _, _, payload = request(
            port, "POST", f"/stores/{traced_store}/query",
            {"kind": "xpath", "query": XPATH, "strategy": "linear"},
        )
        tid = payload["trace_id"]
        status, _, got = request(port, "GET", f"/debug/traces/{tid}")
        assert status == 200
        record = got["trace"]
        assert record["schema"] == EVENT_SCHEMA
        assert record["retained_by"] == "head"
        assert record["strategy"] == "linear"
        spans = record["spans"]
        assert spans["name"] == "request:query"

        def names(node):
            yield node["name"]
            for child in node.get("children", ()):
                yield from names(child)

        assert "query:xpath" in list(names(spans))

    def test_unknown_trace_is_a_typed_404(self, traced_setup):
        port, _, _ = traced_setup
        status, _, payload = request(port, "GET", "/debug/traces/" + "f" * 32)
        assert status == 404
        assert payload["error"]["code"] == "trace-not-found"
        assert payload["error"]["trace_id"]  # even this error is traced

    def test_bad_limit_is_a_typed_400(self, traced_setup):
        port, _, _ = traced_setup
        status, _, payload = request(port, "GET", "/debug/traces?limit=bogus")
        assert status == 400
        assert payload["error"]["code"] == "bad-limit"

    def test_acceptance_failed_request_replays_with_failed_attempt(
        self, traced_setup, traced_store
    ):
        """The PR's acceptance path: a fault-injected failing request
        hands the client a trace id inside the typed error body, and
        both retrieval surfaces replay its span tree including the
        failed attempt."""
        from repro.cli import main

        port, service, log_path = traced_setup
        with FaultPlan(["strategy.linear:error@nth=1"], seed=0) as plan:
            status, headers, payload = request(
                port, "POST", f"/stores/{traced_store}/query",
                {"kind": "xpath", "query": XPATH, "strategy": "linear"},
            )
        assert plan.trips
        assert status == 500
        error = payload["error"]
        assert error["code"] == "injected-fault"
        tid = error["trace_id"]
        assert tid == headers["X-Repro-Trace"]

        # surface 1: the live ring buffer
        status, _, got = request(port, "GET", f"/debug/traces/{tid}")
        assert status == 200
        record = got["trace"]
        assert record["outcome"] == "error"
        assert record["retained_by"] == "error"
        assert record["error_code"] == "injected-fault"

        def names(node):
            yield node["name"]
            for child in node.get("children", ()):
                yield from names(child)

        tree = list(names(record["spans"]))
        assert tree[0] == "request:query"
        assert any("linear" in name for name in tree)  # the failed attempt

        # surface 2: the event log via the CLI (same record, from disk)
        assert service.event_log.flush(timeout=5.0)
        assert main(["trace", "show", tid, "--log", log_path]) == 0


# ---------------------------------------------------------------------------
# the repro trace CLI
# ---------------------------------------------------------------------------


@pytest.fixture()
def event_log_file(tmp_path):
    """A small hand-rolled event log with one span-bearing record."""
    from repro.obs.export import trace_to_dict

    tracer = Tracer()
    with tracer.span("request:query"):
        with tracer.span("query:xpath"):
            pass
    path = str(tmp_path / "events.jsonl")
    records = [
        _record("a" * 32, duration_ms=5.0),
        _record("b" * 32, duration_ms=50.0, spans=trace_to_dict(tracer.root)),
        _record("c" * 32, duration_ms=0.5),
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("this line is corrupt{{{\n")  # skipped, not fatal
        for record in records:
            fh.write(json.dumps(record) + "\n")
    return path


class TestTraceCli:
    def test_list(self, event_log_file, capsys):
        from repro.cli import main

        assert main(["trace", "list", "--log", event_log_file]) == 0
        out = capsys.readouterr().out
        assert "a" * 32 in out and "c" * 32 in out

    def test_list_limit(self, event_log_file, capsys):
        from repro.cli import main

        assert main(
            ["trace", "list", "--log", event_log_file, "--limit", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "c" * 32 in out and "a" * 32 not in out

    def test_show_renders_the_waterfall(self, event_log_file, capsys):
        from repro.cli import main

        assert main(["trace", "show", "b" * 32, "--log", event_log_file]) == 0
        out = capsys.readouterr().out
        assert "request:query" in out
        assert "query:xpath" in out

    def test_show_unknown_id_exits_1(self, event_log_file):
        from repro.cli import main

        assert main(["trace", "show", "nope", "--log", event_log_file]) == 1

    def test_top_ranks_by_duration(self, event_log_file, capsys):
        from repro.cli import main

        assert main(
            ["trace", "top", "--log", event_log_file, "--slowest", "2"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("b" * 32)
        assert lines[1].startswith("a" * 32)
        assert len(lines) == 2

    def test_missing_log_exits_2(self, tmp_path):
        from repro.cli import main

        missing = str(tmp_path / "nope.jsonl")
        assert main(["trace", "list", "--log", missing]) == 2
        assert main(["trace", "top", "--log", missing]) == 2


# ---------------------------------------------------------------------------
# OpenMetrics exposition lint
# ---------------------------------------------------------------------------


class TestOpenMetricsLint:
    def test_live_exposition_is_clean(self):
        METRICS.observe_duration("service.request", 0.012)
        METRICS.add("service.requests")
        text = render_openmetrics(METRICS)
        assert lint_openmetrics(text) == []

    def test_missing_eof_is_flagged(self):
        assert any(
            "EOF" in problem
            for problem in lint_openmetrics("repro_queries_total 1\n")
        )

    def test_nonmonotone_buckets_are_flagged(self):
        text = (
            "# TYPE repro_duration_seconds histogram\n"
            'repro_duration_seconds_bucket{name="x",le="0.1"} 5\n'
            'repro_duration_seconds_bucket{name="x",le="1"} 3\n'
            'repro_duration_seconds_bucket{name="x",le="+Inf"} 5\n'
            'repro_duration_seconds_count{name="x"} 5\n'
            'repro_duration_seconds_sum{name="x"} 1.0\n'
            "# EOF\n"
        )
        assert any("monoton" in p for p in lint_openmetrics(text))

    def test_missing_inf_bucket_is_flagged(self):
        text = (
            "# TYPE repro_duration_seconds histogram\n"
            'repro_duration_seconds_bucket{name="x",le="0.1"} 5\n'
            'repro_duration_seconds_count{name="x"} 5\n'
            'repro_duration_seconds_sum{name="x"} 1.0\n'
            "# EOF\n"
        )
        assert any("+Inf" in p for p in lint_openmetrics(text))

    def test_malformed_sample_is_flagged(self):
        assert lint_openmetrics("this is not a sample line\n# EOF\n")

    def test_interleaved_families_are_flagged(self):
        # every family declared up front, samples after: all but the
        # last family's samples sit outside their block
        text = (
            "# TYPE repro_bench_median gauge\n"
            "# TYPE repro_bench_min gauge\n"
            'repro_bench_median{size="1"} 0.5\n'
            'repro_bench_min{size="1"} 0.4\n'
            "# EOF\n"
        )
        problems = lint_openmetrics(text)
        assert len(problems) == 1, problems
        assert "'repro_bench_median' outside its family's block" in problems[0]

    def test_family_declared_twice_is_flagged(self):
        text = (
            "# TYPE repro_counter counter\n"
            'repro_counter_total{name="a"} 1\n'
            "# TYPE repro_counter counter\n"
            'repro_counter_total{name="b"} 2\n'
            "# EOF\n"
        )
        problems = lint_openmetrics(text)
        assert len(problems) == 1, problems
        assert "'repro_counter' declared twice" in problems[0]


# ---------------------------------------------------------------------------
# tracing under load
# ---------------------------------------------------------------------------


class TestLoadgenTracing:
    def test_scorecard_names_the_slowest_trace(self, tmp_path):
        from repro.service.loadgen import run_load

        log_path = str(tmp_path / "load-events.jsonl")
        event_log = EventLogWriter(log_path)
        service = QueryService(sampler=TraceSampler(), event_log=event_log)
        try:
            report = run_load(
                scenarios=["deep-tree"], fast=True, requests=12,
                concurrency=3, record=False, service=service,
            )
        finally:
            event_log.close()
        card = report["scenarios"]["deep-tree"]
        assert card["errors"] == 0
        tid = card["slowest_trace_id"]
        assert tid and len(tid) == 32
        assert card["slowest_ms"] >= card["p50_ms"]
        # the named trace is retrievable from the event log the run wrote
        with open(log_path, encoding="utf-8") as fh:
            logged = {json.loads(line)["trace_id"] for line in fh}
        assert tid in logged

    def test_bounded_writer_drops_and_counts_under_load(self, tmp_path):
        """The no-blocking invariant under pressure: with the writer
        stalled and a one-slot queue, a full load run still answers
        every request, and the backlog shows up as counted drops."""
        from repro.service.loadgen import run_load

        event_log = EventLogWriter(
            str(tmp_path / "stalled.jsonl"), queue_size=1
        )
        gate = threading.Event()
        inner = event_log._write_one
        event_log._write_one = (
            lambda record: (gate.wait(30.0), inner(record))[1]
        )
        try:
            report = run_load(
                scenarios=["deep-tree"], fast=True, requests=16,
                concurrency=4, record=False,
                service=QueryService(
                    sampler=TraceSampler(), event_log=event_log
                ),
            )
            card = report["scenarios"]["deep-tree"]
            assert card["requests"] == 16  # nobody blocked on telemetry
            assert card["errors"] == 0
            gate.set()
            event_log.flush(timeout=10.0)
            stats = event_log.stats()
            assert stats["dropped"] > 0
            assert stats["written"] + stats["dropped"] >= stats["submitted"]
        finally:
            gate.set()
            event_log.close()
