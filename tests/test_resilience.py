"""Overload protection and crash-safe lifecycle (docs/SERVICE.md).

Unit batteries for the resilience primitives — admission control,
deadline clocks, circuit breakers, graceful drain — with injected
clocks so no test sleeps to prove a timing property, plus the
live-server acceptance scenarios: concurrent drain with byte-identical
answers, the seeded overload storm (every response is a correct answer
or a typed refusal, never a wrong answer or an untyped 500), and the
kill-9-between-write-and-rename crash-safety check for the disk store.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import (
    EvaluationError,
    QueryError,
    StorageError,
    TransientError,
)
from repro.faults import FaultPlan
from repro.service import QueryService
from repro.service.protocol import ServiceError
from repro.service.resilience import (
    AdmissionController,
    BreakerBoard,
    CircuitBreaker,
    CircuitOpenError,
    DeadlineClock,
    DeadlineExceededError,
    DrainingError,
    OverloadedError,
    counts_against_breaker,
    parse_deadline_ms,
)

DOC = "<site><item><name/><keyword/></item><item><name/></item><b/></site>"
QUERY = {"kind": "xpath", "query": "Child*[lab() = item]/Child[lab() = name]"}


class FakeClock:
    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


# ---------------------------------------------------------------------------
# deadlines
# ---------------------------------------------------------------------------


class TestDeadlineClock:
    def test_remaining_counts_down(self):
        clock = FakeClock()
        deadline = DeadlineClock(2.0, clock=clock)
        assert deadline.remaining() == pytest.approx(2.0)
        clock.advance(1.5)
        assert deadline.remaining() == pytest.approx(0.5)
        assert not deadline.expired()
        clock.advance(0.6)
        assert deadline.expired()

    def test_none_means_unbounded(self):
        deadline = DeadlineClock(None)
        assert deadline.remaining() is None
        assert not deadline.expired()
        deadline.check("anywhere")  # never raises

    def test_check_raises_typed_504(self):
        clock = FakeClock()
        deadline = DeadlineClock(0.1, clock=clock)
        clock.advance(0.2)
        with pytest.raises(DeadlineExceededError) as err:
            deadline.check("before admission")
        assert err.value.status == 504
        assert err.value.code == "deadline-exceeded"
        assert "before admission" in str(err.value)

    def test_engine_deadline_takes_the_tighter_window(self):
        clock = FakeClock()
        deadline = DeadlineClock(1.0, clock=clock)
        # body asked for more than the header window has left
        assert deadline.engine_deadline(5.0) == pytest.approx(1.0)
        # body asked for less: honour it
        assert deadline.engine_deadline(0.25) == pytest.approx(0.25)
        # queue wait shrinks what the engine sees
        clock.advance(0.6)
        assert deadline.engine_deadline(None) == pytest.approx(0.4)
        assert DeadlineClock(None).engine_deadline(3.0) == 3.0

    def test_parse_deadline_ms(self):
        assert parse_deadline_ms(None) is None
        assert parse_deadline_ms("") is None
        assert parse_deadline_ms("250") == pytest.approx(0.25)
        assert parse_deadline_ms(1500) == pytest.approx(1.5)
        for bad in ("abc", "-5", "inf", "nan"):
            with pytest.raises(ServiceError) as err:
                parse_deadline_ms(bad)
            assert err.value.code == "bad-deadline"


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------


class TestAdmissionController:
    def test_unlimited_still_counts_in_flight(self):
        admission = AdmissionController(max_concurrency=None)
        assert admission.admit() == 0.0
        assert admission.admit() == 0.0
        assert admission.snapshot()["in_flight"] == 2
        admission.release()
        admission.release()
        assert admission.snapshot()["in_flight"] == 0

    def test_sheds_with_429_when_queue_full(self):
        admission = AdmissionController(max_concurrency=1, queue_limit=0)
        admission.admit()
        with pytest.raises(OverloadedError) as err:
            admission.admit()
        assert err.value.status == 429
        assert err.value.code == "overloaded"
        assert 1.0 <= err.value.retry_after <= 30.0
        admission.release()

    def test_queued_request_gets_the_freed_slot(self):
        admission = AdmissionController(max_concurrency=1, queue_limit=4)
        admission.admit()
        waited: list[float] = []

        def queued():
            waited.append(admission.admit())
            admission.release()

        thread = threading.Thread(target=queued)
        thread.start()
        time.sleep(0.05)
        assert admission.snapshot()["queued"] == 1
        admission.release()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert len(waited) == 1 and waited[0] > 0.0
        assert admission.snapshot()["in_flight"] == 0

    def test_deadline_expires_while_queued(self):
        admission = AdmissionController(max_concurrency=1, queue_limit=4)
        admission.admit()
        deadline = DeadlineClock(0.05)
        with pytest.raises(DeadlineExceededError):
            admission.admit(deadline)
        admission.release()

    def test_queue_timeout_sheds(self):
        admission = AdmissionController(
            max_concurrency=1, queue_limit=4, queue_timeout_s=0.05
        )
        admission.admit()
        with pytest.raises(OverloadedError):
            admission.admit()
        admission.release()

    def test_draining_refuses_with_typed_503(self):
        admission = AdmissionController(max_concurrency=4)
        assert admission.drain(drain_s=0.0) is True
        with pytest.raises(DrainingError) as err:
            admission.admit()
        assert err.value.status == 503
        assert err.value.code == "draining"
        admission.resume()
        admission.admit()
        admission.release()

    def test_drain_wakes_queued_waiters_to_refuse_them(self):
        admission = AdmissionController(max_concurrency=1, queue_limit=4)
        admission.admit()
        refused: list[BaseException] = []

        def queued():
            try:
                admission.admit()
            except BaseException as exc:  # noqa: BLE001
                refused.append(exc)

        thread = threading.Thread(target=queued)
        thread.start()
        time.sleep(0.05)
        clean = admission.drain(drain_s=0.2)
        thread.join(timeout=5)
        assert len(refused) == 1 and isinstance(refused[0], DrainingError)
        # the in-flight holder never released: drain reports dirty
        assert clean is False
        admission.release()

    def test_drain_waits_for_in_flight_then_reports_clean(self):
        admission = AdmissionController(max_concurrency=2)
        admission.admit()
        threading.Timer(0.05, admission.release).start()
        assert admission.drain(drain_s=5.0) is True

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_concurrency=0)
        with pytest.raises(ValueError):
            AdmissionController(queue_limit=-1)


# ---------------------------------------------------------------------------
# circuit breakers
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def make(self, clock, threshold=2, cooldown=10.0, seed=0):
        return CircuitBreaker(
            "docs", threshold=threshold, cooldown_s=cooldown, seed=seed,
            clock=clock,
        )

    def test_opens_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        breaker = self.make(clock)
        breaker.record_failure()
        assert not breaker.is_open
        breaker.record_failure()
        assert breaker.is_open
        with pytest.raises(CircuitOpenError) as err:
            breaker.check()
        assert err.value.status == 503
        assert err.value.code == "circuit-open"
        assert err.value.retry_after > 0

    def test_success_resets_the_consecutive_count(self):
        clock = FakeClock()
        breaker = self.make(clock, threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert not breaker.is_open

    def test_half_open_single_probe_then_reclose(self):
        clock = FakeClock()
        breaker = self.make(clock)
        breaker.record_failure()
        breaker.record_failure()
        probe_in = breaker.state()["probe_in_s"]
        # jitter keeps the probe inside [cooldown, 1.5 * cooldown]
        assert 10.0 <= probe_in <= 15.0
        clock.advance(probe_in + 0.001)
        breaker.check()  # this caller carries the probe
        assert breaker.state()["state"] == "half-open"
        with pytest.raises(CircuitOpenError):
            breaker.check()  # everyone else still refused
        breaker.record_success()
        assert breaker.state()["state"] == "closed"
        breaker.check()

    def test_failed_probe_reopens_with_fresh_cooldown(self):
        clock = FakeClock()
        breaker = self.make(clock)
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(breaker.state()["probe_in_s"] + 0.001)
        breaker.check()
        breaker.record_failure()
        assert breaker.is_open
        assert breaker.state()["probe_in_s"] > 0
        assert breaker.opened_total == 2

    def test_jitter_is_seed_deterministic(self):
        def schedule(seed):
            clock = FakeClock()
            breaker = self.make(clock, seed=seed)
            breaker.record_failure()
            breaker.record_failure()
            return breaker.state()["probe_in_s"]

        assert schedule(7) == schedule(7)
        assert schedule(7) != schedule(8)

    def test_board_storming_signal(self):
        board = BreakerBoard(threshold=1)
        assert not board.storming()  # no breakers at all
        board.lease("a").record_failure()
        assert board.storming()  # 1 of 1 open
        board.lease("b")
        board.lease("c")
        assert not board.storming()  # 1 of 3 open
        board.lease("b").record_failure()
        assert board.storming()  # 2 of 3
        board.reset("a")
        board.reset("b")
        assert not board.storming()

    def test_counts_against_breaker_classification(self):
        assert counts_against_breaker(TransientError("x"))
        assert counts_against_breaker(StorageError("x"))
        assert counts_against_breaker(EvaluationError("x"))
        assert not counts_against_breaker(ServiceError("bad request"))
        assert not counts_against_breaker(OverloadedError("full", 1.0))
        assert not counts_against_breaker(QueryError("bad query"))
        assert not counts_against_breaker(ValueError("foreign"))


# ---------------------------------------------------------------------------
# the service wiring (direct method calls, no sockets)
# ---------------------------------------------------------------------------


class TestServiceWiring:
    def test_expired_deadline_refused_up_front(self):
        svc = QueryService()
        svc.ingest("docs", DOC)
        with pytest.raises(DeadlineExceededError):
            svc.query("docs", dict(QUERY), deadline_s=0.0)

    def test_open_breaker_fails_fast_and_flips_readiness(self):
        svc = QueryService(breaker_threshold=1)
        svc.ingest("docs", DOC)
        svc.breakers.lease("docs").record_failure()
        with pytest.raises(CircuitOpenError):
            svc.query("docs", dict(QUERY))
        status, payload = svc.readiness()
        assert status == 503
        assert payload["breaker_storm"] and not payload["ready"]
        # liveness stays 200 and exposes the breaker state
        status, payload = svc.health()
        assert status == 200
        assert payload["breakers"]["docs"]["state"] == "open"

    def test_reingest_resets_the_breaker(self):
        svc = QueryService(breaker_threshold=1)
        svc.ingest("docs", DOC)
        svc.breakers.lease("docs").record_failure()
        svc.ingest("docs", DOC)
        status, payload = svc.query("docs", dict(QUERY))
        assert status == 200 and payload["answer"]

    def test_engine_failures_trip_the_breaker_client_errors_do_not(self):
        svc = QueryService(breaker_threshold=1)
        svc.ingest("docs", DOC)
        with pytest.raises(ServiceError):
            svc.query("docs", {"kind": "xpath", "query": "Child[", "x": 1})
        # a client error never indicts the store
        assert svc.breakers.lease("docs").state()["state"] == "closed"
        with FaultPlan(["strategy.*:transient@every=1"], seed=0):
            with pytest.raises(Exception):
                svc.query(
                    "docs", dict(QUERY, retries=0, on_error="raise")
                )
        assert svc.breakers.lease("docs").state()["state"] == "open"

    def test_shed_counts_as_refusal_not_error(self):
        from repro.obs.metrics import METRICS

        svc = QueryService(max_concurrency=1, queue_limit=0)
        svc.ingest("docs", DOC)
        svc.admission.admit()
        errors = METRICS.get("service.errors")
        sheds = METRICS.get("service.shed")
        refusals = METRICS.get("service.refusals")
        with pytest.raises(OverloadedError):
            with svc.observe("query"):
                svc.query("docs", dict(QUERY))
        svc.admission.release()
        assert METRICS.get("service.shed") == sheds + 1
        assert METRICS.get("service.refusals") == refusals + 1
        assert METRICS.get("service.errors") == errors

    def test_shutdown_drains_cleanly_when_idle(self):
        svc = QueryService()
        svc.ingest("docs", DOC)
        assert svc.shutdown(drain_s=0.5) is True
        with pytest.raises(DrainingError):
            svc.query("docs", dict(QUERY))


# ---------------------------------------------------------------------------
# live-server acceptance scenarios
# ---------------------------------------------------------------------------


def _request(port, method, path, body=None, headers=None):
    if isinstance(body, (dict, list)):
        body = json.dumps(body).encode()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        payload = response.read()
        retry_after = response.getheader("Retry-After")
    finally:
        conn.close()
    return response.status, (json.loads(payload) if payload else None), retry_after


@pytest.mark.service
class TestDeadlineOverHTTP:
    def test_expired_header_deadline_is_504(self, live_server):
        _, _, port = live_server()
        status, _, _ = _request(port, "PUT", "/stores/docs", DOC.encode())
        assert status == 201
        status, payload, _ = _request(
            port, "POST", "/stores/docs/query", QUERY,
            headers={"X-Repro-Deadline-Ms": "0"},
        )
        assert status == 504
        assert payload["error"]["code"] == "deadline-exceeded"

    def test_generous_header_deadline_still_answers(self, live_server):
        _, _, port = live_server()
        _request(port, "PUT", "/stores/docs", DOC.encode())
        status, payload, _ = _request(
            port, "POST", "/stores/docs/query", QUERY,
            headers={"X-Repro-Deadline-Ms": "30000"},
        )
        assert status == 200 and payload["answer"]

    def test_malformed_header_is_typed_400(self, live_server):
        _, _, port = live_server()
        status, payload, _ = _request(
            port, "GET", "/healthz", headers={"X-Repro-Deadline-Ms": "soon"}
        )
        assert status == 400
        assert payload["error"]["code"] == "bad-deadline"


@pytest.mark.service
class TestIngestDeadlineOverHTTP:
    """A PUT's deadline bounds its parse, which charges the request's
    budget once per batch; an armed ``xml.parse`` latency fault longer
    than the deadline makes the overrun deterministic."""

    def test_parse_past_the_deadline_installs_nothing(self, live_server):
        _, _, port = live_server()
        with FaultPlan(["xml.parse:latency:0.3@every=1"], seed=0):
            status, payload, _ = _request(
                port, "PUT", "/stores/w", DOC.encode(),
                headers={"X-Repro-Deadline-Ms": "50"},
            )
            assert status == 429
            assert payload["error"]["code"] == "budget-exhausted"
            status, payload, _ = _request(port, "GET", "/stores/w")
            assert status == 404
            assert payload["error"]["code"] == "store-not-found"
            status, _, _ = _request(port, "PUT", "/stores/w", DOC.encode())
            assert status == 201

    def test_in_process_ingest(self):
        from repro.errors import ResourceBudgetExceeded

        svc = QueryService()
        with FaultPlan(["xml.parse:latency:0.3@every=1"], seed=0):
            with pytest.raises(ResourceBudgetExceeded):
                svc.ingest("w", DOC, deadline_s=0.05)
        assert svc.stores.names() == []
        assert svc.ingest("w", DOC, deadline_s=30)[0] == 201


@pytest.mark.service
class TestShedOverHTTP:
    def test_held_slot_sheds_typed_429_then_admits(self, live_server):
        """With the only slot held and no queue, a query is shed as a
        typed 429 that says when to come back; once the slot is free
        the same query answers."""
        svc, _, port = live_server(max_concurrency=1, queue_limit=0)
        status, _, _ = _request(port, "PUT", "/stores/docs", DOC.encode())
        assert status == 201
        svc.admission.admit()
        try:
            status, payload, retry_after = _request(
                port, "POST", "/stores/docs/query", QUERY
            )
        finally:
            svc.admission.release()
        assert status == 429
        assert retry_after is not None and retry_after.isdigit()
        assert int(retry_after) >= 1
        error = payload["error"]
        assert error["code"] == "overloaded"
        assert isinstance(error["retry_after"], (int, float))
        assert error["retry_after"] > 0
        status, payload, _ = _request(port, "POST", "/stores/docs/query", QUERY)
        assert status == 200 and payload["answer"]


@pytest.mark.service
class TestGracefulDrainOverHTTP:
    """Satellite: N in-flight queries complete byte-identically through
    a drain; a straggler arriving mid-drain gets the typed 503."""

    N = 6

    def test_in_flight_complete_straggler_refused(self, live_server):
        svc, srv, port = live_server()
        status, _, _ = _request(port, "PUT", "/stores/docs", DOC.encode())
        assert status == 201
        _, clean, _ = _request(port, "POST", "/stores/docs/query", QUERY)
        results: list = []
        drained: list = []

        # slow every request down so the drain provably overlaps them
        with FaultPlan(["strategy.*:latency:0.4@every=1"], seed=0):
            with ThreadPoolExecutor(max_workers=self.N) as pool:
                futures = [
                    pool.submit(
                        _request, port, "POST", "/stores/docs/query", QUERY
                    )
                    for _ in range(self.N)
                ]
                time.sleep(0.15)  # all N are now mid-flight
                drainer = threading.Thread(
                    target=lambda: drained.append(
                        srv.shutdown_gracefully(drain_s=5.0)
                    )
                )
                drainer.start()
                time.sleep(0.05)
                straggler = _request(port, "POST", "/stores/docs/query", QUERY)
                results = [f.result() for f in futures]
                drainer.join(timeout=10)

        assert drained == [True], "drain must complete cleanly"
        for status, payload, _ in results:
            assert status == 200
            assert payload["answer"] == clean["answer"]
        status, payload, _ = straggler
        assert status == 503
        assert payload["error"]["code"] == "draining"

    def test_readyz_flips_during_drain_healthz_stays_up(self, live_server):
        svc, srv, port = live_server()
        status, payload, _ = _request(port, "GET", "/readyz")
        assert status == 200 and payload["ready"]
        assert svc.shutdown(drain_s=0.2) is True
        status, payload, _ = _request(port, "GET", "/readyz")
        assert status == 503
        assert payload["draining"] and not payload["ready"]
        status, payload, _ = _request(port, "GET", "/healthz")
        assert status == 200 and payload["ok"]


@pytest.mark.service
class TestOverloadStorm:
    """The acceptance scenario: concurrency 2, small queue, 16 hammering
    clients, seeded transient faults on the store's breaker path.  Every
    response is a correct answer or a typed refusal — zero wrong
    answers, zero untyped 500s — and the service drains cleanly after.
    """

    CLIENTS = 16
    PER_CLIENT = 5

    def test_storm_yields_only_typed_outcomes(self, live_server):
        svc, srv, port = live_server(
            max_concurrency=2, queue_limit=2, breaker_threshold=3,
            breaker_cooldown_s=0.2,
        )
        status, _, _ = _request(port, "PUT", "/stores/docs", DOC.encode())
        assert status == 201
        _, clean, _ = _request(port, "POST", "/stores/docs/query", QUERY)
        outcomes: list[tuple] = []
        lock = threading.Lock()

        def client(i):
            for _ in range(self.PER_CLIENT):
                result = _request(port, "POST", "/stores/docs/query", QUERY)
                with lock:
                    outcomes.append(result)

        with FaultPlan(["service.breaker:transient@every=4"], seed=42):
            with ThreadPoolExecutor(max_workers=self.CLIENTS) as pool:
                list(pool.map(client, range(self.CLIENTS)))

        assert len(outcomes) == self.CLIENTS * self.PER_CLIENT
        seen = set()
        for status, payload, retry_after in outcomes:
            if status == 200:
                assert payload["answer"] == clean["answer"], (
                    "wrong answer under overload"
                )
                seen.add("ok")
                continue
            error = payload.get("error") or {}
            code = error.get("code")
            assert code and error.get("type"), (
                f"untyped HTTP {status}: {payload!r}"
            )
            assert (status, code) in {
                (429, "overloaded"),
                (503, "circuit-open"),
                (503, "transient-failure"),
                (504, "deadline-exceeded"),
            }, (status, code)
            if status == 429:
                assert retry_after is not None and int(retry_after) >= 1
            seen.add(code)
        assert "ok" in seen, "nothing succeeded during the storm"
        assert "transient-failure" in seen or "circuit-open" in seen
        # after the storm: a clean drain
        assert svc.shutdown(drain_s=5.0) is True


# ---------------------------------------------------------------------------
# crash safety: kill -9 between write and rename
# ---------------------------------------------------------------------------


class TestKillNineCrashSafety:
    def test_previous_version_survives_a_kill_before_rename(self, tmp_path):
        """A subprocess dumps v1, then dies with SIGKILL at the exact
        write/rename boundary while dumping v2 — the store must still
        load as v1."""
        from repro.storage import load_tree

        path = tmp_path / "doc.rtre"
        script = textwrap.dedent(
            """
            import os, sys
            from repro.trees.xmlio import parse_xml
            from repro.storage import dump_tree

            path = sys.argv[1]
            dump_tree(parse_xml("<a><old/></a>"), path)
            # die at the boundary: bytes written + fsynced, rename not done
            def die(src, dst):
                os.kill(os.getpid(), 9)
            os.replace = die
            dump_tree(parse_xml("<a><b/><c/></a>"), path)
            """
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            env=env, capture_output=True, timeout=60,
        )
        assert proc.returncode == -9, proc.stderr.decode()
        tree = load_tree(str(path))
        assert tree.label == ["a", "old"]
