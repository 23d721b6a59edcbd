"""The HTTP query service, over real sockets.

Boots the threaded server on an ephemeral port once per module and
drives it with plain ``http.client`` connections: endpoint coverage,
the typed error taxonomy (HTTP twins of the CLI exit codes), the two
service fault-injection sites, and a concurrent smoke test showing N
simultaneous HTTP clients get byte-identical answers.

The fault tests pin the headline robustness property: an armed
:class:`~repro.faults.FaultPlan` (deliberately process-global, so a
plan armed on the test thread trips the server's worker threads) makes
the service answer *degraded, typed* errors — never wrong answers.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.engine import Database
from repro.faults import FaultPlan
from repro.obs.metrics import METRICS
from repro.service import QueryService, make_server
from repro.trees import to_xml
from repro.workloads import deep_tree, wide_tree

from conftest import run_fresh

pytestmark = pytest.mark.service

DOC = (
    "<site><item><name/><keyword/></item>"
    "<item><name/></item>"
    "<people><person><profile/><name/></person></people></site>"
)

XPATH = "Child*[lab() = item]/Child[lab() = name]"


@pytest.fixture(scope="module")
def server():
    srv = make_server(QueryService())
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=10)


@pytest.fixture(scope="module")
def port(server):
    return server.server_address[1]


def request(port, method, path, body=None, raw=False, headers=None):
    """One HTTP exchange; returns (status, parsed JSON | raw bytes)."""
    if isinstance(body, (dict, list)):
        body = json.dumps(body).encode()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        payload = response.read()
    finally:
        conn.close()
    if raw:
        return response.status, payload
    return response.status, (json.loads(payload) if payload else None)


def raw_request(port, head: bytes, timeout: float = 30):
    """Send ``head`` verbatim over a socket, for requests http.client
    will not build; returns (status, response headers, parsed JSON)."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(head)
        response = http.client.HTTPResponse(sock)
        response.begin()
        payload = json.loads(response.read())
        return response.status, dict(response.getheaders()), payload


@pytest.fixture()
def store(port):
    """A fresh 'docs' store for each test; dropped afterwards."""
    status, _ = request(port, "PUT", "/stores/docs", DOC.encode())
    assert status == 201
    yield "docs"
    request(port, "DELETE", "/stores/docs")


class TestEndpoints:
    def test_healthz(self, port):
        status, payload = request(port, "GET", "/healthz")
        assert status == 200 and payload["ok"] is True

    def test_store_lifecycle(self, port):
        status, payload = request(port, "PUT", "/stores/life", DOC.encode())
        assert status == 201
        assert payload["store"]["nodes"] == 10
        assert payload["store"]["replaced"] is False

        status, payload = request(port, "GET", "/stores")
        assert status == 200
        assert "life" in [s["name"] for s in payload["stores"]]

        status, payload = request(port, "GET", "/stores/life")
        assert status == 200 and payload["store"]["queries_served"] == 0

        status, payload = request(port, "PUT", "/stores/life", DOC.encode())
        assert status == 201 and payload["store"]["replaced"] is True

        status, payload = request(port, "DELETE", "/stores/life")
        assert status == 200 and payload["deleted"] == "life"
        assert request(port, "GET", "/stores/life")[0] == 404

    @pytest.mark.parametrize(
        "body",
        [
            {"kind": "xpath", "query": XPATH},
            {"kind": "twig", "query": "//item/name"},
            {"kind": "cq", "query": "ans(y) :- Child(x, y), Lab:item(x), Lab:name(y)"},
            {"kind": "datalog", "query": "Q(x) :- Lab:name(x).", "query_pred": "Q"},
        ],
        ids=["xpath", "twig", "cq", "datalog"],
    )
    def test_each_language_matches_direct_engine(self, port, store, body):
        from repro.service.protocol import encode_answer

        db = Database.from_xml(DOC)
        if body["kind"] == "datalog":
            expected = db.datalog(body["query"], query_pred="Q").answer
        else:
            expected = db.run(body["kind"], body["query"]).answer
        status, payload = request(port, "POST", f"/stores/{store}/query", body)
        assert status == 200
        assert payload["answer"] == encode_answer(expected)
        assert payload["stats"]["strategy"]

    def test_query_with_supervision_keywords(self, port, store):
        body = {
            "kind": "xpath", "query": XPATH,
            "deadline_ms": 60_000, "retries": 1, "on_error": "fallback",
        }
        status, payload = request(port, "POST", f"/stores/{store}/query", body)
        assert status == 200 and payload["stats"]["degraded"] is False

    def test_batch_mixed_outcomes(self, port, store):
        body = {"queries": [
            {"kind": "xpath", "query": XPATH},
            {"kind": "xpath", "query": "(("},
            {"kind": "nope", "query": "x"},
        ]}
        status, payload = request(port, "POST", f"/stores/{store}/batch", body)
        assert status == 200
        assert payload["total"] == 3 and payload["failed"] == 2
        ok, bad_parse, bad_kind = payload["results"]
        assert ok["ok"] is True and ok["answer"] == [2, 5]
        assert bad_parse["ok"] is False
        assert bad_parse["error"]["code"] == "parse-error"
        assert bad_kind["ok"] is False
        assert bad_kind["error"]["code"] == "bad-request"

    def test_metrics_exposition(self, port, store):
        request(port, "POST", f"/stores/{store}/query",
                {"kind": "xpath", "query": XPATH})
        status, payload = request(port, "GET", "/metrics", raw=True)
        assert status == 200
        text = payload.decode()
        assert "repro_duration_seconds" in text
        assert "service.request" in text or "service_request" in text


class TestErrorTaxonomy:
    def test_unknown_store_404(self, port):
        status, payload = request(
            port, "POST", "/stores/ghost/query", {"kind": "xpath", "query": "Child"}
        )
        assert status == 404 and payload["error"]["code"] == "store-not-found"

    def test_unknown_route_404(self, port):
        status, payload = request(port, "GET", "/not/a/route")
        assert status == 404 and payload["error"]["code"] == "no-such-route"

    def test_bad_store_name_400(self, port):
        status, payload = request(port, "PUT", "/stores/bad%20name", DOC.encode())
        assert status == 400 and payload["error"]["code"] == "bad-store-name"

    def test_bad_json_body_400(self, port, store):
        status, payload = request(
            port, "POST", f"/stores/{store}/query", b"{not json"
        )
        assert status == 400 and payload["error"]["code"] == "bad-json"

    @pytest.mark.parametrize("length", ["-1", "abc"])
    def test_malformed_content_length_400(self, port, store, length):
        """Reading -1 bytes would block until the client hangs up: the
        short timeout turns that hang into a failure."""
        unexpected = METRICS.get("service.unexpected_errors")
        status, headers, payload = raw_request(
            port,
            f"POST /stores/{store}/query HTTP/1.1\r\nHost: localhost\r\n"
            f"Content-Length: {length}\r\n\r\n".encode(),
            timeout=3,
        )
        assert status == 400
        assert payload["error"]["code"] == "bad-content-length"
        assert METRICS.get("service.unexpected_errors") == unexpected
        # the body cannot be framed, so the connection does not go on
        assert headers["Connection"] == "close"

    def test_malformed_plan_cache_400(self, port):
        status, payload = request(
            port, "PUT", "/stores/pc?plan_cache=abc", DOC.encode()
        )
        assert status == 400 and payload["error"]["code"] == "bad-plan-cache"
        assert request(port, "GET", "/stores/pc")[0] == 404

    def test_non_utf8_put_body_400(self, port):
        unexpected = METRICS.get("service.unexpected_errors")
        status, payload = request(port, "PUT", "/stores/latin", b"<a>\xff</a>")
        assert status == 400 and payload["error"]["code"] == "bad-encoding"
        assert METRICS.get("service.unexpected_errors") == unexpected
        assert request(port, "GET", "/stores/latin")[0] == 404

    def test_unknown_field_400(self, port, store):
        status, payload = request(
            port, "POST", f"/stores/{store}/query",
            {"kind": "xpath", "query": "Child", "bogus": 1},
        )
        assert status == 400 and payload["error"]["code"] == "bad-request"
        assert "bogus" in payload["error"]["message"]

    def test_query_parse_error_400(self, port, store):
        status, payload = request(
            port, "POST", f"/stores/{store}/query", {"kind": "xpath", "query": "(("}
        )
        assert status == 400 and payload["error"]["code"] == "parse-error"

    def test_document_parse_error_400(self, port):
        status, payload = request(
            port, "PUT", "/stores/badxml", b"<a><unclosed></a>"
        )
        assert status == 400 and payload["error"]["code"] == "parse-error"

    def test_budget_exhaustion_429(self, port, store):
        status, payload = request(
            port, "POST", f"/stores/{store}/query",
            {"kind": "xpath", "query": XPATH, "strategy": "linear",
             "max_visited": 1},
        )
        assert status == 429 and payload["error"]["code"] == "budget-exhausted"

    def test_auto_planned_twig_budget_exhaustion_429(self, port):
        # every twig route charges, so no fallback answers past the budget
        doc = "<r>" + "<a><b><c/></b><b><c/><a><b><c/></b></a></b></a>" * 5 + "</r>"
        status, _ = request(port, "PUT", "/stores/twigbudget", doc.encode())
        assert status == 201
        status, payload = request(
            port, "POST", "/stores/twigbudget/query",
            {"kind": "twig", "query": "//a//b//c", "max_visited": 1},
        )
        assert status == 429 and payload["error"]["code"] == "budget-exhausted"
        request(port, "DELETE", "/stores/twigbudget")

    def test_position_query_budget_exhaustion_429(self, port, store):
        # label-free, so only `denotational`'s own charges meet the budget
        status, payload = request(
            port, "POST", f"/stores/{store}/query",
            {"kind": "xpath", "query": "Child+/Child[position() = 1]",
             "max_visited": 1},
        )
        assert status == 429 and payload["error"]["code"] == "budget-exhausted"

    def test_label_free_sibling_chain_answers_within_its_deadline(self, port):
        # one O(n) semi-join per edge: no route overruns 50 ms into a 429
        doc = to_xml(wide_tree(4000)).encode()
        status, _ = request(port, "PUT", "/stores/siblings", doc)
        assert status == 201
        path = "/stores/siblings/query"
        # the first CQ request imports the CQ modules
        warm = {"kind": "cq", "query": "ans(x) :- Child(x, y)"}
        status, _ = request(port, "POST", path, warm)
        assert status == 200
        chain = "ans(x) :- NextSibling+(x, y), NextSibling+(y, z)"
        query = {"kind": "cq", "query": chain}
        start = time.perf_counter()
        status, payload = request(
            port, "POST", path, query, headers={"X-Repro-Deadline-Ms": "50"}
        )
        elapsed = time.perf_counter() - start
        request(port, "DELETE", "/stores/siblings")
        assert status == 200, payload
        assert len(payload["answer"]) == 3998 and elapsed < 1.0, elapsed

    def test_transient_failure_503(self, port, store):
        with FaultPlan(["strategy.linear:transient@every=1"]):
            status, payload = request(
                port, "POST", f"/stores/{store}/query",
                {"kind": "xpath", "query": XPATH, "strategy": "linear"},
            )
        assert status == 503 and payload["error"]["code"] == "transient-failure"

    def test_all_strategies_failed_503(self, port, store):
        with FaultPlan(["strategy.*:error@every=1"]):
            status, payload = request(
                port, "POST", f"/stores/{store}/query",
                {"kind": "xpath", "query": XPATH, "on_error": "fallback"},
            )
        assert status == 503
        assert payload["error"]["code"] == "all-strategies-failed"


class TestFaultInjectedDegradation:
    """Armed fault plans degrade the service; they never corrupt it."""

    def test_handler_fault_is_typed_500(self, port, store):
        plan = FaultPlan(["service.handler:error@every=1"])
        with plan:
            status, payload = request(port, "GET", "/healthz")
        assert status == 500 and payload["error"]["code"] == "injected-fault"
        assert list(plan.tripped_sites()) == ["service.handler"]

    def test_decode_fault_is_typed_500(self, port, store):
        plan = FaultPlan(["service.decode:error@every=1"])
        with plan:
            status, payload = request(
                port, "POST", f"/stores/{store}/query",
                {"kind": "xpath", "query": XPATH},
            )
        assert status == 500 and payload["error"]["code"] == "injected-fault"

    def test_decode_corruption_degrades_not_wrong(self, port, store):
        """A chopped request body must parse-fail or answer correctly —
        never return a silently wrong answer."""
        expected = request(
            port, "POST", f"/stores/{store}/query",
            {"kind": "xpath", "query": XPATH},
        )[1]["answer"]
        with FaultPlan(["service.decode:corrupt@every=1"], seed=5):
            status, payload = request(
                port, "POST", f"/stores/{store}/query",
                {"kind": "xpath", "query": XPATH},
            )
        if status == 200:
            assert payload["answer"] == expected
        else:
            assert status == 400
            assert payload["error"]["code"] in ("bad-json", "bad-request")

    def test_transient_fault_recovered_by_retries(self, port, store):
        """One injected transient + retries => a correct 200, with the
        recovery visible in the attempt chain."""
        with FaultPlan(["strategy.linear:transient@nth=1"]):
            status, payload = request(
                port, "POST", f"/stores/{store}/query",
                {"kind": "xpath", "query": XPATH, "strategy": "linear",
                 "retries": 2},
            )
        assert status == 200
        assert payload["answer"] == [2, 5]
        outcomes = [a["outcome"] for a in payload["stats"]["attempts"]]
        assert outcomes == ["transient", "ok"]

    def test_on_error_partial_degrades_to_empty(self, port, store):
        with FaultPlan(["strategy.*:error@every=1"]):
            status, payload = request(
                port, "POST", f"/stores/{store}/query",
                {"kind": "xpath", "query": XPATH, "on_error": "partial"},
            )
        assert status == 200
        assert payload["answer"] == [] and payload["stats"]["degraded"] is True


#: one mix per document shape, each covering the four query kinds: the
#: tiny DOC, a 2,000-level spine with a mark every 1,000 levels, and one
#: node with 20,000 children, every 1,000th a hit
TINY_MIX = [
    {"kind": "xpath", "query": XPATH},
    {"kind": "twig", "query": "//item/name"},
    {"kind": "cq", "query": "ans(y) :- Child(x, y), Lab:item(x), Lab:name(y)"},
    {"kind": "datalog", "query": "Q(x) :- Lab:name(x).", "query_pred": "Q"},
]
DEEP_MIX = [
    {"kind": "xpath", "query": "Child*[lab() = mark]"},
    {"kind": "xpath", "query": "Child*[lab() = target]"},
    {"kind": "twig", "query": "//section/mark"},
    {"kind": "cq", "query": "ans(y) :- Child(x, y), Lab:mark(y)"},
    {"kind": "datalog", "query": "Q(x) :- Lab:target(x).", "query_pred": "Q"},
]
WIDE_MIX = [
    {"kind": "xpath", "query": "Child[lab() = hit]"},
    {"kind": "twig", "query": "/collection/hit"},
    {"kind": "cq", "query": "ans(y) :- Child(x, y), Lab:hit(y)"},
    {"kind": "datalog", "query": "Q(x) :- Lab:hit(x).", "query_pred": "Q"},
]


class TestConcurrentClients:
    @pytest.mark.parametrize(
        "document,bodies",
        [
            pytest.param(lambda: DOC, TINY_MIX, id="tiny"),
            pytest.param(lambda: to_xml(deep_tree(2000)), DEEP_MIX, id="deep"),
            pytest.param(lambda: to_xml(wide_tree(20000)), WIDE_MIX, id="wide"),
        ],
    )
    def test_8_clients_byte_identical(self, port, document, bodies):
        """64 requests from 8 clients; every answer is byte-identical
        to a serial request with the same body, and none is empty."""
        status, _ = request(
            port, "PUT", "/stores/shape?warm=1", document().encode()
        )
        assert status == 201

        def answer_bytes(payload) -> bytes:
            # stats carry per-request timings; the *answer* is what must
            # be byte-stable across clients
            return json.dumps(payload["answer"]).encode()

        def work(i):
            status, payload = request(
                port, "POST", "/stores/shape/query", bodies[i % len(bodies)]
            )
            assert status == 200, payload
            return i % len(bodies), answer_bytes(payload)

        try:
            expected = [work(i)[1] for i in range(len(bodies))]
            assert all(answer != b"[]" for answer in expected)
            with ThreadPoolExecutor(max_workers=8) as pool:
                for which, answer in pool.map(work, range(64)):
                    assert answer == expected[which], (
                        f"{bodies[which]} diverged over HTTP"
                    )
        finally:
            request(port, "DELETE", "/stores/shape")


class TestKeepAlive:
    def test_back_to_back_queries_answer_without_the_delayed_ack_floor(
        self, port, store
    ):
        """50 queries on one keep-alive connection.  A reply written as
        two small segments (headers, then body) waits for the client's
        delayed ACK, ~40 ms per reply; one write with TCP_NODELAY
        answers a tiny store in about a millisecond."""
        body = json.dumps({"kind": "xpath", "query": XPATH}).encode()
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        seconds = []
        try:
            for _ in range(50):
                start = time.perf_counter()
                conn.request("POST", f"/stores/{store}/query", body=body)
                response = conn.getresponse()
                payload = json.loads(response.read())
                seconds.append(time.perf_counter() - start)
                assert response.status == 200 and payload["answer"] == [2, 5]
        finally:
            conn.close()
        p50 = sorted(seconds)[len(seconds) // 2]
        assert p50 < 0.010, f"keep-alive p50 {p50 * 1e3:.1f} ms"
        status, payload = request(port, "GET", f"/stores/{store}")
        assert status == 200 and payload["store"]["queries_served"] == 50


def test_serving_never_imports_numpy():
    """The service process answers every query kind without importing
    numpy or the workload generators (run in a fresh interpreter: the
    test process may have them)."""
    import subprocess
    import sys

    code = """
import sys
from repro.cli import build_parser
from repro.service import QueryService
build_parser().parse_args(["serve"])
svc = QueryService()
svc.ingest("d", "<a><b><c/></b><c><b/></c></a>", warm=True)
for kind, query in [
    ("xpath", "Child+[lab() = b]"),
    ("xpath", "Child+[lab() = b][Child[lab() = c]]"),
    ("twig", "//a[b]//c"),
    ("cq", "ans() :- Child(x, y), Child(y, z), Child(x, z)"),
    ("datalog", "Q(x) :- Lab:b(x).\\n% query: Q"),
]:
    status, _payload = svc.query("d", {"kind": kind, "query": query})
    assert status == 200, (kind, status)
assert "numpy" not in sys.modules
workloads = [m for m in sys.modules if m.startswith("repro.workloads")]
assert not workloads, workloads
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


#: every ``repro`` module a served boot may load: the engine, the
#: service and the observability modules, and their packages
SERVE_BOOT_MODULES = {
    "repro", "repro.cli", "repro.errors", "repro.faults",
    "repro.engine", "repro.engine.database", "repro.engine.index",
    "repro.engine.stats", "repro.engine.strategies",
    "repro.obs", "repro.obs.budget", "repro.obs.context", "repro.obs.events",
    "repro.obs.metrics", "repro.obs.sampling", "repro.obs.tracer",
    "repro.service", "repro.service.app", "repro.service.protocol",
    "repro.service.resilience",
    "repro.storage", "repro.storage.structural_join",
    "repro.trees", "repro.trees.node", "repro.trees.tree",
}

#: modules that no served query of an acyclic kind ever runs
NEVER_SERVED_MODULES = {
    "repro.cq.boundedtw", "repro.cq.containment", "repro.cq.naive",
    "repro.cq.treewidth", "repro.hornsat.naive", "repro.logic",
    "repro.logic.fo", "repro.obs.export", "repro.rewrite",
    "repro.rewrite.table1", "repro.rewrite.theorem51",
    "repro.storage.diskstore", "repro.storage.labeling",
    "repro.storage.relational", "repro.storage.xasr", "repro.trees.edit",
    "repro.trees.generate", "repro.trees.orders", "repro.xpath.forward",
    "repro.xpath.semantics", "repro.xpath.to_fo", "repro.xpath.translate",
}


def test_serve_boots_on_the_modules_it_runs():
    """What ``repro serve`` does before ``serve_forever`` loads only the
    engine, service and observability modules, and one query of each
    acyclic kind loads none of the paper's other sections."""
    boot, served = json.loads(run_fresh("""
import json, sys
from repro.cli import build_parser
from repro.service import QueryService
build_parser().parse_args(["serve"])
svc = QueryService()
boot = sorted(m for m in sys.modules if m.partition(".")[0] == "repro")
svc.ingest("d", "<a><b><c/></b><c><b/></c></a>", warm=True)
for kind, query in [
    ("xpath", "Child+[lab() = b]"),
    ("xpath", "Child+[lab() = b][Child[lab() = c]]"),
    ("twig", "//a[b]//c"),
    ("cq", "ans(x) :- Child(x, y), Lab:b(y)"),
    ("datalog", "Q(x) :- Lab:b(x).\\n% query: Q"),
]:
    status, _payload = svc.query("d", {"kind": kind, "query": query})
    assert status == 200, (kind, status)
served = sorted(m for m in sys.modules if m.partition(".")[0] == "repro")
print(json.dumps([boot, served]))
"""))
    assert set(boot) <= SERVE_BOOT_MODULES, set(boot) - SERVE_BOOT_MODULES
    assert not set(served) & NEVER_SERVED_MODULES, set(served) & NEVER_SERVED_MODULES


def test_serving_loads_networkx_only_for_explicit_treewidth():
    """xpath, twig, acyclic and cyclic CQs and datalog are served
    without importing networkx: a cyclic CQ plans ``rewrite``.  Only an
    explicit ``treewidth`` request, whose tree decomposition needs it,
    loads networkx (run in a fresh interpreter: the test process may
    have it)."""
    import subprocess
    import sys

    code = """
import sys
from repro.cli import build_parser
from repro.service import QueryService
build_parser().parse_args(["serve"])
svc = QueryService()
svc.ingest("d", "<a><b><c/></b><c><b/></c></a>", warm=True)
cyclic = "ans(x) :- Child+(y, x), Child+(z, x), Child(y, z)"
for kind, query in [
    ("xpath", "Child+[lab() = b]"),
    ("xpath", "Child+[lab() = b][Child[lab() = c]]"),
    ("twig", "//a[b]//c"),
    ("cq", "ans(y) :- Child(x, y), Lab:b(y)"),
    ("cq", "ans() :- Child(x, y), Child(y, z), Child(x, z)"),
    ("datalog", "Q(x) :- Lab:b(x).\\n% query: Q"),
]:
    status, _payload = svc.query("d", {"kind": kind, "query": query})
    assert status == 200, (kind, status)
status, payload = svc.query("d", {"kind": "cq", "query": cyclic})
assert status == 200, status
assert payload["stats"]["strategy"] == "rewrite", payload["stats"]
answer = payload["answer"]
assert answer, payload
assert "networkx" not in sys.modules
status, payload = svc.query(
    "d", {"kind": "cq", "query": cyclic, "strategy": "treewidth"}
)
assert status == 200, status
assert payload["stats"]["strategy"] == "treewidth", payload["stats"]
assert payload["answer"] == answer
assert "networkx" in sys.modules
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
