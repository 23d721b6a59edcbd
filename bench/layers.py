"""The traced per-layer run (``run.py --trace 1``).

The server is measured from outside only; the layers come from an
in-process replay.  For one workload it boots a fresh server and plays,
on one connection, a warm-up round, a plain cycle and two traced
cycles, timing every request as served.  When the traffic is over, each
request of the traced cycles is replayed in order in this process, on a
``Database`` built from the same XML, with a benchmark-side span around
each public call:

=====================  ==================================================
span                   call
=====================  ==================================================
service.decode         ``json.loads`` + ``validate_query_request``
engine.parse           the query parser (first use of a query on a store)
engine.plan            ``Database.plan``
engine.execute         ``get_strategy(kind, plan.strategy).execute``
service.encode         ``encode_answer`` + ``stats_payload`` + ``json.dumps``
xmlio.parse            ``parse_xml`` (stores and PUTs)
engine.index_build     ``Database(tree).index``
cq.materialize         ``repro.cq.yannakakis.materialize_atom``
cq.yannakakis          ``yannakakis`` / ``yannakakis_unary``
datalog.tmnf           ``to_tmnf`` (inside ``repro.datalog.evaluate``)
datalog.ground         ``ground``
hornsat.minoux         ``minoux``
=====================  ==================================================

Every span (name, start, end, parent, request) is kept in memory and
written to ``<out>/<workload>/spans.json`` at the end.  Each metric is a
median per request; the service's own overhead is the served latency
minus the replayed decode, parse, plan, execute and encode.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import answers
import client
import gen
import workloads
from server import boot

__all__ = ["LAYER_METRICS", "run_traced"]

ROOT = Path(__file__).resolve().parent.parent

#: the per-layer metrics every traced run reports, with their units
LAYER_METRICS = {
    "service.overhead_ms": "ms",
    "service.decode_ms": "ms",
    "service.encode_ms": "ms",
    "service.response_kb": "KB",
    "service.put_overhead_ms": "ms",
    "engine.parse_cold_ms": "ms",
    "engine.plan_ms": "ms",
    "engine.plan_cache_hit_ratio": "ratio",
    "engine.plan_regret": "ratio",
    "engine.execute_ms": "ms",
    "engine.first_query_extra_ms": "ms",
    "engine.index_build_ms": "ms",
    "xmlio.parse_ms": "ms",
    "xmlio.parse_us_per_node": "us",
    "engine.answer_rows": "rows",
    "engine.failed_attempts": "count",
    "cq.materialized_rows": "rows",
    "cq.rows_per_answer": "ratio",
    "datalog.ground_clauses": "count",
    "datalog.clauses_per_answer": "ratio",
    "bench.trace_overhead_pct": "%",
}


class Spans:
    """Benchmark-side spans; ``request`` tags new spans with the index
    of the traced request being replayed (None outside requests)."""

    def __init__(self):
        self.records: list[dict] = []
        self.request: "int | None" = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "request": self.request,
        }
        self._open.append(len(self.records))
        self.records.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def per_request(self) -> "dict[int, dict[str, float]]":
        """request → span name → summed milliseconds (and ``.rows``)."""
        out: dict[int, dict[str, float]] = {}
        for r in self.records:
            if r["request"] is None:
                continue
            sums = out.setdefault(r["request"], {})
            sums[r["name"]] = sums.get(r["name"], 0.0) + (r["end"] - r["start"]) * 1e3
            if "rows" in r:
                key = r["name"] + ".rows"
                sums[key] = sums.get(key, 0) + r["rows"]
        return out

    def durations(self, name: str) -> "list[float]":
        return [(r["end"] - r["start"]) * 1e3 for r in self.records if r["name"] == name]


#: (module, function, span name, rows counter) of the wrapped kernels;
#: the strategies import these by module attribute at call time, so a
#: wrapper installed on the module sees every engine call in this process
_KERNELS = (
    ("repro.cq.yannakakis", "materialize_atom", "cq.materialize", lambda r: len(r[1])),
    ("repro.cq.yannakakis", "yannakakis", "cq.yannakakis", None),
    ("repro.cq.yannakakis", "yannakakis_unary", "cq.yannakakis", None),
    ("repro.datalog.evaluate", "to_tmnf", "datalog.tmnf", None),
    ("repro.datalog.evaluate", "ground", "datalog.ground", len),
    ("repro.datalog.evaluate", "minoux", "hornsat.minoux", None),
)


@contextmanager
def instrumented(spans: Spans):
    """Wrap the CQ and datalog kernel entry points in ``spans`` for the
    duration of the block, then restore the originals."""
    answers.import_repro()
    saved = []
    for module_name, attr, name, rows in _KERNELS:
        # by module path: the packages re-export functions of the same names
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        saved.append((module, attr, original))

        def wrapper(*args, _original=original, _name=name, _rows=rows, **kwargs):
            with spans.span(_name) as record:
                result = _original(*args, **kwargs)
                if _rows is not None:
                    record["rows"] = _rows(result)
                return result

        setattr(module, attr, wrapper)
    try:
        yield spans
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _parse(kind: str, query: str, pred: "str | None"):
    from repro.cq.query import parse_cq
    from repro.datalog.parser import parse_program
    from repro.twigjoin.pattern import parse_twig
    from repro.xpath.parser import parse_xpath

    if kind == "datalog":
        return parse_program(query, query_pred=pred)
    return {"xpath": parse_xpath, "twig": parse_twig, "cq": parse_cq}[kind](query)


class Replay:
    """The in-process twin of the server's stores."""

    def __init__(self, spans: Spans):
        self.spans = spans
        self.dbs: dict[str, object] = {}
        self.parsed: dict[str, dict] = {}
        self.expected: dict[str, dict] = {}
        self.parse_per_node_us: list[float] = []
        self.first_extra_ms: list[float] = []

    def load(self, op: workloads.Op, text: str) -> None:
        """Parse and index a document as ``PUT ?warm=1`` and ``--store`` do."""
        from repro.engine import Database
        from repro.trees.xmlio import parse_xml

        with self.spans.span("xmlio.parse") as parsed:
            tree = parse_xml(text)
        with self.spans.span("engine.index_build"):
            db = Database(tree)
            db.index
        self.parse_per_node_us.append((parsed["end"] - parsed["start"]) * 1e6 / tree.n)
        self.dbs[op.store] = db
        self.parsed[op.store] = {}
        self.expected[op.key] = {"nodes": tree.n}

    def query(self, op: workloads.Op, first_extra: bool) -> dict:
        """Replay one query request as the server runs it, recording its
        expected answer; returns the plan, the parsed query and the row
        count.  With ``first_extra`` the execute runs a second time,
        outside the request, to measure the first-run surcharge."""
        from repro.engine.stats import ExecutionStats
        from repro.engine.strategies import get_strategy
        from repro.service.protocol import encode_answer, stats_payload, validate_query_request

        db = self.dbs[op.store]
        with self.spans.span("service.decode"):
            spec = validate_query_request(json.loads(op.body))
        cache = self.parsed[op.store]
        if op.key not in cache:
            with self.spans.span("engine.parse"):
                cache[op.key] = _parse(spec["kind"], spec["query"], spec["query_pred"])
        parsed = cache[op.key]
        with self.spans.span("engine.plan"):
            plan = db.plan(spec["kind"], parsed)
        executor = get_strategy(spec["kind"], plan.strategy).execute
        with self.spans.span("engine.execute") as ex:
            answer = executor(parsed, db.index)
        with self.spans.span("service.encode"):
            stats = ExecutionStats(
                kind=spec["kind"], query=spec["query"], strategy=plan.strategy,
                reason=plan.reason, elapsed_s=ex["end"] - ex["start"],
                answer_size=len(answer), index_built=False, index_hits=0,
                nodes_streamed=0,
            )
            payload = {
                "kind": spec["kind"],
                "answer": encode_answer(answer),
                "stats": stats_payload(stats),
            }
            json.dumps(payload, sort_keys=True, separators=(",", ":"))
        if first_extra:
            # the same call again on the now-warm store, outside any request
            request, self.spans.request = self.spans.request, None
            start = time.perf_counter()
            executor(parsed, db.index)
            warm_ms = (time.perf_counter() - start) * 1e3
            self.spans.request = request
            self.first_extra_ms.append((ex["end"] - ex["start"]) * 1e3 - warm_ms)
        sha, rows = answers.digest(payload["answer"])
        self.expected[op.key] = {"sha256": sha, "rows": rows}
        return {"plan": plan, "parsed": parsed, "rows": rows}


def _regret(db, kind: str, parsed, chosen: str) -> float:
    """Chosen strategy's execute time ÷ the fastest applicable one's."""
    from repro.engine.strategies import strategies_for

    def timed(strategy) -> float:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            strategy.execute(parsed, db.index)
            best = min(best, time.perf_counter() - start)
            if best > 0.05:  # slow strategies: one run decides
                break
        return best

    times = {s.name: timed(s) for s in strategies_for(kind, parsed, db.index)}
    return times[chosen] / min(times.values())


def _median(values, default: float = 0.0) -> float:
    return statistics.median(values) if values else default


def run_traced(w: workloads.Workload, seed: int, smoke: bool, out: Path) -> dict:
    spans = Spans()
    with instrumented(spans):
        return _run_traced(w, seed, smoke, out, spans)


def _run_traced(w, seed: int, smoke: bool, out: Path, spans: Spans) -> dict:
    texts = w.documents(seed, smoke)
    server, _ = boot(ROOT, w.preload, texts, out / w.name, 1)
    try:
        stream = w.stream(seed, 0, texts)
        warm, _ = client.run_traffic(server.port, [stream], rounds=1)
        cycle = min(w.cycle_rounds, 2) if smoke else w.cycle_rounds
        plain, _ = client.run_traffic(server.port, [stream], rounds=cycle)
        traced = client.drive(server.port, stream, rounds=2 * cycle)
        # PUT each preloaded document once more under a side name, so
        # every workload measures the ingest path
        side = [
            workloads.Op("PUT", f"/stores/put-{store}?warm=1",
                         texts[doc].encode("utf-8"), f"put-{store}", doc, "put")
            for store, doc in w.preload.items()
        ]
        side_puts = client.drive(server.port, iter([side]), rounds=1)
        served = client.served_counts(server, warm + plain + traced)
        stores = json.loads(server.get("/stores")[1])["stores"]
        failed_attempts = server.counter("engine.attempt_errors")
    finally:
        server.stop()

    # The replay runs after the traffic: replaying between requests would
    # leave the connection idle, and an idle connection skips the delayed
    # ACK that back-to-back requests pay, which would change what is timed.
    replay = Replay(spans)
    # mirror the server's state after its warm-up: preloaded stores are
    # loaded and every query has run once (plan cache, lazy index
    # structures); the first run of each query is the cold one
    for store, doc in w.preload.items():
        replay.load(workloads.Op("PUT", "", b"", store, doc, "put"), texts[doc])
        for op in {s.op.key: s.op for s in warm if s.op.store == store}.values():
            replay.query(op, first_extra=True)
    requests: list[dict] = []
    for sample in traced + side_puts:
        spans.request = len(requests)
        entry = {"sample": sample}
        if sample.op.kind == "put":
            replay.load(sample.op, texts[sample.op.doc])
        else:
            entry.update(replay.query(sample.op, first_extra=not w.preload))
        requests.append(entry)
    spans.request = None

    everything = warm + plain + traced + side_puts
    keys = {s.op.key for s in everything}
    if seed == 0 and not smoke:
        expected, oracle = answers.expected_for(keys, texts, seed, smoke)
    else:
        # the replay ran the planner on the same XML: the weaker oracle
        expected, oracle = dict(replay.expected), "in-process replay (weaker)"
        missing = keys - set(expected)
        if missing:  # requests outside the replayed passes
            expected.update(answers.oracle(missing, texts))
    problems = client.judge(everything, expected, served)

    # plan regret, once per distinct xpath/twig query
    regret: dict[str, float] = {}
    for entry in requests:
        op = entry["sample"].op
        if op.kind in ("xpath", "twig") and op.key not in regret:
            regret[op.key] = _regret(
                replay.dbs[op.store], op.kind, entry["parsed"], entry["plan"].strategy
            )

    sums = spans.per_request()
    queries, puts = [], []
    for i, entry in enumerate(requests):
        sample, took = entry["sample"], sums.get(i, {})
        served_ms = sample.seconds * 1e3
        if sample.op.kind == "put":
            puts.append(served_ms - took["xmlio.parse"] - took["engine.index_build"])
            continue
        inside = sum(took.get(n, 0.0) for n in (
            "service.decode", "engine.parse", "engine.plan", "engine.execute",
            "service.encode"))
        queries.append({
            "kind": sample.op.kind,
            "key": sample.op.key,
            "served": served_ms,
            "overhead": served_ms - inside,
            "kb": len(sample.body) / 1024.0,
            "rows": entry["rows"],
            **took,
        })

    def med(field: str, kind: "str | None" = None) -> float:
        return _median([q.get(field, 0.0) for q in queries
                        if kind is None or q["kind"] == kind])

    caches = [s["plan_cache"] for s in stores if s["name"] in served]
    hits = sum(c["hits"] for c in caches)
    lookups = hits + sum(c["misses"] for c in caches)
    plain_ms: dict[str, list[float]] = {}
    for s in plain:
        if s.op.kind != "put":
            plain_ms.setdefault(s.op.key, []).append(s.seconds * 1e3)
    traced_ms = {key: [q["served"] for q in queries if q["key"] == key] for key in plain_ms}
    cq = [q for q in queries if q["kind"] == "cq"]
    dl = [q for q in queries if q["kind"] == "datalog"]
    values = {
        "service.overhead_ms": med("overhead"),
        "service.decode_ms": med("service.decode"),
        "service.encode_ms": med("service.encode"),
        "service.response_kb": med("kb"),
        "service.put_overhead_ms": _median(puts),
        "engine.parse_cold_ms": _median(spans.durations("engine.parse")),
        "engine.plan_ms": med("engine.plan"),
        "engine.plan_cache_hit_ratio": hits / lookups if lookups else 0.0,
        "engine.plan_regret": _median(
            [regret[q["key"]] for q in queries if q["key"] in regret], default=1.0
        ),
        "engine.execute_ms": med("engine.execute"),
        "engine.first_query_extra_ms": _median(replay.first_extra_ms),
        "engine.index_build_ms": _median(spans.durations("engine.index_build")),
        "xmlio.parse_ms": _median(spans.durations("xmlio.parse")),
        "xmlio.parse_us_per_node": _median(replay.parse_per_node_us),
        "engine.answer_rows": med("rows"),
        "engine.failed_attempts": failed_attempts,
        "cq.materialized_rows": med("cq.materialize.rows", "cq"),
        "cq.rows_per_answer": _median(
            [q.get("cq.materialize.rows", 0) / max(1, q["rows"]) for q in cq]),
        "datalog.ground_clauses": med("datalog.ground.rows", "datalog"),
        "datalog.clauses_per_answer": _median(
            [q.get("datalog.ground.rows", 0) / max(1, q["rows"]) for q in dl]),
        # per query: traced-pass median against the plain cycle's median
        "bench.trace_overhead_pct": (
            sum(_median(v) for v in traced_ms.values())
            / sum(_median(v) for v in plain_ms.values()) - 1.0
        ) * 100.0,
    }
    # layer times that exist only where the workload has that kind
    extra: dict[str, tuple[float, str]] = {}
    for kind in ("xpath", "twig", "cq", "datalog"):
        if any(q["kind"] == kind for q in queries):
            extra[f"engine.execute.{kind}_ms"] = (med("engine.execute", kind), "ms")
            extra[f"served.{kind}_p50_ms"] = (med("served", kind), "ms")
    if cq:
        extra["cq.materialize_ms"] = (med("cq.materialize", "cq"), "ms")
        extra["cq.reduce_join_ms"] = (_median(
            [q.get("cq.yannakakis", 0.0) - q.get("cq.materialize", 0.0) for q in cq]), "ms")
    if dl:
        for name in ("datalog.tmnf", "datalog.ground", "hornsat.minoux"):
            extra[f"{name}_ms"] = (med(name, "datalog"), "ms")

    spans_path = out / w.name / "spans.json"
    spans_path.write_text(json.dumps(spans.records))
    return {
        "attempted": len(everything),
        "failed": len(problems),
        "metrics": {name: (values[name], unit) for name, unit in LAYER_METRICS.items()},
        "extra": extra,
        "problems": problems,
        "info": {
            "spans": str(spans_path),
            "traced_requests": len(requests),
            "oracle": oracle,
        },
        "inputs": {doc: gen.sha256(text) for doc, text in texts.items()},
    }
