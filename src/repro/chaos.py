"""The chaos differential harness (docs/ROBUSTNESS.md).

The safety contract this module enforces end-to-end: **under any single
injected fault, at any registered site, the library either returns the
exact clean answer or raises a typed** :class:`~repro.errors.ReproError`
— never a wrong answer, never a foreign exception.

:func:`chaos_sweep` runs a seeded matrix of documents × queries ×
single-fault scenarios covering *every* registered injection site
(:func:`repro.faults.registered_sites`), differentially comparing each
faulted run against its clean twin.  Each scenario's outcome is one of:

``match``
    The fault plan was armed but the rule never tripped (the chosen
    strategy never reached that site) — answer equals the clean run.
``recovered``
    The rule tripped and the run still produced the clean answer: the
    supervisor retried a transient, fell back past a poisoned strategy,
    or a latency fault merely delayed the call.
``typed-error``
    The run failed with a :class:`~repro.errors.ReproError` subclass —
    an acceptable, contractual failure.
``degraded``
    Recovery-mode ingestion kept a repaired (smaller) document and said
    so through :class:`~repro.trees.xmlio.ParseWarning` records.
``wrong-answer`` / ``foreign-error``
    Contract violations.  :meth:`ChaosReport.ok` is False if any occur,
    and also if a swept site never tripped.

Which driver runs a site's scenarios is one row of ``_FAMILIES``; a
site without a row is an engine site, driven through a supervised
:class:`~repro.engine.database.Database` call.

The sweep is what the ``repro chaos`` subcommand and the
``chaos-smoke`` CI job run; ``fast=True`` trims the matrix (fewer
queries and fault kinds per site) while still touching every site.
"""

from __future__ import annotations

import contextlib
import dataclasses
import fnmatch
import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import QueryError, ReproError, TransientError
from repro.faults import FaultPlan, registered_sites
from repro.engine.database import Database
from repro.engine.stats import ExecutionStats

# sites register at the instrumented module's import; the sweep matrix
# snapshots registered_sites(), so every instrumented module must be
# imported before generation — by its own name, since a package import
# loads none of its modules (package attributes resolve on first use)
import repro.corpus.checkpoint  # noqa: F401,E402
import repro.corpus.runner  # noqa: F401,E402
import repro.corpus.sharding  # noqa: F401,E402
import repro.corpus.worker  # noqa: F401,E402
import repro.engine.database  # noqa: F401,E402
import repro.engine.index  # noqa: F401,E402
import repro.engine.strategies  # noqa: F401,E402
import repro.obs.events  # noqa: F401,E402
import repro.obs.sampling  # noqa: F401,E402
import repro.service.app  # noqa: F401,E402
import repro.service.resilience  # noqa: F401,E402
import repro.storage.diskstore  # noqa: F401,E402
import repro.storage.structural_join  # noqa: F401,E402
import repro.streaming.events  # noqa: F401,E402
import repro.trees.xmlio  # noqa: F401,E402

__all__ = [
    "ChaosOutcome",
    "ChaosReport",
    "ChaosScenario",
    "ServiceHarness",
    "chaos_sweep",
    "default_documents",
    "default_queries",
    "fallback_demos",
]

# ---------------------------------------------------------------------------
# the corpus: documents and queries the scenarios run over
# ---------------------------------------------------------------------------


def default_documents() -> dict[str, str]:
    """Small deterministic documents exercising depth, width and labels."""
    deep = "".join(f"<d{i % 3}>" for i in range(12))
    deep += "<b/>" + "".join(f"</d{i % 3}>" for i in reversed(range(12)))
    wide = "".join(
        f"<item><name/><keyword/></item>" if i % 3 else "<item><b/></item>"
        for i in range(8)
    )
    return {
        "tiny": "<a><b><c/></b><b/></a>",
        "deep": f"<a>{deep}</a>",
        "wide": f"<site><people>{wide}</people><b/></site>",
    }


def default_queries() -> list[tuple[str, str]]:
    """(kind, concrete syntax) pairs spanning every query language."""
    return [
        ("xpath", "Child+[lab() = b]"),
        ("xpath", "Child*[lab() = item]/Child[lab() = name]"),
        ("xpath", "Child[lab() = people]"),
        ("twig", "//item[keyword]"),
        ("twig", "//a//b"),
        ("cq", "ans() :- Child+(x, y), Lab:b(y)"),
        ("datalog", "Q(x) :- Lab:b(x).\n% query: Q"),
    ]


# the one query the corpus and service drivers pose, and its HTTP body
_CHAOS_QUERY = ("xpath", "Child+[lab() = b]")
_CHAOS_BODY = json.dumps({"kind": _CHAOS_QUERY[0], "query": _CHAOS_QUERY[1]})


# ---------------------------------------------------------------------------
# scenarios and outcomes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChaosScenario:
    """One cell of the sweep matrix: a fault spec against one workload.

    ``strategy`` is ``"auto"`` except for ``strategy.<name>`` sites,
    which are driven with the explicit strategy so the site is
    guaranteed to be reached (the planner would otherwise never route
    some workloads through e.g. the naive datalog baseline)."""

    site: str
    spec: str  # FaultRule spec, e.g. "strategy.linear:error@nth=1"
    doc: str  # document name from the corpus
    # query kind ("xpath"/"twig"/"cq"/"datalog"), or the site family's
    # kind ("ingest"/"service"/"corpus", and "corpus-kill")
    kind: str
    query: str  # concrete query syntax, or the site name
    seed: int
    strategy: str = "auto"

    def describe(self) -> str:
        return f"{self.spec} × {self.doc} × {self.kind}:{self.query!r}"


@dataclass(frozen=True)
class ChaosOutcome:
    scenario: ChaosScenario
    # match | recovered | typed-error | degraded | skipped
    #   | wrong-answer | foreign-error
    status: str
    detail: str = ""
    tripped: bool = False
    stats: "ExecutionStats | None" = None


@dataclass
class ChaosReport:
    """The sweep's verdict: outcomes plus the contract checks."""

    seed: int
    outcomes: list[ChaosOutcome] = field(default_factory=list)
    #: threads alive after the sweep that were not alive before it —
    #: the service-harness leak check; must be empty
    leaked_threads: list[str] = field(default_factory=list)

    def by_status(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return counts

    def violations(self) -> list[ChaosOutcome]:
        return [
            o for o in self.outcomes
            if o.status in ("wrong-answer", "foreign-error")
        ]

    def tripped_sites(self) -> set[str]:
        return {o.scenario.site for o in self.outcomes if o.tripped}

    def targeted_sites(self) -> set[str]:
        """The sites this sweep's scenarios set out to trip."""
        return {o.scenario.site for o in self.outcomes}

    def uncovered_sites(self) -> set[str]:
        """Targeted sites the sweep never actually tripped.  For an
        unfiltered, uncapped sweep this equals the registered sites
        minus the tripped ones; with ``sites=`` / ``max_scenarios=``
        restrictions only the sites actually swept are held to the
        coverage bar."""
        return self.targeted_sites() - self.tripped_sites()

    @property
    def ok(self) -> bool:
        """No violation, no leaked thread, and every swept site tripped."""
        return (
            not self.violations()
            and not self.leaked_threads
            and not self.uncovered_sites()
        )

    def summary(self) -> str:
        counts = ", ".join(
            f"{status}={count}" for status, count in sorted(self.by_status().items())
        )
        verdict = "OK" if self.ok else "CONTRACT VIOLATED"
        lines = [
            f"chaos sweep (seed={self.seed}): {len(self.outcomes)} scenarios, "
            f"{len(self.tripped_sites())} sites tripped — {counts} — {verdict}"
        ]
        for violation in self.violations():
            lines.append(
                f"  VIOLATION [{violation.status}] "
                f"{violation.scenario.describe()}: {violation.detail}"
            )
        for site in sorted(self.uncovered_sites()):
            lines.append(f"  UNCOVERED site {site!r} never tripped in this sweep")
        if self.leaked_threads:
            lines.append(
                f"  LEAK: {len(self.leaked_threads)} thread(s) survived the "
                f"sweep: {', '.join(self.leaked_threads)}"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# scenario generation
# ---------------------------------------------------------------------------


def generate_scenarios(
    seed: int = 0,
    sites: "list[str] | None" = None,
    fast: bool = False,
) -> list[ChaosScenario]:
    """The deterministic sweep matrix for the given seed.

    Every registered (or requested) site appears; ``fast`` trims fault
    kinds to error+transient and one workload per site where the full
    sweep crosses all four kinds with several workloads.
    """
    documents = default_documents()
    queries = default_queries()
    if sites is None:
        all_sites = sorted(registered_sites())
    else:
        # each entry is an exact site name, a glob over the registry, or
        # a dotted prefix ("corpus" selects every corpus.* site)
        known = registered_sites()
        selected: set[str] = set()
        for pattern in sites:
            matched = [
                name
                for name in known
                if name == pattern
                or fnmatch.fnmatchcase(name, pattern)
                or name.startswith(pattern + ".")
            ]
            if not matched:
                raise QueryError(
                    f"unknown fault site {pattern!r}; "
                    "see repro.faults.registered_sites()"
                )
            selected.update(matched)
        all_sites = sorted(selected)
    kinds = ("error", "transient") if fast else ("error", "transient", "latency", "corrupt")
    doc_names = list(documents)[:1] if fast else list(documents)
    scenarios: list[ChaosScenario] = []
    for site in all_sites:
        family = _family(site)
        strategy = "auto"
        if family.kind is not None:
            workloads = [(family.kind, site)]
        elif site.startswith("strategy."):
            # drive the site with its explicit strategy so it is
            # guaranteed to be reached, through queries of its kind
            strategy_kind, strategy = _strategy_route(site)
            workloads = [
                (kind, query) for kind, query in queries if kind == strategy_kind
            ]
        else:
            workloads = list(queries)
        if fast:
            workloads = workloads[:1]
        for fault_kind in kinds:
            spec = f"{site}:{fault_kind}@nth=1"
            for doc in doc_names[:1] if family.single_doc else doc_names:
                for kind, query in workloads:
                    scenarios.append(
                        ChaosScenario(
                            site, spec, doc, kind, query, seed, strategy
                        )
                    )
        if site == "corpus.worker":
            # the kill differential: no armed plan — a real SIGKILL of a
            # pool worker mid-shard, proving retry-on-a-fresh-worker
            # reconverges to the byte-identical serial answer
            scenarios.append(
                ChaosScenario(
                    site, "corpus.worker:kill", doc_names[0],
                    "corpus-kill", site, seed,
                )
            )
    return scenarios


def _strategy_route(site: str) -> "tuple[str, str]":
    """The query kind that can reach a ``strategy.<name>`` site, and the
    strategy name."""
    from repro.engine.strategies import STRATEGIES

    name = site.split(".", 1)[1]
    for kind, registry in STRATEGIES.items():
        if name in registry:
            return kind, name
    return "xpath", name


# ---------------------------------------------------------------------------
# scenario execution
# ---------------------------------------------------------------------------


def run_scenario(
    scenario: ChaosScenario, harness: "ServiceHarness | None" = None
) -> ChaosOutcome:
    """Execute one scenario differentially against its clean twin.

    ``harness`` — an optional live :class:`ServiceHarness`, handed only
    to the drivers of shared-server families; without one the driver
    boots (and tears down) a throwaway server per scenario.
    ``service.drain`` and the telemetry sites always get their own
    server.
    """
    family = _family(scenario.site)
    text = default_documents()[scenario.doc]
    if family.shared_server:
        return family.driver(scenario, text, harness)
    return family.driver(scenario, text)


def _armed(
    scenario: ChaosScenario,
    action: "Callable[[], object]",
    retry_transient: bool,
) -> "tuple[object, bool, ChaosOutcome | None]":
    """Run ``action`` under the scenario's armed fault plan.

    ``retry_transient`` re-runs ``action`` once after a
    :class:`TransientError` — the harness-level analogue of the engine
    supervisor's retry leg (the engine driver passes False: the
    supervisor retries by itself).  Returns ``(value, tripped, failure)``
    where ``failure`` is the typed- or foreign-error outcome when
    ``action`` raised, and None on success.
    """
    with FaultPlan([scenario.spec], seed=scenario.seed) as plan:
        for retry in (True, False) if retry_transient else (False,):
            try:
                return action(), bool(plan.trips), None
            except Exception as exc:  # noqa: BLE001 - the contract check itself
                error = exc
                if not (retry and isinstance(exc, TransientError)):
                    break
    return None, bool(plan.trips), _raised(scenario, error, bool(plan.trips))


def _raised(
    scenario: ChaosScenario, exc: BaseException, tripped: bool
) -> ChaosOutcome:
    """A run that raised: a typed error is contractual, anything else is
    a foreign error."""
    status = "typed-error" if isinstance(exc, ReproError) else "foreign-error"
    return ChaosOutcome(
        scenario, status, f"{type(exc).__name__}: {exc}", tripped=tripped
    )


def _passed(
    scenario: ChaosScenario, tripped: bool, stats: "ExecutionStats | None" = None
) -> ChaosOutcome:
    """A run that produced the clean answer."""
    return ChaosOutcome(
        scenario, "recovered" if tripped else "match", tripped=tripped,
        stats=stats,
    )


@contextlib.contextmanager
def _temp_path(suffix: str):
    """A fresh temp file path, removed afterwards together with the
    siblings a writer may leave (``.tmp`` staging, rotated ``.1``)."""
    fd, path = tempfile.mkstemp(suffix=suffix, prefix="repro-chaos-")
    os.close(fd)
    try:
        yield path
    finally:
        for stale in (path, path + ".tmp", path + ".1"):
            with contextlib.suppress(OSError):
                os.unlink(stale)


def _run_engine(scenario: ChaosScenario, text: str) -> ChaosOutcome:
    try:
        clean = Database.from_xml(text).run(
            scenario.kind, scenario.query, scenario.strategy
        ).answer
    except ReproError as exc:
        # the workload itself is inapplicable to this explicit strategy
        # (e.g. pathstack on a branching twig) — nothing to differ with
        return ChaosOutcome(
            scenario, "skipped", f"clean run failed: {exc}"
        )
    # fresh: index.build must fire again
    db = Database.from_xml(text)
    result, tripped, failure = _armed(
        scenario,
        lambda: db.run(
            scenario.kind, scenario.query, scenario.strategy,
            retries=1, on_error="fallback",
        ),
        retry_transient=False,
    )
    if failure is not None:
        return failure
    if result.answer != clean:
        return ChaosOutcome(
            scenario, "wrong-answer",
            f"faulted answer {sorted(result.answer)!r} != clean "
            f"{sorted(clean)!r}",
            tripped=tripped, stats=result.stats,
        )
    return _passed(scenario, tripped, result.stats)


def _run_xml_parse(scenario: ChaosScenario, text: str) -> ChaosOutcome:
    from repro.trees.xmlio import parse_xml, to_xml

    clean = to_xml(parse_xml(text))
    recover = "corrupt" in scenario.spec  # corrupt runs exercise recovery
    warnings: list = []
    tree, tripped, failure = _armed(
        scenario,
        lambda: parse_xml(text, recover=recover, warnings=warnings),
        retry_transient=True,
    )
    if failure is not None:
        return failure
    faulted = to_xml(tree)
    if faulted == clean:
        return _passed(scenario, tripped)
    if recover and tripped:
        # recovery mode legitimately keeps a repaired smaller document —
        # but it must say so, and what it kept must round-trip strictly.
        # The #document placeholder root of a document with no surviving
        # element has no XML spelling (docs/ROBUSTNESS.md "Hardened
        # ingestion"): it must be the whole tree, reported as "empty".
        if tree.label[tree.root] == "#document":
            valid = tree.n == 1 and any(w.code == "empty" for w in warnings)
        else:
            valid = to_xml(parse_xml(faulted)) == faulted
        if warnings and valid:
            return ChaosOutcome(
                scenario, "degraded",
                f"{len(warnings)} repairs reported", tripped=True,
            )
        return ChaosOutcome(
            scenario, "wrong-answer",
            "recovered document differs without warnings "
            f"(valid={valid})",
            tripped=True,
        )
    return ChaosOutcome(
        scenario, "wrong-answer", "parsed tree differs from clean run",
        tripped=tripped,
    )


def _run_stream_events(scenario: ChaosScenario, text: str) -> ChaosOutcome:
    from repro.streaming.events import xml_events

    clean = list(xml_events(text))
    events, tripped, failure = _armed(
        scenario, lambda: list(xml_events(text)), retry_transient=True
    )
    if failure is not None:
        return failure
    if events != clean:
        return ChaosOutcome(
            scenario, "wrong-answer",
            f"faulted stream yielded {len(events)} events, clean "
            f"{len(clean)}",
            tripped=tripped,
        )
    return _passed(scenario, tripped)


def _run_disk_read(scenario: ChaosScenario, text: str) -> ChaosOutcome:
    from repro.storage.diskstore import dump_tree, load_tree
    from repro.trees.xmlio import parse_xml

    clean = parse_xml(text)
    with _temp_path(".rtre") as path:
        dump_tree(clean, path)
        tree, tripped, failure = _armed(
            scenario, lambda: load_tree(path), retry_transient=True
        )
    if failure is not None:
        return failure
    if tree != clean:
        return ChaosOutcome(
            scenario, "wrong-answer", "loaded tree differs from dumped",
            tripped=tripped,
        )
    return _passed(scenario, tripped)


def _run_disk_write(scenario: ChaosScenario, text: str) -> ChaosOutcome:
    """Crash-safety differential for ``disk.write``: dump a v1 store,
    then dump v2 under the armed plan.  A successful dump must load
    back as v2; a typed failure must leave the *previous* version (v1)
    loadable and no ``.tmp`` litter — anything else (a torn file, a
    clobbered destination) is a contract violation."""
    from repro.storage.diskstore import dump_tree, load_tree
    from repro.trees.xmlio import parse_xml

    v1 = parse_xml("<a><old/></a>")
    v2 = parse_xml(text)
    with _temp_path(".rtre") as path:
        dump_tree(v1, path)
        _, tripped, failure = _armed(
            scenario, lambda: dump_tree(v2, path), retry_transient=True
        )
        if failure is not None and failure.status != "typed-error":
            return failure
        if os.path.exists(path + ".tmp"):
            return ChaosOutcome(
                scenario, "wrong-answer", "dump left its temp file behind",
                tripped=tripped,
            )
        try:
            survivor = load_tree(path)
        except ReproError as exc:
            return ChaosOutcome(
                scenario, "wrong-answer",
                f"destination unloadable after faulted dump: {exc}",
                tripped=tripped,
            )
    expected = v1 if failure is not None else v2
    if survivor != expected:
        which = "previous" if failure is not None else "new"
        return ChaosOutcome(
            scenario, "wrong-answer",
            f"destination does not hold the {which} version",
            tripped=tripped,
        )
    return failure or _passed(scenario, tripped)


def _run_corpus(scenario: ChaosScenario, text: str) -> ChaosOutcome:
    """Whole-pipeline differential for the ``corpus.*`` sites.

    The driver writes default_documents() out as a small corpus (so
    ``text`` goes unused) and compares output bytes against a clean
    serial run.  A fault scenario runs the full
    split→evaluate→checkpoint→merge pipeline inline (``workers=0`` —
    the supervisor's retry/quarantine path is identical and the armed
    plan's trips stay observable in-process).  The ``corpus-kill``
    scenario SIGKILLs the first pool worker from the spawn hook, then
    requires the supervisor to detect the death (*counted*), re-run the
    shard on a fresh worker, and converge on the clean bytes.  So that
    the kill lands mid-shard however late the hook runs, that worker
    forks under a ``corpus.task`` latency hold, which the hook disarms
    before it kills: the retry forks unheld.  ``degraded`` — a
    quarantined shard recorded in a ``partial`` report — is the one
    tolerated divergence: loss, but never silent."""
    import signal

    from repro.corpus import run_corpus

    kind, query = _CHAOS_QUERY
    with tempfile.TemporaryDirectory(prefix="chaos-corpus-") as base:
        corpus = os.path.join(base, "corpus")
        os.makedirs(corpus)
        for name, doc in sorted(default_documents().items()):
            with open(os.path.join(corpus, f"{name}.xml"), "w",
                      encoding="utf-8") as fh:
                fh.write(doc)
        out = os.path.join(base, "clean.json")
        clean_run = run_corpus(corpus, kind, query, out=out, workers=0,
                               shard_size=2, retries=0)
        if not clean_run.ok:
            raise ReproError(
                f"clean corpus run not complete: {clean_run.status}"
            )
        with open(out, "rb") as fh:
            clean = fh.read()
        out = os.path.join(base, "faulted.json")
        if scenario.kind == "corpus-kill":
            killed: "list[int]" = []
            hold = contextlib.ExitStack()

            def kill_first(shard_id: int, pid: int) -> None:
                if not killed:
                    killed.append(pid)
                    hold.close()
                    os.kill(pid, signal.SIGKILL)

            try:
                with hold:
                    # a forked worker inherits the armed plan: without
                    # the hold it can finish its shard before the kill
                    hold.enter_context(
                        FaultPlan(["corpus.task:latency:10@nth=1"])
                    )
                    report = run_corpus(
                        corpus, kind, query, out=out, workers=1,
                        shard_size=2, retries=1, on_worker_spawn=kill_first,
                    )
            except Exception as exc:  # noqa: BLE001 - the contract check itself
                return _raised(scenario, exc, bool(killed))
            tripped = bool(killed)
            if report.worker_deaths < 1:
                return ChaosOutcome(
                    scenario, "wrong-answer",
                    "SIGKILLed worker was never detected as dead",
                    tripped=tripped,
                )
        else:
            report, tripped, failure = _armed(
                scenario,
                lambda: run_corpus(corpus, kind, query, out=out, workers=0,
                                   shard_size=2, retries=1),
                retry_transient=True,
            )
            if failure is not None:
                return failure
        if not report.ok:
            quarantined = sorted(
                s.shard_id for s in report.shards
                if s.status == "quarantined"
            )
            if tripped:
                return ChaosOutcome(
                    scenario, "degraded",
                    f"shards {quarantined} quarantined (recorded, "
                    "partial output)", tripped=True,
                )
            return ChaosOutcome(
                scenario, "wrong-answer",
                f"shards {quarantined} quarantined without any trip",
            )
        with open(out, "rb") as fh:
            faulted = fh.read()
        if faulted != clean:
            return ChaosOutcome(
                scenario, "wrong-answer",
                "faulted corpus output differs from clean serial run",
                tripped=tripped,
            )
        return _passed(scenario, tripped)


class ServiceHarness:
    """One live in-process HTTP server shared across ``service.*``
    scenarios — booting a threaded server per scenario dominated sweep
    time, and a reused server doubles as a leak check: after
    :meth:`close` no worker or handler thread may survive (the sweep
    asserts this with a before/after ``threading.enumerate()``).

    Stores are ingested once per document and reused; ingestion happens
    outside any armed plan, so harness setup can never trip a rule
    meant for the scenario's request.  Usable as a context manager
    that closes the server on exit.
    """

    def __init__(self, service=None) -> None:
        from repro.service.app import QueryService, make_server

        self.service = service if service is not None else QueryService()
        self.server = make_server(self.service)
        self.port = self.server.server_address[1]
        self.worker = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.worker.start()
        self._stores: dict[str, str] = {}

    def __enter__(self) -> "ServiceHarness":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def store_for(self, doc: str, text: str) -> str:
        """Ingest ``doc`` once (direct call, no HTTP); returns the store
        name.  Raises RuntimeError when ingestion itself fails."""
        if doc not in self._stores:
            name = f"chaos-{doc}"
            status, payload = self.service.ingest(name, text)
            if status != 201:
                raise RuntimeError(f"harness ingest failed: {payload}")
            self._stores[doc] = name
        return self._stores[doc]

    def post(self, store: str, body: str) -> "tuple[int, object]":
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request(
                "POST", f"/stores/{store}/query", body=body,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            return response.status, json.loads(response.read().decode("utf-8"))
        finally:
            conn.close()

    def prime(self, doc: str, text: str) -> "tuple[str, dict]":
        """Ingest ``doc`` and take the clean answer to the chaos query
        over a socket; returns ``(store, clean payload)``.  Raises
        RuntimeError when either step fails."""
        store = self.store_for(doc, text)
        status, clean = self.post(store, _CHAOS_BODY)
        if status != 200:
            raise RuntimeError(f"clean request failed: {clean}")
        return store, clean

    def close(self, timeout: float = 10.0) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.worker.join(timeout=timeout)


def _typed_error(payload: object) -> "dict | None":
    """The typed error body, if the payload carries a well-formed one."""
    error = payload.get("error") if isinstance(payload, dict) else None
    if isinstance(error, dict) and error.get("code") and error.get("type"):
        return error
    return None


def _run_service(
    scenario: ChaosScenario,
    text: str,
    harness: "ServiceHarness | None" = None,
) -> ChaosOutcome:
    """Drive a ``service.*`` site through a live in-process HTTP server.

    The faultpoints sit in the request path (body decode, dispatch,
    admission, breaker check), so no ``Database`` call can reach them.
    The driver takes a clean answer over a socket, arms the plan
    (arming is process-global, so the worker thread sees it) and
    re-issues the request.  A ``transient-failure`` response is retried
    once client-side — the HTTP analogue of the supervisor's retry leg;
    a typed error body counts as ``typed-error`` exactly like a raised
    :class:`ReproError` does.

    The clean request also resets per-store breaker failure counts
    (success closes the breaker), so state carried on a shared harness
    cannot bleed between scenarios.
    """
    if harness is None:
        with ServiceHarness() as harness:
            return _run_service(scenario, text, harness)
    try:
        store, clean = harness.prime(scenario.doc, text)
    except RuntimeError as exc:
        return ChaosOutcome(scenario, "skipped", str(exc))

    def request() -> "tuple[int, object]":
        status, payload = harness.post(store, _CHAOS_BODY)
        error = _typed_error(payload)
        if error is not None and error["code"] == "transient-failure":
            status, payload = harness.post(store, _CHAOS_BODY)
        return status, payload

    response, tripped, failure = _armed(
        scenario, request, retry_transient=False
    )
    if failure is not None:
        return failure
    status, payload = response
    if status == 200 and isinstance(payload, dict) \
            and payload.get("answer") == clean["answer"]:
        return _passed(scenario, tripped)
    error = _typed_error(payload)
    if error is not None:
        return ChaosOutcome(
            scenario, "typed-error",
            f"HTTP {status} {error['code']}: {error.get('message', '')}",
            tripped=tripped,
        )
    if status == 200:
        return ChaosOutcome(
            scenario, "wrong-answer",
            f"faulted answer differs from clean {clean['answer']!r}",
            tripped=tripped,
        )
    return ChaosOutcome(
        scenario, "foreign-error",
        f"HTTP {status} without a typed error body: {payload!r}",
        tripped=tripped,
    )


def _run_drain(scenario: ChaosScenario, text: str) -> ChaosOutcome:
    """Drive ``service.drain``: the faultpoint fires inside graceful
    shutdown, so each scenario sacrifices its own server.  A drain
    fault must *degrade* — the drain reports dirty and closes
    immediately — never hang or escape, typed or not, and a request
    arriving during/after the drain must get the typed 503
    ``draining`` refusal either way."""
    with ServiceHarness() as harness:
        try:
            store, _ = harness.prime(scenario.doc, text)
        except RuntimeError as exc:
            return ChaosOutcome(scenario, "skipped", str(exc))
        clean_drain, tripped, failure = _armed(
            scenario, lambda: harness.service.shutdown(drain_s=0.5),
            retry_transient=False,
        )
        if failure is not None:
            return dataclasses.replace(failure, status="foreign-error")
        # the straggler check: a request after drain started must be
        # refused with the typed draining error, fault or no fault
        status, payload = harness.post(store, _CHAOS_BODY)
    error = _typed_error(payload)
    if status != 503 or error is None or error.get("code") != "draining":
        return ChaosOutcome(
            scenario, "wrong-answer",
            f"request during drain got HTTP {status} {payload!r} "
            "instead of the typed 503 draining refusal",
            tripped=tripped,
        )
    if clean_drain:
        return _passed(scenario, tripped)
    return ChaosOutcome(
        scenario, "degraded",
        "drain fault degraded to an immediate (dirty) close",
        tripped=tripped,
    )


def _run_telemetry(scenario: ChaosScenario, text: str) -> ChaosOutcome:
    """Drive an ``obs.*`` telemetry site — the *strictest* contract in
    the sweep.

    Request-path service faults may surface as typed errors; telemetry
    faults may not surface **at all**: the faulted request must return
    HTTP 200 with an answer byte-identical to the clean twin, and the
    only permitted footprint is a counted drop (``obs.sample_dropped``
    for sampler faults, ``eventlog.dropped`` for writer faults).  A
    typed error here would mean observability failure leaked into a
    request — scored ``wrong-answer``, a contract violation.

    The driver boots its own harness with tracing fully enabled (an
    always-on sampler and an event log on a temp file) so both sites
    are actually reachable: the shared sweep harness runs with
    ``event_log=None`` and would never exercise ``obs.eventlog``.  The
    event log is flushed *inside* the armed plan — the write happens on
    a background thread, and the fault must trip before the plan
    disarms.
    """
    from repro.obs.events import EventLogWriter
    from repro.obs.metrics import METRICS
    from repro.obs.sampling import TraceSampler
    from repro.service.app import QueryService

    def drops() -> int:
        snapshot = METRICS.snapshot()
        return (
            snapshot.get("obs.sample_dropped", 0)
            + snapshot.get("eventlog.dropped", 0)
        )

    with _temp_path(".jsonl") as log_path, \
            EventLogWriter(log_path, max_bytes=1 << 20) as event_log, \
            ServiceHarness(service=QueryService(
                sampler=TraceSampler(), event_log=event_log)) as harness:
        try:
            store, clean = harness.prime(scenario.doc, text)
        except RuntimeError as exc:
            return ChaosOutcome(scenario, "skipped", str(exc))
        event_log.flush()
        drops_before = drops()

        def request() -> "tuple[int, object]":
            response = harness.post(store, _CHAOS_BODY)
            # the obs.eventlog faultpoint fires on the writer thread;
            # drain it before the plan disarms
            event_log.flush()
            return response

        response, tripped, failure = _armed(
            scenario, request, retry_transient=False
        )
        dropped = drops() > drops_before
    if failure is not None:  # even a typed error is a leak here
        return dataclasses.replace(failure, status="foreign-error")
    status, payload = response
    if status != 200 or not isinstance(payload, dict) \
            or payload.get("answer") != clean["answer"]:
        return ChaosOutcome(
            scenario, "wrong-answer",
            f"telemetry fault leaked into the response: "
            f"HTTP {status} {payload!r} (clean answer {clean['answer']!r})",
            tripped=tripped,
        )
    # latency faults merely stall the telemetry path; every other
    # kind must be accounted for as a drop
    if tripped and ":latency" not in scenario.spec and not dropped:
        return ChaosOutcome(
            scenario, "wrong-answer",
            "telemetry fault tripped but no drop was counted",
            tripped=True,
        )
    return _passed(scenario, tripped)


# ---------------------------------------------------------------------------
# the site families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Family:
    """How the sweep drives one family of fault sites."""

    #: ``driver(scenario, text)``, plus the sweep's shared harness as a
    #: third argument when ``shared_server`` is set
    driver: "Callable[..., ChaosOutcome]"
    #: the scenario kind, whose query names the site; None for engine
    #: sites, which run the query workloads of default_queries()
    kind: "str | None" = None
    #: run against the first document only
    single_doc: bool = False
    #: reuse the sweep's one live :class:`ServiceHarness`
    shared_server: bool = False


#: site or dotted prefix -> family; the longest match wins, and a site
#: matching no row is an engine site, driven through a supervised
#: Database call.  Ingestion and storage sites fire before (or without)
#: an engine call; disk.verify rides the load driver, since the checksum
#: check sits on the load path.  query.parse trips identically on every
#: document.  Corpus, service and telemetry drivers build their own
#: corpus or boot a live server, so one document keeps them cheap.
_FAMILIES: "dict[str, _Family]" = {
    "xml.parse": _Family(_run_xml_parse, "ingest"),
    "stream.events": _Family(_run_stream_events, "ingest"),
    "disk.read": _Family(_run_disk_read, "ingest"),
    "disk.verify": _Family(_run_disk_read, "ingest"),
    "disk.write": _Family(_run_disk_write, "ingest"),
    "query.parse": _Family(_run_engine, single_doc=True),
    "corpus": _Family(_run_corpus, "corpus", single_doc=True),
    "service": _Family(_run_service, "service", single_doc=True,
                       shared_server=True),
    "service.drain": _Family(_run_drain, "service", single_doc=True),
    "obs": _Family(_run_telemetry, "service", single_doc=True),
}

_ENGINE = _Family(_run_engine)


def _family(site: str) -> _Family:
    """The family of ``site``: its own row, else its longest dotted
    prefix's, else the engine family."""
    name = site
    while name:
        if name in _FAMILIES:
            return _FAMILIES[name]
        name = name.rpartition(".")[0]
    return _ENGINE


# ---------------------------------------------------------------------------
# the sweep and the fallback demos
# ---------------------------------------------------------------------------


def chaos_sweep(
    seed: int = 0,
    sites: "list[str] | None" = None,
    fast: bool = False,
    max_scenarios: "int | None" = None,
) -> ChaosReport:
    """Run the full differential sweep; see the module docstring.

    Shared-server scenarios (the request-path ``service.*`` sites) use
    one live server for the whole sweep (:class:`ServiceHarness`);
    ``service.drain`` and the telemetry sites boot their own.  Threads
    alive before the sweep are snapshot and compared after every server
    is closed — any survivor lands in
    :attr:`ChaosReport.leaked_threads` and fails :attr:`ChaosReport.ok`.
    """
    report = ChaosReport(seed=seed)
    scenarios = generate_scenarios(seed, sites=sites, fast=fast)
    if max_scenarios is not None:
        scenarios = scenarios[:max_scenarios]
    before = set(threading.enumerate())
    harness: "ServiceHarness | None" = None
    try:
        for scenario in scenarios:
            if harness is None and _family(scenario.site).shared_server:
                harness = ServiceHarness()
            report.outcomes.append(run_scenario(scenario, harness=harness))
    finally:
        if harness is not None:
            harness.close()
        # daemon handler threads unwind asynchronously after the socket
        # closes — give them a bounded grace period before calling leak
        leaked: list[threading.Thread] = []
        deadline = time.monotonic() + 5.0
        while True:
            leaked = [
                t for t in threading.enumerate()
                if t not in before and t.is_alive()
            ]
            if not leaked or time.monotonic() >= deadline:
                break
            time.sleep(0.05)
        report.leaked_threads = [t.name for t in leaked]
    return report


def fallback_demos(seed: int = 0) -> dict[str, ExecutionStats]:
    """Per engine site: a successful supervised recovery, with its
    attempt chain — the planner's redundancy of algorithms (paper
    Section 7) demonstrated as fault tolerance.

    Strategy sites that the planner picks first for some workload get a
    hard error there (the supervisor blacklists the strategy and falls
    back to the next ranked one); strategy sites the planner never
    ranks first, and the setup sites (``index.build``,
    ``planner.plan``, ``query.parse``) plus ``join.merge``, get a
    transient instead (the supervisor retries the same route).  Every
    returned stats object has ≥ 2 attempts and the tripped site in
    ``stats.faults``.
    """
    documents = default_documents()
    demos: dict[str, ExecutionStats] = {}
    for site in registered_sites():
        # ingestion, server and corpus sites have no engine attempt
        # chain to demo; the sweep covers them with their own drivers
        if _family(site).kind is not None:
            continue
        if site.startswith("strategy."):
            kind, name = _strategy_route(site)
            workloads = [q for k, q in default_queries() if k == kind]
            # a true fallback demo needs the planner to route through
            # the poisoned strategy; then error -> blacklist -> next
            stats = _demo(
                site, f"{site}:error@nth=1", kind, workloads, "auto",
                documents, seed, require_choice=name,
            )
            if stats is None:
                # never the planner's first choice: demo the retry leg
                stats = _demo(
                    site, f"{site}:transient@nth=1", kind, workloads, name,
                    documents, seed,
                )
        else:
            workloads = [q for k, q in default_queries() if k == "xpath"]
            stats = _demo(
                site, f"{site}:transient@nth=1", "xpath", workloads, "auto",
                documents, seed,
            )
        if stats is not None:
            demos[site] = stats
    return demos


def _demo(
    site: str,
    spec: str,
    kind: str,
    workloads: list[str],
    strategy: str,
    documents: dict[str, str],
    seed: int,
    require_choice: "str | None" = None,
) -> "ExecutionStats | None":
    """First workload where the fault trips and the call still succeeds
    with a ≥ 2-entry attempt chain; None when no workload qualifies."""
    for doc in documents.values():
        for query in workloads:
            db = Database.from_xml(doc)
            if require_choice is not None:
                try:
                    if db.plan(kind, query).strategy != require_choice:
                        continue
                except ReproError:
                    continue
            with FaultPlan([spec], seed=seed) as plan:
                try:
                    result = db.run(
                        kind, query, strategy, retries=1, on_error="fallback"
                    )
                except ReproError:
                    continue
            if plan.trips and len(result.stats.attempts) >= 2:
                return result.stats
    return None
