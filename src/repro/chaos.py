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
    Contract violations.  :meth:`ChaosReport.ok` is False if any occur.

The sweep is what the ``repro chaos`` subcommand and the
``chaos-smoke`` CI job run; ``fast=True`` trims the matrix (fewer
queries and fault kinds per site) while still touching every site.
"""

from __future__ import annotations

import fnmatch
import os
import tempfile
import threading
import time
from dataclasses import dataclass, field

from repro.errors import QueryError, ReproError
from repro.faults import FaultPlan, registered_sites
from repro.engine.database import Database
from repro.engine.stats import ExecutionStats

# sites register at the instrumented module's import; the sweep matrix
# snapshots registered_sites(), so every instrumented module must be
# imported before generation — not left to lazy, path-dependent imports
import repro.corpus  # noqa: F401,E402
import repro.engine.index  # noqa: F401,E402
import repro.engine.planner  # noqa: F401,E402
import repro.engine.strategies  # noqa: F401,E402
import repro.service.app  # noqa: F401,E402
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


# engine-path sites are driven through a Database call; ingestion and
# storage sites each need their own driver (they fire before/without an
# engine call).  disk.write gets the crash-safety differential driver
# (a faulted dump must leave the previous version loadable), disk.verify
# rides the load driver (the checksum check sits on the load path).
_INGESTION_SITES = (
    "xml.parse", "stream.events", "disk.read", "disk.write", "disk.verify",
)

# HTTP-boundary sites live in the request path itself (body decode,
# dispatch, admission, breaker check), so only a request against a live
# server can reach them — they share one in-process server per sweep
# (boot-per-scenario when run_scenario is called directly).
# service.drain fires during shutdown and gets its own driver with a
# throwaway server per scenario (the drain kills it).
_SERVICE_SITES = (
    "service.decode", "service.handler", "service.admission",
    "service.breaker", "service.drain",
)

# telemetry sites (trace sampling, the event-log writer) hold a
# *stricter* contract than the request-path service sites: a tripped
# fault must leave the response byte-identical to the clean run — even
# a typed error would mean telemetry failure leaked into a request.
# The only acceptable footprint is a counted drop.
_TELEMETRY_SITES = ("obs.sample", "obs.eventlog")

# corpus-pipeline sites are driven through a whole run_corpus call over
# a throwaway corpus built from default_documents(), compared byte-wise
# against an unfaulted serial run of the same corpus.  Quarantine is the
# one legitimate divergence ("degraded": recorded loss, never silent).
# corpus.worker additionally gets the kill-a-worker differential — a
# real SIGKILL mid-shard instead of an armed plan.
_CORPUS_SITES = (
    "corpus.split", "corpus.worker", "corpus.task", "corpus.merge",
    "corpus.checkpoint",
)


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
    kind: str  # query kind ("xpath"/"twig"/"cq"/"datalog"), or "ingest"
    query: str  # concrete query syntax, or the ingestion driver name
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
        return not self.violations() and not self.leaked_threads

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
            lines.append(f"  note: site {site!r} never tripped in this sweep")
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
    scenarios: list[ChaosScenario] = []
    for site in all_sites:
        strategy = "auto"
        if site in _INGESTION_SITES:
            workloads = [("ingest", site)]
        elif site in _CORPUS_SITES:
            workloads = [("corpus", site)]
        elif site in _SERVICE_SITES or site in _TELEMETRY_SITES:
            workloads = [("service", site)]
        elif site.startswith("strategy."):
            # drive the site with its explicit strategy so it is
            # guaranteed to be reached, through queries of its kind
            strategy_kind = _strategy_kind(site)
            strategy = site.split(".", 1)[1]
            workloads = [
                (kind, query) for kind, query in queries if kind == strategy_kind
            ]
        else:
            workloads = list(queries)
        if fast and len(workloads) > 1:
            workloads = workloads[:1]
        doc_names = list(documents)
        if fast:
            doc_names = doc_names[:1]
        for fault_kind in kinds:
            spec = f"{site}:{fault_kind}@nth=1"
            # query.parse trips identically on every doc; service and
            # telemetry sites boot a live server per scenario — one doc
            # keeps that cheap
            single_doc = (
                site == "query.parse"
                or site in _SERVICE_SITES
                or site in _TELEMETRY_SITES
                or site in _CORPUS_SITES  # driver builds its own corpus
            )
            for doc in doc_names[:1] if single_doc else doc_names:
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


def _strategy_kind(site: str) -> str:
    """Map a ``strategy.<name>`` site to the query kind that can reach it."""
    from repro.engine.strategies import STRATEGIES

    name = site.split(".", 1)[1]
    for kind, registry in STRATEGIES.items():
        if name in registry:
            return kind
    return "xpath"


# ---------------------------------------------------------------------------
# scenario execution
# ---------------------------------------------------------------------------


def run_scenario(
    scenario: ChaosScenario, harness: "ServiceHarness | None" = None
) -> ChaosOutcome:
    """Execute one scenario differentially against its clean twin.

    ``harness`` — an optional live :class:`ServiceHarness` reused across
    ``service.*`` scenarios; without one the driver boots (and tears
    down) a throwaway server per scenario.  ``service.drain`` always
    gets its own server, since the scenario kills it.
    """
    text = default_documents()[scenario.doc]
    if scenario.kind == "ingest":
        return _run_ingestion(scenario, text)
    if scenario.kind == "corpus":
        return _run_corpus(scenario)
    if scenario.kind == "corpus-kill":
        return _run_corpus_kill(scenario)
    if scenario.kind == "service":
        if scenario.site == "service.drain":
            return _run_drain(scenario, text)
        if scenario.site in _TELEMETRY_SITES:
            return _run_telemetry(scenario, text)
        return _run_service(scenario, text, harness=harness)
    return _run_engine(scenario, text)


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
    with FaultPlan([scenario.spec], seed=scenario.seed) as plan:
        try:
            result = db.run(
                scenario.kind, scenario.query, scenario.strategy,
                retries=1, on_error="fallback",
            )
        except ReproError as exc:
            return ChaosOutcome(
                scenario, "typed-error", f"{type(exc).__name__}: {exc}",
                tripped=bool(plan.trips),
            )
        except Exception as exc:  # noqa: BLE001 - the contract check itself
            return ChaosOutcome(
                scenario, "foreign-error", f"{type(exc).__name__}: {exc}",
                tripped=bool(plan.trips),
            )
    if result.answer != clean:
        return ChaosOutcome(
            scenario, "wrong-answer",
            f"faulted answer {sorted(result.answer)!r} != clean "
            f"{sorted(clean)!r}",
            tripped=bool(plan.trips), stats=result.stats,
        )
    status = "recovered" if plan.trips else "match"
    return ChaosOutcome(
        scenario, status, tripped=bool(plan.trips), stats=result.stats
    )


def _run_ingestion(scenario: ChaosScenario, text: str) -> ChaosOutcome:
    if scenario.site == "xml.parse":
        return _run_xml_parse(scenario, text)
    if scenario.site == "stream.events":
        return _run_stream_events(scenario, text)
    if scenario.site == "disk.write":
        return _run_disk_write(scenario, text)
    # disk.read and disk.verify both sit on the load path
    return _run_disk_read(scenario, text)


def _retrying(scenario: ChaosScenario, action):
    """Run ``action`` under the armed plan, retrying one transient —
    the harness-level analogue of the engine supervisor's retry policy.

    Returns ``(value, plan, status)`` where status is None on success.
    """
    from repro.errors import TransientError

    with FaultPlan([scenario.spec], seed=scenario.seed) as plan:
        for attempt in (0, 1):
            try:
                return action(), plan, None
            except TransientError as exc:
                if attempt == 1:
                    return None, plan, ChaosOutcome(
                        scenario, "typed-error",
                        f"TransientError: {exc}", tripped=True,
                    )
            except ReproError as exc:
                return None, plan, ChaosOutcome(
                    scenario, "typed-error", f"{type(exc).__name__}: {exc}",
                    tripped=bool(plan.trips),
                )
            except Exception as exc:  # noqa: BLE001
                return None, plan, ChaosOutcome(
                    scenario, "foreign-error", f"{type(exc).__name__}: {exc}",
                    tripped=bool(plan.trips),
                )
    return None, plan, None  # pragma: no cover - loop always returns


def _run_xml_parse(scenario: ChaosScenario, text: str) -> ChaosOutcome:
    from repro.trees.xmlio import parse_xml, to_xml

    clean = to_xml(parse_xml(text))
    recover = "corrupt" in scenario.spec  # corrupt runs exercise recovery
    warnings: list = []

    def action():
        return parse_xml(text, recover=recover, warnings=warnings)

    tree, plan, failure = _retrying(scenario, action)
    if failure is not None:
        return failure
    faulted = to_xml(tree)
    if faulted == clean:
        status = "recovered" if plan.trips else "match"
        return ChaosOutcome(scenario, status, tripped=bool(plan.trips))
    if recover and plan.trips:
        # recovery mode legitimately keeps a repaired smaller document —
        # but it must say so, and what it kept must round-trip strictly
        round_trips = to_xml(parse_xml(faulted)) == faulted
        if warnings and round_trips:
            return ChaosOutcome(
                scenario, "degraded",
                f"{len(warnings)} repairs reported", tripped=True,
            )
        return ChaosOutcome(
            scenario, "wrong-answer",
            "recovered document differs without warnings "
            f"(round_trips={round_trips})",
            tripped=True,
        )
    return ChaosOutcome(
        scenario, "wrong-answer", "parsed tree differs from clean run",
        tripped=bool(plan.trips),
    )


def _run_stream_events(scenario: ChaosScenario, text: str) -> ChaosOutcome:
    from repro.streaming.events import xml_events

    clean = list(xml_events(text))

    def action():
        return list(xml_events(text))

    events, plan, failure = _retrying(scenario, action)
    if failure is not None:
        return failure
    if events != clean:
        return ChaosOutcome(
            scenario, "wrong-answer",
            f"faulted stream yielded {len(events)} events, clean "
            f"{len(clean)}",
            tripped=bool(plan.trips),
        )
    status = "recovered" if plan.trips else "match"
    return ChaosOutcome(scenario, status, tripped=bool(plan.trips))


def _run_disk_read(scenario: ChaosScenario, text: str) -> ChaosOutcome:
    from repro.storage.diskstore import dump_tree, load_tree
    from repro.trees.xmlio import parse_xml

    clean_tree = parse_xml(text)
    fd, path = tempfile.mkstemp(suffix=".rtre")
    os.close(fd)
    try:
        dump_tree(clean_tree, path)

        def action():
            return load_tree(path)

        tree, plan, failure = _retrying(scenario, action)
        if failure is not None:
            return failure
        if tree.label != clean_tree.label or tree.parent != clean_tree.parent:
            return ChaosOutcome(
                scenario, "wrong-answer", "loaded tree differs from dumped",
                tripped=bool(plan.trips),
            )
        status = "recovered" if plan.trips else "match"
        return ChaosOutcome(scenario, status, tripped=bool(plan.trips))
    finally:
        os.unlink(path)


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
    fd, path = tempfile.mkstemp(suffix=".rtre")
    os.close(fd)
    try:
        dump_tree(v1, path)

        def action():
            return dump_tree(v2, path)

        _, plan, failure = _retrying(scenario, action)
        if failure is not None and failure.status != "typed-error":
            return failure
        if os.path.exists(path + ".tmp"):
            return ChaosOutcome(
                scenario, "wrong-answer", "dump left its temp file behind",
                tripped=bool(plan.trips),
            )
        try:
            survivor = load_tree(path)
        except ReproError as exc:
            return ChaosOutcome(
                scenario, "wrong-answer",
                f"destination unloadable after faulted dump: {exc}",
                tripped=bool(plan.trips),
            )
        expected = v1 if failure is not None else v2
        which = "previous" if failure is not None else "new"
        if (
            survivor.label != expected.label
            or survivor.parent != expected.parent
        ):
            return ChaosOutcome(
                scenario, "wrong-answer",
                f"destination does not hold the {which} version",
                tripped=bool(plan.trips),
            )
        if failure is not None:
            return failure
        status = "recovered" if plan.trips else "match"
        return ChaosOutcome(scenario, status, tripped=bool(plan.trips))
    finally:
        os.unlink(path)
        try:
            os.unlink(path + ".tmp")
        except OSError:
            pass


def _chaos_corpus_dir(base: str) -> str:
    """Materialize default_documents() as a small on-disk corpus."""
    corpus = os.path.join(base, "corpus")
    os.makedirs(corpus)
    for name, text in sorted(default_documents().items()):
        with open(os.path.join(corpus, f"{name}.xml"), "w",
                  encoding="utf-8") as fh:
            fh.write(text)
    return corpus


_CORPUS_CHAOS_QUERY = ("xpath", "Child+[lab() = b]")


def _corpus_oracle(base: str, corpus: str) -> bytes:
    """The clean serial answer bytes for the chaos corpus."""
    from repro.corpus import run_corpus

    out = os.path.join(base, "clean.json")
    kind, query = _CORPUS_CHAOS_QUERY
    report = run_corpus(corpus, kind, query, out=out, workers=0,
                        shard_size=2, retries=0)
    if not report.ok:
        raise ReproError(f"clean corpus run not complete: {report.status}")
    with open(out, "rb") as fh:
        return fh.read()


def _run_corpus(scenario: ChaosScenario) -> ChaosOutcome:
    """Whole-pipeline differential for the ``corpus.*`` sites.

    Runs the full split→evaluate→checkpoint→merge pipeline inline
    (``workers=0`` — the supervisor's retry/quarantine path is identical
    and the armed plan's trips stay observable in-process) under the
    scenario's fault, then compares output bytes against a clean serial
    run.  ``degraded`` — a quarantined shard recorded in a ``partial``
    report — is the one tolerated divergence: loss, but never silent."""
    from repro.corpus import run_corpus

    kind, query = _CORPUS_CHAOS_QUERY
    with tempfile.TemporaryDirectory(prefix="chaos-corpus-") as base:
        corpus = _chaos_corpus_dir(base)
        clean = _corpus_oracle(base, corpus)
        out = os.path.join(base, "faulted.json")

        def action():
            return run_corpus(corpus, kind, query, out=out, workers=0,
                              shard_size=2, retries=1)

        report, plan, failure = _retrying(scenario, action)
        if failure is not None:
            return failure
        if not report.ok:
            quarantined = sorted(
                s.shard_id for s in report.shards
                if s.status == "quarantined"
            )
            if plan.trips:
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
                tripped=bool(plan.trips),
            )
        status = "recovered" if plan.trips else "match"
        return ChaosOutcome(scenario, status, tripped=bool(plan.trips))


def _run_corpus_kill(scenario: ChaosScenario) -> ChaosOutcome:
    """The kill-a-worker differential: SIGKILL the first pool worker the
    moment it spawns, then require the supervisor to detect the death,
    re-run the shard on a fresh worker, and converge on output bytes
    identical to the clean serial run — with the death *counted*."""
    import signal

    from repro.corpus import run_corpus

    kind, query = _CORPUS_CHAOS_QUERY
    with tempfile.TemporaryDirectory(prefix="chaos-corpus-kill-") as base:
        corpus = _chaos_corpus_dir(base)
        clean = _corpus_oracle(base, corpus)
        out = os.path.join(base, "killed.json")
        killed: "list[int]" = []

        def kill_first(shard_id: int, pid: int) -> None:
            if not killed:
                killed.append(pid)
                os.kill(pid, signal.SIGKILL)

        try:
            report = run_corpus(
                corpus, kind, query, out=out, workers=1, shard_size=2,
                retries=1, on_worker_spawn=kill_first,
            )
        except ReproError as exc:
            return ChaosOutcome(
                scenario, "typed-error", f"{type(exc).__name__}: {exc}",
                tripped=bool(killed),
            )
        except Exception as exc:  # noqa: BLE001 - the contract check itself
            return ChaosOutcome(
                scenario, "foreign-error", f"{type(exc).__name__}: {exc}",
                tripped=bool(killed),
            )
        if report.worker_deaths < 1:
            return ChaosOutcome(
                scenario, "wrong-answer",
                "SIGKILLed worker was never detected as dead",
                tripped=bool(killed),
            )
        if not report.ok:
            return ChaosOutcome(
                scenario, "degraded",
                f"run ended {report.status} after the kill", tripped=True,
            )
        with open(out, "rb") as fh:
            survived = fh.read()
        if survived != clean:
            return ChaosOutcome(
                scenario, "wrong-answer",
                "post-kill corpus output differs from clean serial run",
                tripped=True,
            )
        return ChaosOutcome(scenario, "recovered", tripped=True)


class ServiceHarness:
    """One live in-process HTTP server shared across ``service.*``
    scenarios — booting a threaded server per scenario dominated sweep
    time, and a reused server doubles as a leak check: after
    :meth:`close` no worker or handler thread may survive (the sweep
    asserts this with a before/after ``threading.enumerate()``).

    Stores are ingested once per document and reused; ingestion happens
    outside any armed plan, so harness setup can never trip a rule
    meant for the scenario's request.
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
        import json

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
    import json

    owned = harness is None
    if owned:
        harness = ServiceHarness()
    body = json.dumps({"kind": "xpath", "query": "Child+[lab() = b]"})
    try:
        try:
            store = harness.store_for(scenario.doc, text)
        except RuntimeError as exc:
            return ChaosOutcome(scenario, "skipped", str(exc))
        status, clean = harness.post(store, body)
        if status != 200:
            return ChaosOutcome(
                scenario, "skipped", f"clean request failed: {clean}"
            )
        with FaultPlan([scenario.spec], seed=scenario.seed) as plan:
            try:
                status, payload = harness.post(store, body)
                error = _typed_error(payload)
                if error is not None and error["code"] == "transient-failure":
                    status, payload = harness.post(store, body)
            except Exception as exc:  # noqa: BLE001 - the contract check itself
                return ChaosOutcome(
                    scenario, "foreign-error", f"{type(exc).__name__}: {exc}",
                    tripped=bool(plan.trips),
                )
        tripped = bool(plan.trips)
        if status == 200 and isinstance(payload, dict) \
                and payload.get("answer") == clean["answer"]:
            return ChaosOutcome(
                scenario, "recovered" if tripped else "match", tripped=tripped
            )
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
    finally:
        if owned:
            harness.close()


def _run_drain(scenario: ChaosScenario, text: str) -> ChaosOutcome:
    """Drive ``service.drain``: the faultpoint fires inside graceful
    shutdown, so each scenario sacrifices its own server.  A drain
    fault must *degrade* — the drain reports dirty and closes
    immediately — never hang or escape untyped, and a request arriving
    during/after the drain must get the typed 503 ``draining``
    refusal either way."""
    import json

    harness = ServiceHarness()
    body = json.dumps({"kind": "xpath", "query": "Child+[lab() = b]"})
    try:
        try:
            store = harness.store_for(scenario.doc, text)
        except RuntimeError as exc:
            return ChaosOutcome(scenario, "skipped", str(exc))
        status, clean = harness.post(store, body)
        if status != 200:
            return ChaosOutcome(
                scenario, "skipped", f"clean request failed: {clean}"
            )
        with FaultPlan([scenario.spec], seed=scenario.seed) as plan:
            try:
                clean_drain = harness.service.shutdown(drain_s=0.5)
            except Exception as exc:  # noqa: BLE001 - must not escape
                return ChaosOutcome(
                    scenario, "foreign-error",
                    f"drain raised {type(exc).__name__}: {exc}",
                    tripped=bool(plan.trips),
                )
        tripped = bool(plan.trips)
        # the straggler check: a request after drain started must be
        # refused with the typed draining error, fault or no fault
        status, payload = harness.post(store, body)
        error = _typed_error(payload)
        if status != 503 or error is None or error.get("code") != "draining":
            return ChaosOutcome(
                scenario, "wrong-answer",
                f"request during drain got HTTP {status} {payload!r} "
                "instead of the typed 503 draining refusal",
                tripped=tripped,
            )
        if clean_drain:
            return ChaosOutcome(
                scenario, "recovered" if tripped else "match", tripped=tripped
            )
        return ChaosOutcome(
            scenario, "degraded",
            "drain fault degraded to an immediate (dirty) close",
            tripped=tripped,
        )
    finally:
        harness.close()


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
    import json

    from repro.obs.events import EventLogWriter
    from repro.obs.metrics import METRICS
    from repro.obs.sampling import TraceSampler
    from repro.service.app import QueryService

    fd, log_path = tempfile.mkstemp(suffix=".jsonl", prefix="repro-chaos-")
    os.close(fd)
    event_log = EventLogWriter(log_path, max_bytes=1 << 20)
    harness = ServiceHarness(
        service=QueryService(sampler=TraceSampler(), event_log=event_log)
    )
    body = json.dumps({"kind": "xpath", "query": "Child+[lab() = b]"})

    def drops() -> int:
        snapshot = METRICS.snapshot()
        return (
            snapshot.get("obs.sample_dropped", 0)
            + snapshot.get("eventlog.dropped", 0)
        )

    try:
        try:
            store = harness.store_for(scenario.doc, text)
        except RuntimeError as exc:
            return ChaosOutcome(scenario, "skipped", str(exc))
        status, clean = harness.post(store, body)
        if status != 200:
            return ChaosOutcome(
                scenario, "skipped", f"clean request failed: {clean}"
            )
        event_log.flush()
        drops_before = drops()
        with FaultPlan([scenario.spec], seed=scenario.seed) as plan:
            try:
                status, payload = harness.post(store, body)
            except Exception as exc:  # noqa: BLE001 - the contract check itself
                return ChaosOutcome(
                    scenario, "foreign-error", f"{type(exc).__name__}: {exc}",
                    tripped=bool(plan.trips),
                )
            # the obs.eventlog faultpoint fires on the writer thread;
            # drain it before the plan disarms
            event_log.flush()
            tripped = bool(plan.trips)
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
        if tripped and ":latency" not in scenario.spec and drops() <= drops_before:
            return ChaosOutcome(
                scenario, "wrong-answer",
                "telemetry fault tripped but no drop was counted",
                tripped=True,
            )
        return ChaosOutcome(
            scenario, "recovered" if tripped else "match", tripped=tripped
        )
    finally:
        harness.close()
        event_log.close()
        for stale in (log_path, log_path + ".1"):
            try:
                os.unlink(stale)
            except OSError:
                pass


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

    Request-path ``service.*`` scenarios share one live server for the
    whole sweep (:class:`ServiceHarness`); ``service.drain`` scenarios
    boot their own, since the drain kills it.  Threads alive before the
    sweep are snapshot and compared after every server is closed — any
    survivor lands in :attr:`ChaosReport.leaked_threads` and fails
    :attr:`ChaosReport.ok`.
    """
    report = ChaosReport(seed=seed)
    scenarios = generate_scenarios(seed, sites=sites, fast=fast)
    if max_scenarios is not None:
        scenarios = scenarios[:max_scenarios]
    before = set(threading.enumerate())
    harness: "ServiceHarness | None" = None
    try:
        for scenario in scenarios:
            if (
                scenario.kind == "service"
                and scenario.site != "service.drain"
                and scenario.site not in _TELEMETRY_SITES
            ):
                if harness is None:
                    harness = ServiceHarness()
                report.outcomes.append(run_scenario(scenario, harness=harness))
            else:
                report.outcomes.append(run_scenario(scenario))
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
        # ingestion, HTTP-boundary, telemetry and corpus sites have no
        # engine attempt chain to demo; the sweep covers them with
        # their own drivers
        if (
            site in _INGESTION_SITES
            or site in _SERVICE_SITES
            or site in _TELEMETRY_SITES
            or site in _CORPUS_SITES
        ):
            continue
        if site.startswith("strategy."):
            kind = _strategy_kind(site)
            name = site.split(".", 1)[1]
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
