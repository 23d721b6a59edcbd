"""Command-line interface.

::

    python -m repro stats    doc.xml
    python -m repro xpath    "Child*[lab() = a]/Child[lab() = b]" doc.xml
    python -m repro cq       "ans(x) :- Child+(y, x), Lab:a(y)" doc.xml
    python -m repro twig     "//a[b]//c" doc.xml
    python -m repro datalog  program.dl doc.xml
    python -m repro convert  doc.xml doc.rtre        (and back: .rtre -> .xml)
    python -m repro classify Child+ Following        (Theorem 6.8 verdict)
    python -m repro bench    run | compare | export  (benchmark telemetry)
    python -m repro serve    --port 8008 --store name=doc.xml   (HTTP service)
    python -m repro store    verify doc.rtre         (checksum verification)

Every query command goes through :class:`repro.engine.Database`:
``--engine auto`` (the default) runs the cheapest applicable strategy,
``--engine <name>`` forces one of the registered strategies, and
``--engine all`` cross-checks every applicable strategy and fails with
exit code 1 if any pair disagrees.  ``--stats`` prints the per-call
:class:`~repro.engine.stats.ExecutionStats` summary to stderr.

Observability (see docs/OBSERVABILITY.md): ``--trace`` pretty-prints
the span tree to stderr, ``--trace=FILE`` writes it as JSON instead;
``--deadline-ms N`` and ``--max-visited N`` set a resource budget —
exceeding it is a clean exit-3 error (an ``auto`` call falls back to
the next applicable strategy first).

Robustness (see docs/ROBUSTNESS.md): ``--retries N`` re-attempts
transient failures, ``--on-error {raise,fallback,partial}`` picks the
degradation policy, and ``--fault SITE:KIND[:ARG][@TRIGGER]``
(repeatable, with ``--fault-seed``) arms a deterministic fault plan
around the query — injected failures that defeat the supervisor are a
clean exit-4 error.  ``repro chaos`` runs the seeded differential
sweep over every registered injection site and fails (exit 1) on any
wrong answer or foreign exception.

Benchmark telemetry (the "Benchmark telemetry" section of
docs/OBSERVABILITY.md): ``repro bench run`` sweeps ``benchmarks/`` and
writes the next ``BENCH_<n>.json``; ``repro bench compare`` diffs two
runs (growth-class changes always fail; timing-band breaches fail
unless ``--timing-warn-only``); ``repro bench export`` renders a run as
OpenMetrics text.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from contextlib import nullcontext
from typing import TYPE_CHECKING

_NULL_PLAN = nullcontext()

from repro.engine import Database, strategy_names
from repro.errors import (
    AllStrategiesFailedError,
    InjectedFault,
    QueryError,
    ResourceBudgetExceeded,
    TransientError,
)
from repro.faults import FaultPlan

if TYPE_CHECKING:
    from repro.trees.tree import Tree

__all__ = ["main", "build_parser"]


def _load_database(args) -> Database:
    return Database.from_file(
        args.document,
        getattr(args, "attr_labels", False),
        plan_cache=getattr(args, "plan_cache", None),
    )


def _print_nodes(tree: Tree, nodes, show_paths: bool) -> None:
    for v in sorted(nodes):
        if show_paths:
            chain = [v, *tree.ancestors(v)]
            path = "/".join(tree.label[u] for u in reversed(chain))
            print(f"{v}\t{path}")
        else:
            print(v)


def cmd_stats(args) -> int:
    tree = _load_database(args).tree
    print(f"nodes   : {tree.n}")
    print(f"height  : {tree.height()}")
    print(f"leaves  : {sum(1 for _ in tree.leaves())}")
    histogram = Counter(tree.label)
    print("labels  :")
    for label, count in histogram.most_common(args.top):
        print(f"  {label:20s} {count}")
    return 0


def _budget_kwargs(args) -> dict:
    """Translate the observability/supervision flags into Database kwargs."""
    deadline_ms = getattr(args, "deadline_ms", None)
    return {
        "trace": getattr(args, "trace", None) is not None,
        "deadline": deadline_ms / 1000.0 if deadline_ms is not None else None,
        "max_visited": getattr(args, "max_visited", None),
        "retries": getattr(args, "retries", 0),
        "on_error": getattr(args, "on_error", "raise"),
    }


def _fault_plan(args) -> "FaultPlan | None":
    """An armed FaultPlan from --fault/--fault-seed, or None."""
    specs = getattr(args, "fault", None)
    if not specs:
        return None
    return FaultPlan(specs, seed=getattr(args, "fault_seed", 0))


def _emit_trace(args, name: str, result) -> None:
    """Write the captured span tree where --trace pointed it."""
    from repro.obs import render_pretty, write_trace

    span = result.stats.trace
    if span is None:
        return
    if args.trace == "-":
        print(f"# trace [{name}]:", file=sys.stderr)
        print(render_pretty(span), file=sys.stderr)
    else:
        write_trace(span, args.trace)
        print(f"# trace written to {args.trace}", file=sys.stderr)


def _run_query(args, db: Database, kind: str, query) -> int:
    """Plan/dispatch one query; shared by xpath, cq, twig and datalog."""
    chosen = args.engine
    names = strategy_names(kind)
    if chosen not in ("all", "auto") and chosen not in names:
        print(
            f"engine {chosen!r} unknown for {kind}; options: "
            f"{', '.join(names)}, auto or all",
            file=sys.stderr,
        )
        return 2
    obs = _budget_kwargs(args)
    plan = _fault_plan(args)
    try:
        with plan if plan is not None else _NULL_PLAN:
            if chosen == "all":
                results = db.cross_check(kind, query, **obs)
            else:
                result = db.run(kind, query, chosen, **obs)
                results = {result.stats.strategy: result}
    except QueryError as exc:
        print(f"engine {chosen!r} not applicable: {exc}", file=sys.stderr)
        return 2
    except ResourceBudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (AllStrategiesFailedError, InjectedFault, TransientError) as exc:
        print(f"supervision exhausted: {exc}", file=sys.stderr)
        return 4
    if plan is not None:
        print(
            f"# fault plan: {len(plan.trips)} trips at "
            f"{plan.tripped_sites() or 'no sites'}",
            file=sys.stderr,
        )

    for name, result in results.items():
        print(f"# {name}: {result.stats.elapsed_ms:.1f} ms", file=sys.stderr)
        if args.stats:
            print(f"# {result.stats.summary()} — {result.stats.reason}",
                  file=sys.stderr)
        if obs["trace"]:
            _emit_trace(args, name, result)

    answers = list(results.values())
    if len(answers) > 1 and any(
        set(r.answer) != set(answers[0].answer) for r in answers[1:]
    ):
        print("ENGINE DISAGREEMENT — this is a bug", file=sys.stderr)
        return 1

    answer = answers[0].answer
    if kind in ("twig", "cq"):
        for row in sorted(answer):
            print("\t".join(map(str, row)))
        print(f"# {len(answer)} tuples", file=sys.stderr)
    else:
        _print_nodes(db.tree, answer, args.paths)
        print(f"# {len(answer)} nodes", file=sys.stderr)
    return 0


def cmd_xpath(args) -> int:
    db = _load_database(args)
    return _run_query(args, db, "xpath", args.query)


def cmd_cq(args) -> int:
    db = _load_database(args)
    return _run_query(args, db, "cq", args.query)


def cmd_twig(args) -> int:
    db = _load_database(args)
    return _run_query(args, db, "twig", args.query)


def cmd_datalog(args) -> int:
    from repro.datalog import parse_program

    db = _load_database(args)
    with open(args.program, "r", encoding="utf-8") as fh:
        program = parse_program(fh.read(), query_pred=args.query_pred)
    return _run_query(args, db, "datalog", program)


def cmd_convert(args) -> int:
    from repro.storage.diskstore import dump_tree
    from repro.trees.xmlio import to_xml

    tree = Database.from_file(args.source, args.attr_labels).tree
    if args.target.endswith(".rtre"):
        size = dump_tree(tree, args.target)
        print(f"wrote {args.target}: {tree.n} nodes, {size} bytes", file=sys.stderr)
    else:
        with open(args.target, "w", encoding="utf-8") as fh:
            fh.write(to_xml(tree, indent=2))
        print(f"wrote {args.target}: {tree.n} nodes", file=sys.stderr)
    return 0


def cmd_bench_run(args) -> int:
    from repro.perf import run_benchmarks

    outcome = run_benchmarks(
        benchmarks_dir=args.benchmarks,
        out_dir=args.out,
        select=args.select,
        fast=True if args.fast else None,
    )
    if outcome.path is None:
        print("bench run: no telemetry captured (pytest failed to start?)",
              file=sys.stderr)
        return outcome.pytest_exit or 1
    print(f"bench run: {outcome.modules} modules, {outcome.series} series "
          f"-> {outcome.path}", file=sys.stderr)
    if outcome.pytest_exit:
        print(f"bench run: pytest exited {outcome.pytest_exit} "
              "(failures recorded in the run file)", file=sys.stderr)
    return outcome.pytest_exit


def cmd_bench_compare(args) -> int:
    from repro.perf import compare_runs, latest_runs, load_run

    if args.old and args.new:
        old_path, new_path = args.old, args.new
    elif args.old or args.new:
        print("bench compare: give two run files or none (= latest two)",
              file=sys.stderr)
        return 2
    else:
        runs = latest_runs(args.dir, 2)
        if len(runs) < 2:
            print(f"bench compare: need two BENCH_*.json under {args.dir!r}, "
                  f"found {len(runs)} — run `repro bench run` first",
                  file=sys.stderr)
            return 2
        old_path, new_path = runs
    report = compare_runs(
        load_run(old_path),
        load_run(new_path),
        band=args.band,
        timing_fail=not args.timing_warn_only,
    )
    print(f"# baseline {old_path} vs {new_path}", file=sys.stderr)
    print(report.render())
    return report.exit_code


def cmd_bench_export(args) -> int:
    from repro.perf import latest_runs, load_run, render_bench_openmetrics

    path = args.run
    if path is None:
        runs = latest_runs(args.dir, 1)
        if not runs:
            print(f"bench export: no BENCH_*.json under {args.dir!r}",
                  file=sys.stderr)
            return 2
        path = runs[0]
    print(render_bench_openmetrics(load_run(path)), end="")
    return 0


def cmd_chaos(args) -> int:
    from repro.chaos import chaos_sweep

    report = chaos_sweep(
        seed=args.seed,
        sites=args.sites,
        fast=args.fast,
        max_scenarios=args.scenarios,
    )
    print(report.summary())
    return 0 if report.ok else 1


def cmd_store_verify(args) -> int:
    """Checksum-verify .rtre store files (docs/ROBUSTNESS.md).

    A directory argument expands to every ``.rtre`` file under it
    (recursively, sorted), so a whole corpus can be checked before a
    ``repro corpus run``; a directory with none is itself a FAIL."""
    from repro.errors import ParseError, StorageError
    from repro.storage import verify_store

    failures = 0
    targets: "list[str]" = []
    for path in args.paths:
        if os.path.isdir(path):
            found = sorted(
                os.path.join(dirpath, name)
                for dirpath, _dirnames, filenames in os.walk(path)
                for name in filenames
                if name.endswith(".rtre")
            )
            if not found:
                print(f"FAIL {path}: directory contains no .rtre files")
                failures += 1
                continue
            targets.extend(found)
        else:
            targets.append(path)
    for path in targets:
        try:
            info = verify_store(path)
        except (StorageError, ParseError, OSError) as exc:
            print(f"FAIL {path}: {exc}")
            failures += 1
            continue
        print(
            f"OK   {path}: {info['nodes']} nodes, {info['bytes']} bytes, "
            f"checksum {info['checksum']}"
        )
    return 1 if failures else 0


def cmd_corpus_run(args) -> int:
    """Fan one query out over a corpus directory (docs/ROBUSTNESS.md)."""
    from repro.corpus import run_corpus
    from repro.errors import CorpusError

    plan = _fault_plan(args)
    try:
        with plan if plan is not None else _NULL_PLAN:
            report = run_corpus(
                args.corpus,
                args.kind,
                args.query,
                query_pred=args.query_pred,
                out=args.out,
                workdir=args.workdir,
                workers=args.workers,
                shard_size=args.shard_size,
                retries=args.retries,
                task_timeout_s=args.task_timeout_s,
                resume=args.resume,
            )
    except CorpusError as exc:
        print(f"corpus: {exc}", file=sys.stderr)
        return 2
    print(report.scorecard())
    print(f"# output: {report.out_path}  manifest: {report.manifest_path}")
    return 0 if report.ok else 1


def cmd_corpus_status(args) -> int:
    """Summarize a run's checkpoint manifest (resumable or complete?)."""
    from repro.corpus import CheckpointJournal

    manifest = args.manifest
    if os.path.isdir(manifest):
        manifest = os.path.join(manifest, "manifest.jsonl")
    state = CheckpointJournal.load(manifest)
    header = state.header
    n_shards = int(header.get("n_shards", 0))
    print(f"manifest {manifest}")
    print(f"  corpus: {header.get('n_docs')} docs in {n_shards} shards, "
          f"fingerprint {str(header.get('fingerprint'))[:16]}…")
    print(f"  query: {header.get('kind')} {header.get('query')!r}")
    print(f"  completed {len(state.completed)}/{n_shards} shards, "
          f"{len(state.quarantined)} quarantined, "
          f"{state.skipped_lines} invalid journal lines")
    for shard_id in sorted(state.quarantined):
        record = state.quarantined[shard_id]
        print(f"  shard {shard_id}: QUARANTINED after "
              f"{record.get('attempts')} attempts — {record.get('error')}")
    done = len(state.completed) == n_shards and not state.quarantined
    print("  status: complete" if done else "  status: resumable (partial)")
    return 0 if done else 1


def cmd_corpus_verify(args) -> int:
    """Integrity-check a corpus output file (and optionally its workdir)."""
    from repro.corpus import CheckpointJournal, spill_path, verify_output
    from repro.errors import ReproError
    from repro.storage import read_blob
    import zlib

    failures = 0
    try:
        doc = verify_output(args.out)
        print(f"OK   {args.out}: {doc['status']}, "
              f"{len(doc['results'])} documents, crc32 {doc['crc32']}")
    except ReproError as exc:
        print(f"FAIL {args.out}: {exc}")
        failures += 1
    workdir = args.workdir
    if workdir is None and os.path.isdir(args.out + ".work"):
        workdir = args.out + ".work"
    if workdir is not None:
        manifest = os.path.join(workdir, "manifest.jsonl")
        try:
            state = CheckpointJournal.load(manifest)
        except ReproError as exc:
            print(f"FAIL {manifest}: {exc}")
            return 1
        if state.skipped_lines:
            print(f"FAIL {manifest}: {state.skipped_lines} invalid "
                  "journal lines")
            failures += 1
        else:
            print(f"OK   {manifest}: {len(state.completed)} shard records")
        for shard_id in sorted(state.completed):
            record = state.completed[shard_id]
            path = spill_path(workdir, shard_id)
            try:
                payload = read_blob(path)
            except ReproError as exc:
                print(f"FAIL {path}: {exc}")
                failures += 1
                continue
            if (zlib.crc32(payload) & 0xFFFFFFFF) != record.get("spill_crc"):
                print(f"FAIL {path}: spill does not match manifest crc")
                failures += 1
            else:
                print(f"OK   {path}: {len(payload)} bytes")
    return 1 if failures else 0


def cmd_serve(args) -> int:
    """Boot the threaded HTTP query service (docs/SERVICE.md)."""
    from repro.obs import EventLogWriter, TraceSampler
    from repro.service import QueryService, serve

    if not 0 <= args.port <= 65535:
        print(f"serve: port {args.port} out of range 0-65535", file=sys.stderr)
        return 2
    if args.max_concurrency is not None and args.max_concurrency < 1:
        print(
            f"serve: --max-concurrency must be >= 1, got {args.max_concurrency}",
            file=sys.stderr,
        )
        return 2
    if args.queue_limit < 0:
        print(f"serve: --queue-limit must be >= 0, got {args.queue_limit}",
              file=sys.stderr)
        return 2
    if args.drain_s < 0:
        print(f"serve: --drain-s must be >= 0, got {args.drain_s}",
              file=sys.stderr)
        return 2
    if not 0.0 <= args.trace_sample <= 1.0:
        print(f"serve: --trace-sample must be in [0, 1], got {args.trace_sample}",
              file=sys.stderr)
        return 2
    if args.slow_ms is not None and args.slow_ms < 0:
        print(f"serve: --slow-ms must be >= 0, got {args.slow_ms}",
              file=sys.stderr)
        return 2
    if args.event_log_max_bytes < 1024:
        print(
            f"serve: --event-log-max-bytes must be >= 1024, got "
            f"{args.event_log_max_bytes}",
            file=sys.stderr,
        )
        return 2
    if args.trace_buffer < 1:
        print(f"serve: --trace-buffer must be >= 1, got {args.trace_buffer}",
              file=sys.stderr)
        return 2
    sampler = TraceSampler(
        head_rate=args.trace_sample,
        slow_ms=args.slow_ms,  # a slow-log threshold is also a tail policy
        keep_errors=True,
    )
    event_log = (
        EventLogWriter(args.event_log, max_bytes=args.event_log_max_bytes)
        if args.event_log is not None
        else None
    )
    service = QueryService(
        plan_cache=args.plan_cache,
        max_concurrency=args.max_concurrency,
        queue_limit=args.queue_limit,
        sampler=sampler,
        event_log=event_log,
        slow_ms=args.slow_ms,
        trace_capacity=args.trace_buffer,
    )
    for spec in args.store or ():
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            print(f"serve: --store wants NAME=PATH, got {spec!r}", file=sys.stderr)
            return 2
        db = Database.from_file(path, plan_cache=args.plan_cache)
        db.index  # pay indexing at startup, not on the first request
        service.stores.put(name, db, source=path)
        print(f"# store {name!r}: {db.tree.n} nodes from {path}", file=sys.stderr)
    print(f"# serving on http://{args.host}:{args.port}", file=sys.stderr)
    try:
        serve(
            service,
            host=args.host,
            port=args.port,
            verbose=not args.quiet,
            drain_s=args.drain_s,
        )
    finally:
        if event_log is not None:
            event_log.close()
    return 0


def _iter_event_records(path: str):
    """Records from a JSONL event log, oldest first.

    Reads the rotated generation (``<path>.1``) before the live file,
    so ``last record wins`` semantics hold across a rotation.  Corrupt
    lines (a crash mid-write) are skipped, not fatal — the log is
    telemetry, not a ledger.
    """
    import json as _json
    import os as _os

    found = False
    for candidate in (path + ".1", path):
        if not _os.path.exists(candidate):
            continue
        found = True
        with open(candidate, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = _json.loads(line)
                except ValueError:
                    continue
                if isinstance(record, dict):
                    yield record
    if not found:
        raise FileNotFoundError(f"no event log at {path!r} (or {path!r}.1)")


def _trace_summary_line(record: dict) -> str:
    tid = record.get("trace_id", "?")
    extras = " ".join(
        f"{key}={record[key]}"
        for key in ("store", "kind", "strategy", "attempts", "retained_by",
                    "error_code")
        if key in record
    )
    return (
        f"{tid:<34} {record.get('route', '?'):<14} "
        f"{record.get('outcome', '?'):<8} "
        f"{record.get('duration_ms', 0):>10.3f} ms"
        + (f"  {extras}" if extras else "")
    )


def cmd_trace_list(args) -> int:
    """Newest-last listing of event-log records."""
    if args.limit < 1:
        print(f"trace list: --limit must be >= 1, got {args.limit}",
              file=sys.stderr)
        return 2
    try:
        records = list(_iter_event_records(args.log))
    except FileNotFoundError as exc:
        print(f"trace list: {exc}", file=sys.stderr)
        return 2
    for record in records[-args.limit:]:
        print(_trace_summary_line(record))
    print(f"# {len(records)} record(s) in {args.log}", file=sys.stderr)
    return 0


def cmd_trace_show(args) -> int:
    """One trace: the summary line plus its span-tree waterfall."""
    from repro.obs import render_pretty, span_from_dict

    try:
        records = list(_iter_event_records(args.log))
    except FileNotFoundError as exc:
        print(f"trace show: {exc}", file=sys.stderr)
        return 2
    matches = [r for r in records if r.get("trace_id") == args.id]
    if not matches:
        print(f"trace show: no record with trace id {args.id!r} in {args.log}",
              file=sys.stderr)
        return 1
    record = matches[-1]  # a client-reused id: latest occurrence wins
    print(_trace_summary_line(record))
    spans = record.get("spans")
    if spans:
        print(render_pretty(span_from_dict(spans)))
    else:
        print("# no span tree retained for this trace (not sampled)",
              file=sys.stderr)
    return 0


def cmd_trace_top(args) -> int:
    """The N slowest requests in the event log, slowest first."""
    if args.slowest < 1:
        print(f"trace top: --slowest must be >= 1, got {args.slowest}",
              file=sys.stderr)
        return 2
    try:
        records = list(_iter_event_records(args.log))
    except FileNotFoundError as exc:
        print(f"trace top: {exc}", file=sys.stderr)
        return 2
    ranked = sorted(
        records, key=lambda r: r.get("duration_ms", 0.0), reverse=True
    )
    for record in ranked[: args.slowest]:
        print(_trace_summary_line(record))
    return 0


def cmd_classify(args) -> int:
    from repro.consistency import classify_signature

    verdict, order = classify_signature(args.axes)
    if verdict == "P":
        print(f"P  (X-property w.r.t. <{order})")
    else:
        print("NP-complete (Theorem 6.8)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="query processing on tree-structured data (Koch, PODS 2006)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, kind=None):
        p.add_argument("document", help="XML file or .rtre store")
        p.add_argument(
            "--attr-labels",
            action="store_true",
            help="expose attributes as @name / @name=value labels",
        )
        p.add_argument(
            "--paths", action="store_true", help="print label paths, not just ids"
        )
        if kind:
            p.add_argument(
                "--engine",
                default="auto",
                help=(
                    f"strategy ({', '.join(strategy_names(kind))}), "
                    "'auto' (the cheapest applicable one) or 'all' (cross-check)"
                ),
            )
            p.add_argument(
                "--stats",
                action="store_true",
                help="print execution stats (strategy, index usage) to stderr",
            )
            p.add_argument(
                "--trace",
                nargs="?",
                const="-",
                default=None,
                metavar="FILE",
                help=(
                    "capture a span trace; bare --trace pretty-prints to "
                    "stderr, --trace FILE writes JSON"
                ),
            )
            p.add_argument(
                "--deadline-ms",
                type=float,
                default=None,
                metavar="N",
                help="abort (exit 3) if evaluation exceeds N milliseconds",
            )
            p.add_argument(
                "--max-visited",
                type=int,
                default=None,
                metavar="N",
                help="abort (exit 3) after visiting more than N nodes",
            )
            p.add_argument(
                "--retries",
                type=int,
                default=0,
                metavar="N",
                help="re-attempt transient failures up to N times",
            )
            p.add_argument(
                "--on-error",
                choices=("raise", "fallback", "partial"),
                default="raise",
                help=(
                    "degradation policy: raise (default), fallback "
                    "(blacklist the failed strategy, try the next), or "
                    "partial (never fail: degrade to an empty answer)"
                ),
            )
            p.add_argument(
                "--fault",
                action="append",
                default=None,
                metavar="SPEC",
                help=(
                    "arm a deterministic fault rule "
                    "(SITE:KIND[:ARG][@TRIGGER], repeatable; "
                    "see docs/ROBUSTNESS.md)"
                ),
            )
            p.add_argument(
                "--fault-seed",
                type=int,
                default=0,
                metavar="N",
                help="RNG seed for probabilistic fault triggers",
            )
            p.add_argument(
                "--plan-cache",
                type=int,
                default=None,
                metavar="N",
                help="query cache capacity: parsed queries and their plans "
                "(0 disables; default 128)",
            )

    p = sub.add_parser("stats", help="document statistics")
    p.add_argument("document")
    p.add_argument("--attr-labels", action="store_true")
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("xpath", help="evaluate a Core XPath query")
    p.add_argument("query")
    common(p, kind="xpath")
    p.set_defaults(func=cmd_xpath)

    p = sub.add_parser("cq", help="evaluate a conjunctive query")
    p.add_argument("query")
    common(p, kind="cq")
    p.set_defaults(func=cmd_cq)

    p = sub.add_parser("twig", help="evaluate a twig pattern")
    p.add_argument("query")
    common(p, kind="twig")
    p.set_defaults(func=cmd_twig)

    p = sub.add_parser("datalog", help="evaluate a monadic datalog program")
    p.add_argument("program", help="datalog program file")
    common(p, kind="datalog")
    p.add_argument("--query-pred", default=None)
    p.set_defaults(func=cmd_datalog)

    p = sub.add_parser("convert", help="convert between XML and .rtre store")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--attr-labels", action="store_true")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser(
        "chaos",
        help="seeded fault-injection sweep: clean answer or typed error",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="sweep seed (default 0); same seed, same trips")
    p.add_argument("--fast", action="store_true",
                   help="trimmed matrix (CI smoke); still touches every site")
    p.add_argument("--scenarios", type=int, default=None, metavar="N",
                   help="cap the number of scenarios run")
    p.add_argument("--sites", nargs="+", default=None, metavar="SITE",
                   help="restrict the sweep to these injection sites "
                        "(exact name, glob, or dotted prefix: 'corpus' "
                        "selects every corpus.* site)")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "serve", help="serve document stores over HTTP (docs/SERVICE.md)"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8008)
    p.add_argument("--store", action="append", default=None, metavar="NAME=PATH",
                   help="preload a document store (repeatable)")
    p.add_argument("--plan-cache", type=int, default=None, metavar="N",
                   help="query cache capacity per store (parses and plans)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-request access logging")
    p.add_argument("--max-concurrency", type=int, default=None, metavar="N",
                   help="admit at most N concurrent query/ingest requests; "
                        "overflow queues, then sheds as 429 (default: unbounded)")
    p.add_argument("--queue-limit", type=int, default=16, metavar="N",
                   help="admission queue depth before shedding (default 16)")
    p.add_argument("--drain-s", type=float, default=5.0, metavar="S",
                   help="SIGTERM graceful-drain window in seconds (default 5)")
    p.add_argument("--trace-sample", type=float, default=1.0, metavar="F",
                   help="head-sample this fraction of request traces "
                        "(default 1.0; errors are always kept)")
    p.add_argument("--slow-ms", type=float, default=None, metavar="N",
                   help="log (and always retain the trace of) requests "
                        "at least this slow")
    p.add_argument("--event-log", default=None, metavar="FILE",
                   help="append one JSONL record per request to FILE "
                        "(size-rotated; see repro trace)")
    p.add_argument("--event-log-max-bytes", type=int,
                   default=16 * 1024 * 1024, metavar="N",
                   help="rotate the event log past this size (default 16 MiB)")
    p.add_argument("--trace-buffer", type=int, default=256, metavar="N",
                   help="in-memory retained-trace ring capacity behind "
                        "/debug/traces (default 256)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "trace",
        help="inspect request traces from an event-log JSONL file",
    )
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    t = trace_sub.add_parser("list", help="list event-log records, newest last")
    t.add_argument("--log", required=True, metavar="FILE",
                   help="event-log JSONL file (the serve --event-log path)")
    t.add_argument("--limit", type=int, default=50, metavar="N",
                   help="show at most the newest N records (default 50)")
    t.set_defaults(func=cmd_trace_list)
    t = trace_sub.add_parser(
        "show", help="one trace: summary plus its span-tree waterfall"
    )
    t.add_argument("id", metavar="TRACE_ID")
    t.add_argument("--log", required=True, metavar="FILE",
                   help="event-log JSONL file to search")
    t.set_defaults(func=cmd_trace_show)
    t = trace_sub.add_parser("top", help="the slowest requests on record")
    t.add_argument("--log", required=True, metavar="FILE",
                   help="event-log JSONL file to rank")
    t.add_argument("--slowest", type=int, default=10, metavar="N",
                   help="how many to show (default 10)")
    t.set_defaults(func=cmd_trace_top)

    p = sub.add_parser(
        "store", help="operate on .rtre store files (docs/ROBUSTNESS.md)"
    )
    store_sub = p.add_subparsers(dest="store_command", required=True)
    s = store_sub.add_parser(
        "verify",
        help="checksum-verify store files; exit 1 if any fails",
    )
    s.add_argument("paths", nargs="+", metavar="PATH",
                   help=".rtre store file(s) or directories to verify")
    s.set_defaults(func=cmd_store_verify)

    p = sub.add_parser(
        "corpus",
        help="sharded corpus evaluation with supervision and resume "
             "(docs/ROBUSTNESS.md)",
    )
    corpus_sub = p.add_subparsers(dest="corpus_command", required=True)
    c = corpus_sub.add_parser(
        "run", help="fan one query out over a directory of documents"
    )
    c.add_argument("corpus", metavar="DIR",
                   help="directory of .xml/.rtre documents")
    c.add_argument("--kind", choices=("xpath", "twig", "cq", "datalog"),
                   default="xpath", help="query language (default xpath)")
    c.add_argument("--query", required=True, metavar="Q",
                   help="the query, evaluated against every document")
    c.add_argument("--query-pred", default=None, metavar="PRED",
                   help="datalog query predicate")
    c.add_argument("--out", required=True, metavar="FILE",
                   help="merged canonical JSON output file")
    c.add_argument("--workdir", default=None, metavar="DIR",
                   help="checkpoint manifest + shard spills (default: OUT.work)")
    c.add_argument("--workers", type=int, default=2, metavar="N",
                   help="worker processes; 0 = inline serial (default 2)")
    c.add_argument("--shard-size", type=int, default=4, metavar="N",
                   help="documents per shard (default 4)")
    c.add_argument("--retries", type=int, default=1, metavar="N",
                   help="re-attempts per failed shard, fresh worker each "
                        "(default 1)")
    c.add_argument("--task-timeout-s", type=float, default=30.0, metavar="S",
                   help="SIGKILL a worker after S seconds without a "
                        "heartbeat (default 30)")
    c.add_argument("--resume", action="store_true",
                   help="skip shards already journaled in the workdir")
    c.add_argument("--fault", action="append", default=None, metavar="SPEC",
                   help="arm a deterministic fault rule "
                        "(SITE:KIND[:ARG][@TRIGGER], repeatable)")
    c.add_argument("--fault-seed", type=int, default=0, metavar="N",
                   help="RNG seed for probabilistic fault triggers")
    c.set_defaults(func=cmd_corpus_run)
    c = corpus_sub.add_parser(
        "status", help="summarize a run's checkpoint manifest"
    )
    c.add_argument("manifest", metavar="PATH",
                   help="manifest.jsonl (or the workdir containing it)")
    c.set_defaults(func=cmd_corpus_status)
    c = corpus_sub.add_parser(
        "verify", help="integrity-check an output file and its workdir"
    )
    c.add_argument("out", metavar="FILE", help="corpus output file")
    c.add_argument("--workdir", default=None, metavar="DIR",
                   help="also verify this workdir's manifest and spills "
                        "(default: OUT.work if it exists)")
    c.set_defaults(func=cmd_corpus_verify)

    p = sub.add_parser("classify", help="Theorem 6.8 verdict for an axis set")
    p.add_argument("axes", nargs="+")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser(
        "bench", help="benchmark telemetry: run the sweep, compare runs, export"
    )
    bench_sub = p.add_subparsers(dest="bench_command", required=True)

    b = bench_sub.add_parser("run", help="sweep benchmarks/ into BENCH_<n>.json")
    b.add_argument("--benchmarks", default="benchmarks",
                   help="benchmark suite directory (default: benchmarks)")
    b.add_argument("--out", default=".",
                   help="directory the BENCH_<n>.json is written to (default: .)")
    b.add_argument("--select", default=None, metavar="EXPR",
                   help="only run bench modules matching this pytest -k expression")
    b.add_argument("--fast", action="store_true",
                   help="force REPRO_BENCH_FAST=1 (smoke-size sweeps)")
    b.set_defaults(func=cmd_bench_run)

    b = bench_sub.add_parser(
        "compare", help="diff a run against a baseline (nonzero exit on regression)"
    )
    b.add_argument("old", nargs="?", default=None, help="baseline run file")
    b.add_argument("new", nargs="?", default=None, help="candidate run file")
    b.add_argument("--dir", default=".",
                   help="where to look for BENCH_*.json (default: .)")
    b.add_argument("--band", type=float, default=1.6, metavar="X",
                   help="allowed median ratio before noise widening (default 1.6)")
    b.add_argument("--timing-warn-only", action="store_true",
                   help="downgrade timing-band breaches to warnings (shared "
                        "runners); growth-class changes and count drifts still fail")
    b.set_defaults(func=cmd_bench_compare)

    b = bench_sub.add_parser("export", help="render a run as OpenMetrics text")
    b.add_argument("run", nargs="?", default=None, help="run file (default: latest)")
    b.add_argument("--dir", default=".",
                   help="where to look for BENCH_*.json (default: .)")
    b.set_defaults(func=cmd_bench_export)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surfaced as a clean CLI error
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
