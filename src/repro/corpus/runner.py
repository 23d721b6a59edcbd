"""The corpus run supervisor: fan out, watch, retry, checkpoint, merge.

One :func:`run_corpus` call is the whole pipeline::

    split --> [worker pool | inline] --> checkpoint --> merge --> out

**Supervision** (``workers >= 1``): each shard attempt runs in its own
child process with its own one-way pipe.  The supervisor multiplexes
all pipes with :func:`multiprocessing.connection.wait` and distinguishes
three failure shapes, none of which can corrupt the run:

- a worker that *reports* failure (``fail`` message — an evaluation
  error, an injected fault) exits cleanly;
- a worker that *dies* (SIGKILL, interpreter abort) shows up as pipe
  EOF with no terminal message — counted as ``corpus.worker_deaths``;
- a worker that *hangs* stops heartbeating; after ``task_timeout_s`` of
  silence the supervisor SIGKILLs it — counted as ``corpus.timeouts``.

Every failure consumes one attempt from the shard's budget
(``retries + 1`` attempts total, each on a **fresh** worker with a
fresh trace id).  A shard that exhausts its budget is **quarantined**:
recorded in the manifest and the output's ``quarantined`` list, and the
run completes ``partial`` — mirroring the engine supervisor's
``on_error="partial"`` contract of *degraded, never silently wrong*.

**Checkpointing**: each completed shard is journaled durably before the
supervisor moves on (:mod:`repro.corpus.checkpoint`), so ``--resume``
after a mid-run kill re-verifies the recorded spills and recomputes
only what is missing — and, because spill bytes are a pure function of
(documents, query), the resumed output is byte-identical to an
uninterrupted run.

**Determinism**: shards are merged in shard-id order and every answer
is canonically encoded, so ``workers=0``, ``workers=1`` and
``workers=8`` produce byte-identical output files.  The chaos harness
pins this with a kill-a-worker differential (docs/ROBUSTNESS.md).
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.corpus.checkpoint import (
    MANIFEST_SCHEMA,
    CheckpointJournal,
    ManifestState,
    spill_path,
)
from repro.corpus.sharding import Shard, ShardPlan, split_corpus
from repro.corpus.worker import SPILL_SCHEMA, ShardTask, evaluate_shard, worker_main
from repro.errors import CorpusError, ReproError, StorageError, TransientError
from repro.faults import faultpoint, register_site
from repro.obs.metrics import METRICS
from repro.obs.sampling import new_trace_id
from repro.storage.diskstore import read_blob

__all__ = ["RESULT_SCHEMA", "CorpusReport", "ShardStatus", "run_corpus",
           "verify_output"]

RESULT_SCHEMA = "repro.corpus.result/1"

register_site("corpus.merge", "sorted merge of per-shard spills")


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardStatus:
    """One shard's final disposition in a run."""

    shard_id: int
    status: str  # "done" | "resumed" | "quarantined"
    attempts: int
    n_docs: int
    elapsed_ms: float
    trace_id: str
    error: "str | None" = None


@dataclass
class CorpusReport:
    """What one :func:`run_corpus` call did, shard by shard."""

    status: str  # "complete" | "partial"
    out_path: str
    manifest_path: str
    fingerprint: str
    n_docs: int
    n_shards: int
    shards: "list[ShardStatus]" = field(default_factory=list)
    shards_done: int = 0
    shards_resumed: int = 0
    shards_quarantined: int = 0
    retries: int = 0
    worker_deaths: int = 0
    timeouts: int = 0
    elapsed_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "complete"

    def scorecard(self) -> str:
        """A per-shard text table (the CLI's ``corpus run`` output)."""
        lines = [
            f"corpus {self.status}: {self.n_docs} docs in "
            f"{self.n_shards} shards — {self.shards_done} evaluated, "
            f"{self.shards_resumed} resumed, "
            f"{self.shards_quarantined} quarantined "
            f"({self.retries} retries, {self.worker_deaths} worker deaths, "
            f"{self.timeouts} timeouts) in {self.elapsed_ms:.0f} ms",
            f"{'shard':>5}  {'status':<12} {'att':>3}  {'docs':>4}  "
            f"{'ms':>8}  trace",
        ]
        for shard in sorted(self.shards, key=lambda s: s.shard_id):
            lines.append(
                f"{shard.shard_id:>5}  {shard.status:<12} "
                f"{shard.attempts:>3}  {shard.n_docs:>4}  "
                f"{shard.elapsed_ms:>8.1f}  {shard.trace_id}"
                + (f"  [{shard.error}]" if shard.error else "")
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------


def _with_transient_retry(action: "Callable[[], Any]", retries: int):
    """Run ``action``, re-attempting :class:`TransientError` failures up
    to ``retries`` times (the same budget the shards get)."""
    attempt = 0
    while True:
        try:
            return action()
        except TransientError:
            attempt += 1
            if attempt > retries:
                raise
            METRICS.add("corpus.retries")


def _canonical_bytes(doc: "dict[str, Any]") -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _write_text_atomic(path: str, data: bytes) -> None:
    """Atomic tmp+fsync+replace for the plain-JSON output file."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise StorageError(f"cannot write corpus output {path!r}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            try:
                os.unlink(tmp)
            except OSError:
                pass


def _header_for(plan: ShardPlan, kind: str, query: str,
                query_pred: "str | None", shard_size: int) -> "dict[str, Any]":
    return {
        "fingerprint": plan.fingerprint,
        "kind": kind,
        "query": query,
        "query_pred": query_pred,
        "shard_size": shard_size,
        "n_docs": plan.n_docs,
        "n_shards": plan.n_shards,
    }


def _check_resume_header(state: ManifestState, header: "dict[str, Any]",
                         manifest_path: str) -> None:
    for key in ("fingerprint", "kind", "query", "query_pred", "shard_size"):
        have, want = state.header.get(key), header.get(key)
        if have != want:
            raise CorpusError(
                f"cannot resume from {manifest_path!r}: manifest "
                f"{key}={have!r} does not match this run's {want!r} "
                "(different corpus or query — start a fresh run)"
            )


def _verify_spill(workdir: str, shard: Shard,
                  record: "dict[str, Any]") -> bool:
    """Whether a journaled shard's spill is present, intact, and matches
    both the journal record and the current plan's shard contents."""
    if list(record.get("docs", ())) != list(shard.docs):
        return False
    path = spill_path(workdir, shard.shard_id)
    try:
        payload = read_blob(path)
    except ReproError:
        return False
    if (zlib.crc32(payload) & 0xFFFFFFFF) != record.get("spill_crc"):
        return False
    return True


# ---------------------------------------------------------------------------
# the shard ledger: attempts built and outcomes booked in one place
# ---------------------------------------------------------------------------


@dataclass
class _Ledger:
    """Builds each shard attempt and books each shard's fate (metrics,
    checkpoint journal, report) for both execution paths."""

    plan: ShardPlan
    journal: CheckpointJournal
    report: CorpusReport
    kind: str
    query: str
    query_pred: "str | None"
    workdir: str
    retries: int

    def task(self, shard: Shard, attempt: int) -> ShardTask:
        """Attempt number ``attempt`` (1-based) at ``shard``, with a
        fresh trace id."""
        return ShardTask(
            shard_id=shard.shard_id,
            attempt=attempt,
            root=self.plan.root,
            docs=shard.docs,
            kind=self.kind,
            query=self.query,
            query_pred=self.query_pred,
            spill_path=spill_path(self.workdir, shard.shard_id),
            trace_id=new_trace_id(),
        )

    def done(self, task: ShardTask, spill_crc: int, elapsed_ms: float) -> None:
        """Book a completed attempt: journaled before the run moves on."""
        METRICS.add("corpus.shards_done")
        METRICS.add("corpus.docs", len(task.docs))
        METRICS.observe_duration("corpus.shard", elapsed_ms / 1000.0)
        self.report.shards_done += 1
        _with_transient_retry(
            lambda: self.journal.record_shard(
                task.shard_id, task.docs, spill_crc=spill_crc,
                elapsed_ms=elapsed_ms, trace_id=task.trace_id,
                attempts=task.attempt,
            ),
            self.retries,
        )
        self.report.shards.append(ShardStatus(
            shard_id=task.shard_id, status="done", attempts=task.attempt,
            n_docs=len(task.docs), elapsed_ms=elapsed_ms,
            trace_id=task.trace_id,
        ))

    def failed(self, task: ShardTask, error: str,
               elapsed_ms: float = 0.0) -> bool:
        """Book a failed attempt.  True: the shard has attempts left (a
        retry is counted); False: its budget is spent and it is
        quarantined."""
        if task.attempt <= self.retries:
            METRICS.add("corpus.retries")
            self.report.retries += 1
            return True
        METRICS.add("corpus.quarantined")
        self.report.shards_quarantined += 1
        _with_transient_retry(
            lambda: self.journal.record_quarantine(
                task.shard_id, task.docs, error, attempts=task.attempt,
                trace_id=task.trace_id,
            ),
            self.retries,
        )
        self.report.shards.append(ShardStatus(
            shard_id=task.shard_id, status="quarantined",
            attempts=task.attempt, n_docs=len(task.docs),
            elapsed_ms=elapsed_ms, trace_id=task.trace_id, error=error,
        ))
        return False


# ---------------------------------------------------------------------------
# the supervised pool
# ---------------------------------------------------------------------------


class _Attempt:
    """Parent-side state for one in-flight shard attempt."""

    __slots__ = ("shard", "task", "proc", "conn", "last_beat", "started")

    def __init__(self, shard, task, proc, conn, now):
        self.shard = shard
        self.task = task
        self.proc = proc
        self.conn = conn
        self.last_beat = now
        self.started = now


def _run_pool(
    shards: "list[Shard]",
    ledger: _Ledger,
    *,
    workers: int,
    task_timeout_s: float,
    on_worker_spawn: "Callable[[int, int], None] | None",
) -> None:
    """Supervise ``shards`` across a pool of ``workers`` child processes."""
    import multiprocessing as mp
    from multiprocessing import connection as mp_connection

    method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    ctx = mp.get_context(method)

    # (shard, attempt number), consumed front-first in shard order
    pending = [(shard, 1) for shard in shards]
    active: "dict[Any, _Attempt]" = {}  # conn -> attempt

    def spawn(shard: Shard, attempt_no: int) -> None:
        task = ledger.task(shard, attempt_no)
        recv_conn, send_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=worker_main, args=(task, send_conn),
            name=f"repro-corpus-{shard.shard_id}-{task.attempt}",
            daemon=True,
        )
        proc.start()
        send_conn.close()  # parent's copy; child holds the real one
        active[recv_conn] = _Attempt(shard, task, proc, recv_conn,
                                     time.monotonic())
        if on_worker_spawn is not None:
            on_worker_spawn(shard.shard_id, proc.pid)

    def retire(attempt: "_Attempt") -> None:
        active.pop(attempt.conn, None)
        try:
            attempt.conn.close()
        except Exception:
            pass
        attempt.proc.join(timeout=10.0)

    def record_failure(attempt: "_Attempt", error: str) -> None:
        elapsed_ms = (time.monotonic() - attempt.started) * 1000.0
        if ledger.failed(attempt.task, error, elapsed_ms):
            # fresh worker, fresh trace id
            pending.append((attempt.shard, attempt.task.attempt + 1))

    try:
        while pending or active:
            while pending and len(active) < workers:
                spawn(*pending.pop(0))
            conns = list(active)
            ready = mp_connection.wait(conns, timeout=0.05)
            now = time.monotonic()
            for conn in ready:
                attempt = active.get(conn)
                if attempt is None:
                    continue
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    # the pipe died with no terminal message: the worker
                    # was killed or crashed hard (SIGKILL shows up here)
                    retire(attempt)
                    code = attempt.proc.exitcode
                    METRICS.add("corpus.worker_deaths")
                    ledger.report.worker_deaths += 1
                    record_failure(
                        attempt, f"worker died (exitcode={code})"
                    )
                    continue
                tag = message[0]
                if tag == "heartbeat":
                    attempt.last_beat = now
                elif tag == "done":
                    retire(attempt)
                    payload = message[3]
                    ledger.done(attempt.task, payload["spill_crc"],
                                payload["elapsed_ms"])
                elif tag == "fail":
                    retire(attempt)
                    record_failure(attempt,
                                   f"{message[3]}: {message[4]}")
            # hung-worker detection: heartbeat silence beyond the budget
            for attempt in list(active.values()):
                if now - attempt.last_beat <= task_timeout_s:
                    continue
                try:
                    attempt.proc.kill()
                except Exception:
                    pass
                retire(attempt)
                METRICS.add("corpus.timeouts")
                ledger.report.timeouts += 1
                record_failure(
                    attempt,
                    f"task timeout ({task_timeout_s:g}s without heartbeat)",
                )
    finally:
        # belt-and-braces: never leak children, even on an unexpected
        # supervisor error (e.g. a checkpoint append failure mid-run)
        for attempt in list(active.values()):
            try:
                attempt.proc.kill()
            except Exception:
                pass
            retire(attempt)


def _run_inline(shards: "list[Shard]", ledger: _Ledger) -> None:
    """``workers=0``: evaluate every shard in-process, same contract.

    This is the serial oracle the differential tests compare pools
    against; ``task_timeout_s`` does not apply (nothing to kill)."""
    for shard in shards:
        for attempt_no in range(1, ledger.retries + 2):
            task = ledger.task(shard, attempt_no)
            try:
                outcome = evaluate_shard(task)
            except ReproError as exc:
                ledger.failed(task, f"{type(exc).__name__}: {exc}")
                continue
            ledger.done(task, outcome.spill_crc, outcome.elapsed_ms)
            break


# ---------------------------------------------------------------------------
# merge + output
# ---------------------------------------------------------------------------


def _merge_and_write(
    plan: ShardPlan,
    report: CorpusReport,
    *,
    out: str,
    workdir: str,
    kind: str,
    query: str,
    query_pred: "str | None",
    shard_size: int,
    retries: int,
) -> None:
    """Merge per-shard spills into the canonical output file.

    Spills are read in **shard-id order** and answers keyed by relative
    path; with canonical per-answer encoding and sorted-key JSON the
    output bytes are a pure function of (corpus, query, quarantine
    set) — independent of worker count, retry history, and wall clock.
    Timings and trace ids deliberately stay out of this file (they live
    in the manifest and the scorecard).
    """
    quarantined_ids = {
        s.shard_id for s in report.shards if s.status == "quarantined"
    }

    def merge() -> "dict[str, Any]":
        faultpoint("corpus.merge", None)
        results: "dict[str, Any]" = {}
        for shard in plan.shards:
            if shard.shard_id in quarantined_ids:
                continue
            payload = read_blob(spill_path(workdir, shard.shard_id))
            doc = json.loads(payload.decode("utf-8"))
            if doc.get("schema") != SPILL_SCHEMA or doc.get("shard") != shard.shard_id:
                raise CorpusError(
                    f"spill for shard {shard.shard_id} is not the "
                    f"expected one (schema={doc.get('schema')!r}, "
                    f"shard={doc.get('shard')!r})"
                )
            for rel, encoded in doc["results"]:
                results[rel] = encoded
        return results

    results = _with_transient_retry(merge, retries)
    status = "partial" if quarantined_ids else "complete"
    out_doc = {
        "schema": RESULT_SCHEMA,
        "kind": kind,
        "query": query,
        "query_pred": query_pred,
        "fingerprint": plan.fingerprint,
        "n_docs": plan.n_docs,
        "shard_size": shard_size,
        "status": status,
        "quarantined": [
            {"shard": s.shard_id, "docs": sorted(
                d for sh in plan.shards if sh.shard_id == s.shard_id
                for d in sh.docs
            ), "error": s.error or ""}
            for s in sorted(report.shards, key=lambda s: s.shard_id)
            if s.status == "quarantined"
        ],
        "results": results,
    }
    out_doc["crc32"] = zlib.crc32(_canonical_bytes(out_doc)) & 0xFFFFFFFF
    _write_text_atomic(out, _canonical_bytes(out_doc) + b"\n")
    report.status = status


def verify_output(out: str) -> "dict[str, Any]":
    """Re-check an output file's embedded CRC; returns the decoded doc.

    Raises :class:`CorpusError` on schema or checksum mismatch and
    :class:`~repro.errors.StorageError` on I/O failure."""
    try:
        with open(out, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise StorageError(f"cannot read corpus output {out!r}: {exc}") from exc
    try:
        doc = json.loads(data.decode("utf-8"))
    except ValueError as exc:
        raise CorpusError(f"corpus output {out!r} is not JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != RESULT_SCHEMA:
        raise CorpusError(
            f"corpus output {out!r} has schema "
            f"{doc.get('schema') if isinstance(doc, dict) else None!r}, "
            f"expected {RESULT_SCHEMA!r}"
        )
    recorded = doc.get("crc32")
    body = {k: v for k, v in doc.items() if k != "crc32"}
    computed = zlib.crc32(_canonical_bytes(body)) & 0xFFFFFFFF
    if recorded != computed:
        raise CorpusError(
            f"corpus output {out!r} fails its checksum "
            f"(recorded {recorded}, computed {computed})"
        )
    return doc


# ---------------------------------------------------------------------------
# the entry point
# ---------------------------------------------------------------------------


def run_corpus(
    root: str,
    kind: str,
    query: str,
    *,
    query_pred: "str | None" = None,
    out: str,
    workdir: "str | None" = None,
    workers: int = 2,
    shard_size: int = 4,
    retries: int = 1,
    task_timeout_s: float = 30.0,
    resume: bool = False,
    on_worker_spawn: "Callable[[int, int], None] | None" = None,
) -> CorpusReport:
    """Evaluate ``query`` over every document under ``root``.

    ``workers=0`` runs inline (the serial oracle); ``workers >= 1``
    supervises that many child processes.  ``resume=True`` loads the
    manifest in ``workdir``, re-verifies every journaled spill, and
    recomputes only missing/invalid/quarantined shards — producing
    byte-identical output to an uninterrupted run.  ``on_worker_spawn``
    is a test hook called as ``(shard_id, pid)`` after each worker
    start (chaos uses it to SIGKILL a worker mid-shard).

    Returns a :class:`CorpusReport`; ``report.status`` is ``complete``
    or (when shards were quarantined) ``partial``.  Setup, checkpoint
    and merge transients honour the same ``retries`` budget as shards.
    """
    if workers < 0:
        raise CorpusError(f"workers must be >= 0, got {workers}")
    if retries < 0:
        raise CorpusError(f"retries must be >= 0, got {retries}")
    if task_timeout_s <= 0:
        raise CorpusError(f"task_timeout_s must be > 0, got {task_timeout_s}")
    started = time.perf_counter()

    plan = _with_transient_retry(lambda: split_corpus(root, shard_size),
                                 retries)
    workdir = workdir or out + ".work"
    os.makedirs(workdir, exist_ok=True)
    manifest_path = os.path.join(workdir, "manifest.jsonl")
    header = _header_for(plan, kind, query, query_pred, shard_size)

    report = CorpusReport(
        status="complete", out_path=out, manifest_path=manifest_path,
        fingerprint=plan.fingerprint, n_docs=plan.n_docs,
        n_shards=plan.n_shards,
    )

    completed: "dict[int, dict[str, Any]]" = {}
    if resume:
        if not os.path.exists(manifest_path):
            raise CorpusError(
                f"nothing to resume: no manifest at {manifest_path!r}"
            )
        state = CheckpointJournal.load(manifest_path)
        _check_resume_header(state, header, manifest_path)
        completed = state.completed
        journal = CheckpointJournal(manifest_path)
    else:
        journal = CheckpointJournal.create(manifest_path, header)

    todo: "list[Shard]" = []
    for shard in plan.shards:
        record = completed.get(shard.shard_id)
        if record is not None and _verify_spill(workdir, shard, record):
            METRICS.add("corpus.shards_skipped")
            report.shards_resumed += 1
            report.shards.append(ShardStatus(
                shard_id=shard.shard_id, status="resumed",
                attempts=int(record.get("attempts", 1)),
                n_docs=len(shard.docs),
                elapsed_ms=float(record.get("elapsed_ms", 0.0)),
                trace_id=str(record.get("trace_id", "")),
            ))
        else:
            todo.append(shard)

    ledger = _Ledger(plan, journal, report, kind=kind, query=query,
                     query_pred=query_pred, workdir=workdir, retries=retries)
    try:
        if workers == 0:
            _run_inline(todo, ledger)
        else:
            _run_pool(todo, ledger, workers=workers,
                      task_timeout_s=task_timeout_s,
                      on_worker_spawn=on_worker_spawn)
    finally:
        journal.close()

    _merge_and_write(
        plan, report,
        out=out, workdir=workdir, kind=kind, query=query,
        query_pred=query_pred, shard_size=shard_size,
        retries=retries,
    )
    report.elapsed_ms = (time.perf_counter() - started) * 1000.0
    METRICS.observe_duration("corpus.run", report.elapsed_ms / 1000.0)
    return report
