"""The per-shard unit of work, runnable inline or in a child process.

:func:`evaluate_shard` is pure with respect to process state: it loads
each document fresh, evaluates the task's query, encodes every answer
canonically (:func:`repro.service.protocol.encode_answer`) and spills
the shard's results to its blob file atomically.  That makes a shard
attempt *idempotent* — retrying it on a fresh worker, or re-running it
after a crash, lands byte-identical spill bytes — which is the property
the supervisor's retry/quarantine logic and the resume path both lean
on.

:func:`worker_main` is the child-process entry: it wraps
``evaluate_shard`` in a tiny message protocol over a one-way pipe —
``heartbeat`` between documents, then exactly one ``done`` or ``fail``.
The parent-side supervisor (:mod:`repro.corpus.runner`) reads the pipe;
a SIGKILLed child shows up as EOF with no terminal message, a hung one
as heartbeat silence.  Workers are forked *after* the fault plan is
armed, so each fresh worker inherits the plan snapshot and replays the
same deterministic trip schedule — how the chaos sweep drives the
``corpus.worker``/``corpus.task`` sites through real child processes.
"""

from __future__ import annotations

import json
import time
import zlib
from dataclasses import dataclass
from typing import Any, Callable

from repro.engine.database import evaluate_document
from repro.errors import ReproError
from repro.faults import faultpoint, register_site
from repro.obs.context import Observation, observed
from repro.service.protocol import encode_answer
from repro.storage.diskstore import write_blob

__all__ = ["SPILL_SCHEMA", "ShardOutcome", "ShardTask", "evaluate_shard",
           "worker_main"]

SPILL_SCHEMA = "repro.corpus.spill/1"

register_site("corpus.worker", "worker startup for one shard attempt")
register_site("corpus.task", "per-document evaluation inside a shard")


@dataclass(frozen=True)
class ShardTask:
    """Everything one shard attempt needs; picklable for spawn starts."""

    shard_id: int
    attempt: int  # 1-based
    root: str
    docs: "tuple[str, ...]"
    kind: str
    query: str
    query_pred: "str | None"
    spill_path: str
    trace_id: str


@dataclass(frozen=True)
class ShardOutcome:
    """What a successful shard attempt reports back."""

    shard_id: int
    attempt: int
    spill_crc: int
    elapsed_ms: float
    trace_id: str
    n_docs: int


def evaluate_shard(
    task: ShardTask,
    heartbeat: "Callable[[], None] | None" = None,
) -> ShardOutcome:
    """Evaluate every document in the shard and spill the answers.

    ``heartbeat`` (if given) is called before each document — the
    subprocess path wires it to a pipe send so the supervisor can tell
    "slow" from "hung".  Faultpoints: ``corpus.worker`` once at entry
    (worker startup), ``corpus.task`` once per document.  Answers are
    encoded canonically and keyed by relative path, so the spill bytes
    are a pure function of (documents, query) — independent of attempt
    number, worker identity, or wall clock.
    """
    started = time.perf_counter()
    faultpoint("corpus.worker", task.shard_id)
    results: "list[list[Any]]" = []
    with observed(Observation(trace_id=task.trace_id)):
        for rel in task.docs:
            if heartbeat is not None:
                heartbeat()
            faultpoint("corpus.task", rel)
            result = evaluate_document(
                f"{task.root}/{rel}",
                task.kind,
                task.query,
                query_pred=task.query_pred,
            )
            results.append([rel, encode_answer(result.answer)])
    payload = json.dumps(
        {"schema": SPILL_SCHEMA, "shard": task.shard_id, "results": results},
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")
    write_blob(task.spill_path, payload)
    return ShardOutcome(
        shard_id=task.shard_id,
        attempt=task.attempt,
        spill_crc=zlib.crc32(payload) & 0xFFFFFFFF,
        elapsed_ms=(time.perf_counter() - started) * 1000.0,
        trace_id=task.trace_id,
        n_docs=len(task.docs),
    )


def worker_main(task: ShardTask, conn) -> None:
    """Child-process entry: run the shard, report over ``conn``.

    Messages (tuples, first element is the tag):

    - ``("heartbeat", shard_id, attempt)`` — before each document
    - ``("done", shard_id, attempt, outcome_dict)`` — terminal success
    - ``("fail", shard_id, attempt, error_type, message)`` — terminal
      failure, including injected faults and anything unexpected

    The connection is closed on the way out, so the supervisor sees EOF
    promptly even if process teardown is slow.  A worker that dies
    without a terminal message (SIGKILL, interpreter abort) is detected
    by the supervisor as EOF-without-done.
    """
    try:
        def heartbeat() -> None:
            conn.send(("heartbeat", task.shard_id, task.attempt))

        outcome = evaluate_shard(task, heartbeat=heartbeat)
        conn.send(("done", task.shard_id, task.attempt, {
            "spill_crc": outcome.spill_crc,
            "elapsed_ms": outcome.elapsed_ms,
            "trace_id": outcome.trace_id,
            "n_docs": outcome.n_docs,
        }))
    except ReproError as exc:
        conn.send(("fail", task.shard_id, task.attempt,
                   type(exc).__name__, str(exc)))
    except BaseException as exc:  # noqa: BLE001 - must not escape a worker
        try:
            conn.send(("fail", task.shard_id, task.attempt,
                       type(exc).__name__, str(exc)))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass
