"""The closed-loop HTTP client and the answer check.

Each connection is one keep-alive ``http.client`` connection driven by
one thread: it sends its next request only after the previous reply
has been read.  Responses are kept as raw bytes and checked only after
the measured window closes, so checking adds no client load while
requests are being timed.
"""

from __future__ import annotations

import http.client
import json
import math
import threading
import time
from typing import Iterator, NamedTuple

from answers import digest
from workloads import Op

__all__ = ["Sample", "check", "drive", "judge", "percentile", "run_traffic", "served_counts"]

HEADERS = {"Content-Type": "application/json"}
REQUEST_TIMEOUT_S = 150.0


class Sample(NamedTuple):
    op: Op
    start: float  # perf_counter at send
    seconds: float  # until the whole response body was read
    status: "int | None"  # None: transport failure
    body: bytes


def drive(
    port: int,
    stream: "Iterator[list[Op]]",
    rounds: "int | None" = None,
    until: "float | None" = None,
) -> "list[Sample]":
    """Send whole rounds from ``stream`` on one keep-alive connection.

    Stops after ``rounds`` rounds, or at the first round boundary after
    the ``perf_counter`` instant ``until``.
    """
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    samples: list[Sample] = []
    done = 0
    try:
        for ops in stream:
            for op in ops:
                start = time.perf_counter()
                try:
                    conn.request(op.method, op.path, body=op.body, headers=HEADERS)
                    resp = conn.getresponse()
                    body = resp.read()
                    status = resp.status
                except (OSError, http.client.HTTPException) as exc:
                    status, body = None, repr(exc).encode("utf-8")
                    conn.close()  # reconnects on the next request
                samples.append(Sample(op, start, time.perf_counter() - start, status, body))
            done += 1
            if rounds is not None and done >= rounds:
                break
            if until is not None and time.perf_counter() >= until:
                break
    finally:
        conn.close()
    return samples


def run_traffic(
    port: int,
    streams: "list[Iterator[list[Op]]]",
    rounds: "int | None" = None,
    seconds: "float | None" = None,
) -> "tuple[list[Sample], float]":
    """Drive every stream on its own connection; returns the samples
    (in send order) and the wall time of the whole window."""
    start = time.perf_counter()
    until = start + seconds if seconds is not None else None
    results: list[list[Sample]] = [[] for _ in streams]
    errors: list[Exception] = []

    def worker(i: int) -> None:
        try:
            results[i] = drive(port, streams[i], rounds, until)
        except Exception as exc:  # re-raised in the calling thread
            errors.append(exc)

    # daemon threads: an interrupted run must not wait for them to finish
    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(len(streams))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    window = time.perf_counter() - start
    if errors:
        raise errors[0]
    samples = sorted((s for r in results for s in r), key=lambda s: s.start)
    return samples, window


def percentile(values: "list[float]", p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def served_counts(server, samples: "list[Sample]") -> "dict[str, tuple[int, int]]":
    """Store → (queries sent since its last PUT, the store's own
    ``queries_served``), for every store the samples touched."""
    sent: dict[str, int] = {}
    for s in samples:
        sent[s.op.store] = 0 if s.op.kind == "put" else sent.get(s.op.store, 0) + 1
    return {
        store: (n, server.store_info(store)["queries_served"])
        for store, n in sent.items()
    }


def judge(
    samples: "list[Sample]",
    expected: "dict[str, dict]",
    served: "dict[str, tuple[int, int]]",
) -> "list[str]":
    """Every failed check, one message each."""
    problems = []
    for s in samples:
        why = check(s, expected)
        if why is not None:
            problems.append(f"{s.op.method} {s.op.path} {s.op.query!r}: {why}")
    for store, (sent, reported) in sorted(served.items()):
        if sent != reported:
            problems.append(
                f"store {store}: queries_served={reported}, but {sent} were sent"
            )
    return problems


def check(sample: Sample, expected: "dict[str, dict]") -> "str | None":
    """Why a served response is wrong, or None when it is right."""
    op = sample.op
    if sample.status is None:
        return f"transport failure: {sample.body.decode(errors='replace')}"
    want = expected.get(op.key)
    if want is None:
        return f"no expected answer for {op.key!r}"
    if op.kind == "put":
        if sample.status != 201:
            return f"PUT answered {sample.status}"
        nodes = json.loads(sample.body)["store"]["nodes"]
        if nodes != want["nodes"]:
            return f"PUT stored {nodes} nodes, expected {want['nodes']}"
        return None
    if sample.status != 200:
        return f"answered {sample.status}: {sample.body[:200].decode(errors='replace')}"
    sha, rows = digest(json.loads(sample.body)["answer"])
    if sha != want["sha256"] or rows != want["rows"]:
        return f"wrong answer: {rows} rows, expected {want['rows']}"
    return None
