"""Served-query benchmark: drive ``python -m repro serve`` over HTTP.

Run from the repository root::

    python3 bench/run.py --workload xmark-point --seed 0 --seconds 20
    python3 bench/run.py --workload tree-join --trace 1     # per-layer run
    python3 bench/run.py                                    # every workload

One run generates the workload's documents from ``--seed``, boots the
server seven times (``setup_s`` is the fastest boot), plays one untimed
warm-up round, then measures whole rounds of the request sequence for
``--seconds`` seconds.  After the window it checks every response
against the expected answers and that each store's ``queries_served``
equals the queries sent to it.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
``BENCHMARK.json``, or with ``--trace 1`` the per-layer ones).  The
table above it also shows the latencies and throughput, which vary too
much between runs on a shared machine to be gated.  Each run also
appends a fuller record (latencies, input hashes) to ``<out>/results.jsonl``,
which ``bench/compare.py`` reads.  The exit code is 0 when every answer
was right, 1 when one was wrong, 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

import answers
import client
import gen
import workloads
from server import ServerError, boot

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = ROOT / ".bench_out"
DEFAULT_SECONDS = 20
BOOTS = 7


def _stop_on_sigterm() -> None:
    def handler(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, handler)


def run_e2e(w, seed: int, seconds: float, smoke: bool, out: Path,
            expected_path: "Path | None" = None) -> dict:
    texts = w.documents(seed, smoke)
    workdir = out / w.name
    server, boots = boot(ROOT, w.preload, texts, workdir, 1 if smoke else BOOTS)
    try:
        streams = [w.stream(seed, c, texts) for c in range(w.connections)]
        warm, _ = client.run_traffic(server.port, streams, rounds=1)
        measured, window = client.run_traffic(server.port, streams, seconds=seconds)
        served = client.served_counts(server, warm + measured)
        rss_mb = server.rss_mb()
    finally:
        server.stop()
    everything = warm + measured
    expected, oracle = answers.expected_for(
        {s.op.key for s in everything}, texts, seed, smoke, expected_path
    )
    problems = client.judge(everything, expected, served)

    queries = [s for s in measured if s.op.kind != "put"]
    lat = [s.seconds * 1e3 for s in queries]
    metrics = {
        # the fastest boot: boots are short, so a slow stretch of a shared
        # CPU moves their median much more than their minimum
        "setup_s": (min(boots), "s"),
        "rss_mb": (rss_mb, "MB"),
    }
    extra = {
        "qps": (len(queries) / window, "queries/s"),
        "p50_ms": (client.percentile(lat, 50), "ms"),
        "p90_ms": (client.percentile(lat, 90), "ms"),
        "error_ratio": (len(problems) / len(everything), "ratio"),
    }
    for kind in ("xpath", "twig", "cq", "datalog"):
        kind_lat = [s.seconds * 1e3 for s in queries if s.op.kind == kind]
        if kind_lat:
            extra[f"{kind}_p50_ms"] = (client.percentile(kind_lat, 50), "ms")
    put_lat = [s.seconds * 1e3 for s in measured if s.op.kind == "put"]
    if put_lat:
        extra["put_p50_ms"] = (client.percentile(put_lat, 50), "ms")
        extra["put_p90_ms"] = (client.percentile(put_lat, 90), "ms")
    return {
        "attempted": len(everything),
        "failed": len(problems),
        "problems": problems,
        "metrics": metrics,
        "extra": extra,
        "info": {
            "window_s": window,
            "measured_queries": len(queries),
            "measured_puts": len(put_lat),
            "boots_s": boots,
            "oracle": oracle,
        },
        "inputs": {doc: gen.sha256(text) for doc, text in texts.items()},
    }


def _fmt(metrics: dict) -> "list[str]":
    return [f"  {name:<28} {value:>14.4f} {unit}" for name, (value, unit) in metrics.items()]


def run_one(args, name: str) -> int:
    w = workloads.WORKLOADS[name]
    args.out.mkdir(parents=True, exist_ok=True)
    if args.trace:
        import layers

        record = layers.run_traced(w, args.seed, args.smoke, args.out)
    else:
        record = run_e2e(w, args.seed, args.seconds, args.smoke, args.out)
    for line in record.pop("problems")[:20]:
        print(f"# FAIL {line}", file=sys.stderr)
    correct = record["failed"] == 0
    print(f"workload {name}  seed {args.seed}  trace {args.trace}  "
          f"attempted {record['attempted']}  failed {record['failed']}")
    for line in _fmt(record["metrics"]) + _fmt(record["extra"]):
        print(line)
    for key, value in record["info"].items():
        print(f"  # {key}: {value}")
    full = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "correct": correct,
        "time": time.time(), **record,
    }
    with open(args.out / "results.jsonl", "a") as fh:
        fh.write(json.dumps(full, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()},
    }), flush=True)
    return 0 if correct else 1


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced per-layer run instead of the timed one")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny documents and one boot (self-test size)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="work directory; results.jsonl is appended here")
    args = parser.parse_args(argv)
    _stop_on_sigterm()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    try:
        for name in names:
            status = max(status, run_one(args, name))
    except (ServerError, ValueError, OSError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("run.py: interrupted", file=sys.stderr)
        return 130
    return status


if __name__ == "__main__":
    sys.exit(main())
