"""Self-test of the benchmark: ``python -m pytest bench -q`` (< 60 s).

Smoke sizes of every workload must emit every metric of
``BENCHMARK.json`` with its unit; a tampered answer digest must fail
the run; inputs must be a pure function of the seed; ``compare.py``
must call a 20% slowdown ``worse`` and identical sets ``same``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import answers
import compare
import gen
import run
import workloads
from server import Server, ServerError

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir(request) -> Path:
    """A scratch directory inside the checkout's ignored work area."""
    path = ROOT / ".bench_out" / "selftest" / request.node.name.replace("/", "_")
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_bench(*args: str, cwd: Path = ROOT) -> "subprocess.CompletedProcess":
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_spec_matches_the_code():
    import layers

    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.LAYER_METRICS


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_emits_every_metric(name, workdir):
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        proc = run_bench("--workload", name, "--seed", "3", "--seconds", "0.3",
                         "--trace", trace, "--smoke", "--out", str(workdir))
        assert proc.returncode == 0, proc.stderr
        result = last_json(proc.stdout)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert (workdir / name / "spans.json").is_file()


def test_tampered_digest_fails_the_run(workdir):
    w = workloads.WORKLOADS["xmark-point"]
    texts = w.documents(0, smoke=True)
    keys = {op.key for op in next(w.stream(0, 0, texts))}
    put = workloads.Op("PUT", "", b"", "", "xmark", "put").key
    found = answers.oracle(keys | {put}, texts)
    digests = {
        "seed": 0,
        "documents": {"xmark": {"sha256": gen.sha256(texts["xmark"]),
                                "nodes": found.pop(put)["nodes"]}},
        "answers": found,
    }
    good, bad = workdir / "good.json", workdir / "bad.json"
    good.write_text(json.dumps(digests))
    victim = sorted(digests["answers"])[0]
    digests["answers"][victim]["sha256"] = "0" * 64
    bad.write_text(json.dumps(digests))
    assert run.run_e2e(w, 0, 0.2, True, workdir, good)["failed"] == 0
    record = run.run_e2e(w, 0, 0.2, True, workdir, bad)
    assert record["failed"] > 0
    assert any("wrong answer" in p for p in record["problems"])


def test_inputs_are_a_function_of_the_seed():
    for w in workloads.WORKLOADS.values():
        a, b = w.documents(7, smoke=True), w.documents(7, smoke=True)
        assert a == b
        assert w.documents(8, smoke=True) != a
        one, two = w.stream(7, 0, a), w.stream(7, 0, b)
        assert [next(one) for _ in range(3)] == [next(two) for _ in range(3)]
    full = workloads.WORKLOADS["tree-join"].documents(0)
    assert full == workloads.WORKLOADS["tree-join"].documents(0)


def test_generators_do_not_import_the_program():
    code = "import sys, gen, workloads; print('repro' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.strip() == "False"


def _results(path: Path, slowdown: float, failed: int = 0) -> Path:
    """Five timed runs with every metric ``slowdown`` times worse than the
    base, plus a traced and a smoke record that ``compare.py`` must skip."""
    lines = []
    for i, base in enumerate((1.00, 1.01, 0.99, 1.02, 0.98)):
        metrics = {m["name"]: [100.0 * base * (slowdown if m["better"] == "lower"
                                               else 1 / slowdown), m["unit"]]
                   for m in SPEC["end_to_end"]}
        lines.append(json.dumps({"workload": "tree-join", "trace": 0, "smoke": False,
                                 "seed": i, "attempted": 100, "failed": failed,
                                 "metrics": metrics}))
    skipped = {m["name"]: [1e6, m["unit"]] for m in SPEC["end_to_end"]}
    for trace, smoke in ((1, False), (0, True)):
        lines.append(json.dumps({"workload": "tree-join", "trace": trace, "smoke": smoke,
                                 "seed": 9, "attempted": 100, "failed": 50,
                                 "metrics": skipped}))
    path.write_text("\n".join(lines) + "\n")
    return path


def test_compare_calls_a_slowdown_worse(workdir):
    # setup_s has the widest bound (its spread is not gated); every
    # other end-to-end metric must call a 20% slowdown worse
    assert {m["name"] for m in SPEC["end_to_end"] if m["bound"] >= 0.2} == {"setup_s"}
    a = _results(workdir / "a.jsonl", 1.0)
    same = compare.compare(a, _results(workdir / "a2.jsonl", 1.0), SPEC)
    assert {row[-1] for row in same} == {"same"}
    for slowdown in (1.2, 1.4):
        rows = compare.compare(a, _results(workdir / "b.jsonl", slowdown), SPEC)
        for _, name, *_, bound, verdict in rows:
            if name != "error_ratio":
                assert verdict == ("worse" if bound < slowdown - 1 else "same"), name
        assert compare.main([str(a), str(workdir / "b.jsonl")]) == 1
    failing = compare.compare(a, _results(workdir / "c.jsonl", 1.0, failed=1), SPEC)
    assert {r[1]: r[-1] for r in failing}["error_ratio"] == "worse"


def test_server_boot_failure_is_reported(workdir):
    missing = workdir / "missing.xml"
    server = Server(ROOT, {"x": missing}, workdir / "server.log")
    with pytest.raises(ServerError, match="exited"):
        server.start(timeout_s=60)
    server.stop()


def test_refuses_to_run_without_the_program(workdir):
    shutil.copytree(BENCH, workdir / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    proc = run_bench("--workload", "ingest", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=workdir)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
