"""Expected answers: committed digests for seed 0, an in-process oracle
for every other seed, and the generator of the committed digests.

An answer is identified by the sha256 of its canonical JSON (the sorted
list the service's ``encode_answer`` produces, dumped without spaces)
plus its row count.  For a PUT the expected value is the node count.

The committed file (``expected/seed0.json``) is produced by
cross-checking every applicable strategy, each in a subprocess with a
time limit; strategies that do not finish in time are listed as
excluded.  Regenerate it after changing :mod:`gen` or the mixes::

    python3 bench/answers.py --out bench/expected/seed0.json

For other seeds (and ``--smoke`` sizes) the oracle is the planner's
answer computed in-process from the same XML.  That check is weaker: it
catches a server that answers differently from the engine it wraps, not
an engine that is wrong everywhere.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
EXPECTED_SEED0 = Path(__file__).resolve().parent / "expected" / "seed0.json"
CROSS_CHECK_TIMEOUT_S = 60

__all__ = ["digest", "expected_for", "import_repro", "load_expected", "oracle"]


def digest(answer: list) -> "tuple[str, int]":
    """(sha256 of the canonical JSON, row count) of a served answer list."""
    text = json.dumps(answer, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), len(answer)


def import_repro():
    """Put the repo's ``src`` on the path and import the engine."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import repro.engine  # noqa: F401 - fails clearly when src/ is missing


def _split(key: str) -> "tuple[str, str, str, str | None]":
    doc, kind, query, pred = key.split("\t")
    return doc, kind, query, pred or None


def _evaluate(db, kind: str, query: str, pred, strategy: str = "auto") -> list:
    from repro.service.protocol import encode_answer

    if kind == "datalog":
        result = db.datalog(query, strategy, query_pred=pred)
    else:
        result = db.run(kind, query, strategy)
    return encode_answer(result.answer)


def oracle(keys: "set[str]", texts: "dict[str, str]") -> "dict[str, dict]":
    """Expected digests from the planner's in-process answers."""
    import_repro()
    from repro.engine import Database

    expected: dict[str, dict] = {}
    by_doc: dict[str, list[str]] = {}
    for key in keys:
        by_doc.setdefault(_split(key)[0], []).append(key)
    for doc, doc_keys in sorted(by_doc.items()):
        db = Database.from_xml(texts[doc])
        for key in sorted(doc_keys):
            _, kind, query, pred = _split(key)
            if kind == "put":
                expected[key] = {"nodes": db.tree.n}
            else:
                sha, rows = digest(_evaluate(db, kind, query, pred))
                expected[key] = {"sha256": sha, "rows": rows}
    return expected


def load_expected(path: Path, texts: "dict[str, str]") -> "dict[str, dict]":
    """The committed digests, after checking they describe these inputs;
    a PUT of any recorded document expects that document's node count."""
    data = json.loads(path.read_text())
    for doc, text in texts.items():
        recorded = data["documents"].get(doc, {}).get("sha256")
        if recorded != hashlib.sha256(text.encode("utf-8")).hexdigest():
            raise ValueError(
                f"{path} was made from other inputs (document {doc!r}); "
                "regenerate it with bench/answers.py"
            )
    expected = dict(data["answers"])
    for doc, info in data["documents"].items():
        put = workloads.Op("PUT", "", b"", "", doc, "put")
        expected[put.key] = {"nodes": info["nodes"]}
    return expected


def expected_for(
    keys: "set[str]",
    texts: "dict[str, str]",
    seed: int,
    smoke: bool,
    path: "Path | None" = None,
) -> "tuple[dict[str, dict], str]":
    """The answer oracle and its name: an explicit digest file, the
    committed seed-0 digests, or (other seeds, smoke sizes) the
    in-process planner."""
    if path is None and seed == 0 and not smoke:
        path = EXPECTED_SEED0
    if path is not None:
        return load_expected(path, texts), f"digests {path.name}"
    return oracle(keys, texts), "in-process planner (weaker)"


# -- generating the committed digests ----------------------------------------


def _worker(argv: "list[str]") -> int:
    """Subprocess body: evaluate one (document, query, strategy)."""
    path, key, strategy = argv
    import_repro()
    from repro.engine import Database

    db = Database.from_file(path)
    _, kind, query, pred = _split(key)
    print(json.dumps(digest(_evaluate(db, kind, query, pred, strategy))))
    return 0


def _cross_check(path: Path, key: str, strategies: "list[str]") -> dict:
    agreed: dict[str, list] = {}
    excluded: dict[str, str] = {}
    for name in strategies:
        cmd = [sys.executable, __file__, "--worker", str(path), key, name]
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=CROSS_CHECK_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            excluded[name] = f"no answer within {CROSS_CHECK_TIMEOUT_S} s"
            continue
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
            excluded[name] = f"failed: {tail[0]}"
            continue
        agreed.setdefault(proc.stdout.strip(), []).append(name)
    if len(agreed) != 1:
        raise SystemExit(f"strategies disagree on {key!r}: {agreed} {excluded}")
    (answer, names), = agreed.items()
    sha, rows = json.loads(answer)
    return {"sha256": sha, "rows": rows, "strategies": names, "excluded": excluded}


def generate(seed: int) -> dict:
    import_repro()
    from repro.engine import Database
    from repro.engine.strategies import strategy_names

    texts: dict[str, str] = {}
    keys: set[str] = set()
    for w in workloads.WORKLOADS.values():
        docs = w.documents(seed)
        texts.update(docs)
        for conn in range(w.connections):
            stream = w.stream(seed, conn, docs)
            for _ in range(w.cycle_rounds):
                keys.update(op.key for op in next(stream))
    out = {
        "seed": seed,
        "documents": {},
        "answers": {},
    }
    workdir = ROOT / ".bench_out" / "answers"
    workdir.mkdir(parents=True, exist_ok=True)
    for doc, text in sorted(texts.items()):
        path = workdir / f"{doc}.xml"
        path.write_text(text)
        db = Database.from_xml(text)
        out["documents"][doc] = {
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "nodes": db.tree.n,
        }
        for key in sorted(k for k in keys if _split(k)[0] == doc):
            _, kind, query, pred = _split(key)
            if kind == "put":  # answered by the document's node count
                continue
            names = (
                strategy_names(kind) if kind == "datalog"
                else db.strategies(kind, query)
            )
            print(f"# {doc} {kind} {query!r}: {', '.join(names)}", file=sys.stderr)
            out["answers"][key] = _cross_check(path, key, names)
    return out


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        return _worker(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=EXPECTED_SEED0)
    args = parser.parse_args(argv)
    data = generate(args.seed)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data['answers'])} answers to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
