"""Compare two sets of benchmark runs: ``compare.py SET_A SET_B``.

A set is a ``results.jsonl`` file written by ``run.py`` (or a directory
holding one); its traced and ``--smoke`` records are ignored.  For
every workload × end-to-end metric of ``BENCHMARK.json`` (plus
``error_ratio``) it compares the median of B with the median of A
against the metric's bound and prints one of:

- ``same``: the medians differ by no more than the bound;
- ``better`` / ``worse``: they differ by more, in that direction;
- ``unresolved``: either set's own spread (interquartile range over
  median) exceeds the bound, so the sets cannot tell, unless every run
  of one side beats every run of the other.

``error_ratio`` is compared in absolute terms with a bound of zero: any
rise is ``worse``.  The exit code is 1 when any row is ``worse`` or
``unresolved``, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

__all__ = ["compare", "load_set", "verdict"]


def load_set(path: Path) -> "dict[str, dict[str, list[float]]]":
    """workload → metric → values, from the timed full-size records of a
    set (traced and ``--smoke`` runs share the file and are skipped)."""
    if path.is_dir():
        path = path / "results.jsonl"
    runs: dict[str, dict[str, list[float]]] = {}
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if record.get("trace") or record.get("smoke"):
            continue
        metrics = runs.setdefault(record["workload"], {})
        values = {name: v for name, (v, _unit) in record["metrics"].items()}
        values["error_ratio"] = record["failed"] / record["attempted"]
        for name, value in values.items():
            metrics.setdefault(name, []).append(value)
    return runs


def spread(values: "list[float]") -> float:
    """Interquartile range as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    if q3 == q1:
        return 0.0
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(a: "list[float]", b: "list[float]", bound: float, better: str) -> str:
    """same / better / worse / unresolved for B against A."""
    ma, mb = statistics.median(a), statistics.median(b)
    sign = -1.0 if better == "lower" else 1.0  # positive = B is better
    if bound == 0:  # absolute comparison
        gain = sign * (mb - ma)
        return "same" if gain == 0 else ("better" if gain > 0 else "worse")
    separated = max(a) < min(b) or max(b) < min(a)
    if max(spread(a), spread(b)) > bound and not separated:
        return "unresolved"
    gain = sign * (mb - ma) / abs(ma) if ma else 0.0
    if abs(gain) <= bound:
        return "same"
    return "better" if gain > 0 else "worse"


def compare(set_a: Path, set_b: Path, spec: dict) -> "list[tuple]":
    """One row per workload × metric: (workload, metric, median A,
    median B, change, spread A, spread B, bound, verdict)."""
    a, b = load_set(set_a), load_set(set_b)
    metrics = [(m["name"], m["bound"], m["better"]) for m in spec["end_to_end"]]
    metrics.append(("error_ratio", 0.0, "lower"))
    rows = []
    for workload in sorted(set(a) & set(b)):
        for name, bound, better in metrics:
            va, vb = a[workload].get(name), b[workload].get(name)
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / abs(ma) if ma else 0.0
            rows.append((workload, name, ma, mb, change, spread(va), spread(vb),
                         bound, verdict(va, vb, bound, better)))
    return rows


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(Path(argv[0]), Path(argv[1]), spec)
    if not rows:
        print("compare.py: the sets share no workload", file=sys.stderr)
        return 2
    print("| workload | metric | median A | median B | change | spread A | "
          "spread B | bound | verdict |")
    print("|---|---|---:|---:|---:|---:|---:|---:|---|")
    for w, name, ma, mb, change, sa, sb, bound, v in rows:
        print(f"| {w} | {name} | {ma:.4g} | {mb:.4g} | {change:+.1%} | "
              f"{sa:.1%} | {sb:.1%} | {bound:.0%} | {v} |")
    return 1 if any(r[-1] in ("worse", "unresolved") for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
