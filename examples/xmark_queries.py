"""Benchmark-style tour on an XMark-like auction document: the same
twig workload through every registered strategy, with timings, the
planner's choice, and the intermediate-result accounting of E14.

Run:  python examples/xmark_queries.py
"""

from repro.complexity import format_table
from repro.engine import Database
from repro.workloads import xmark_like

PATTERNS = [
    "//item[.//keyword]//description",
    "//person[profile]/name",
    "//closed_auction[annotation]/price",
    "//regions//item[payment]",
]


def main() -> None:
    db = Database(xmark_like(200, seed=42))
    print(f"XMark-like document: {db.tree.n} nodes, height {db.tree.height()}\n")

    names = db.strategies("twig", PATTERNS[0])
    rows = []
    for text in PATTERNS:
        results = db.cross_check("twig", text)
        answers = {frozenset(r.answer) for r in results.values()}
        assert len(answers) == 1, f"strategy disagreement on {text}"
        planned = db.plan("twig", text).strategy
        row = [text, len(next(iter(results.values())).answer), planned]
        for name in names:
            cell = f"{results[name].stats.elapsed_ms:.1f}"
            if name == planned:
                cell += " *"
            row.append(cell)
        rows.append(row)
    print(
        format_table(
            ["twig", "matches", "planner", *[f"{n} ms" for n in names]],
            rows,
        )
    )
    print("\nAll strategies returned identical match sets "
          "(* = the planner's choice).")
    print(f"One DocumentIndex served all {db.queries_served} engine calls.")


if __name__ == "__main__":
    main()
