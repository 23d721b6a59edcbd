"""Quickstart: one tour through the library's main entry points.

Everything routes through :class:`repro.engine.Database` — one
document, one cached index, a planner that picks the evaluation
strategy, and per-call execution stats.

Run:  python examples/quickstart.py
"""

from repro.consistency import evaluate_boolean_xproperty
from repro.cq import parse_cq
from repro.engine import Database

DOCUMENT = """
<library>
  <shelf topic="databases">
    <book><title/><author/><author/></book>
    <book><title/><award/></book>
  </shelf>
  <shelf topic="logic">
    <book><title/><author/></book>
    <journal><title/></journal>
  </shelf>
</library>
"""


def main() -> None:
    db = Database.from_xml(DOCUMENT)
    print(f"parsed {db.tree.n} nodes, height {db.tree.height()}")

    # --- Core XPath: the planner picks the strategy -------------------------
    result = db.xpath(
        "Child*[lab() = book][Child[lab() = author]]/Child[lab() = title]"
    )
    print("titles of books with authors:", sorted(result.answer))
    print(f"  ran as: {result.stats.summary()}")
    print(f"  because: {result.stats.reason}")

    # --- conjunctive queries (acyclic -> Yannakakis) ------------------------
    result = db.cq("ans(b) :- Child+(s, b), Lab:shelf(s), Lab:book(b)")
    books = {v for (v,) in result.answer}
    print("books on shelves:         ", sorted(books))
    print(f"  ran as: {result.stats.summary()}")

    # --- the same query under every applicable strategy ---------------------
    checked = db.cross_check("cq", "ans(b) :- Child+(s, b), Lab:shelf(s), Lab:book(b)")
    assert all({v for (v,) in r.answer} == books for r in checked.values())
    print(f"  cross-checked against: {', '.join(checked)}")

    # --- monadic datalog (TMNF -> Horn-SAT -> Minoux) ----------------------
    result = db.datalog(
        """
        OnShelf(x) :- Lab:shelf(x).
        OnShelf(x) :- Child(y, x), OnShelf(y).
        Titled(x) :- OnShelf(x), Lab:title(x).
        % query: Titled
        """
    )
    print("titles under shelves:     ", sorted(result.answer))

    # --- holistic twig join -------------------------------------------------
    result = db.twig("//shelf/book[author]")
    print(f"twig //shelf/book[author]: {len(result.answer)} matches "
          f"(strategy: {result.stats.strategy})")

    # --- repeated queries reuse the cached DocumentIndex --------------------
    again = db.twig("//shelf/book[author]")
    assert not again.stats.index_built and again.stats.index_hits > 0
    print(f"index built once, then reused across {db.queries_served} queries")

    # --- Boolean CQ via arc-consistency (Theorem 6.5) ----------------------
    boolean = parse_cq("ans() :- Child+(x, y), Lab:book(x), Lab:award(y)")
    print("some book holds an award? ",
          evaluate_boolean_xproperty(boolean, db.tree))


if __name__ == "__main__":
    main()
