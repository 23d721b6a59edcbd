"""The eXtended Access Support Relation (XASR) of Example 2.1 / Figure 2.

One row per tree node: ``(pre, post, parent_pre, label)`` — with
``parent_pre`` NULL (None) for the root.  Figure 2(b) of the paper uses
1-based pre/post indexes; we keep that convention here so the worked
example reproduces verbatim, and provide converters from/to the 0-based
node ids of :class:`~repro.trees.tree.Tree`.

The two SQL views of Example 2.1 are :func:`descendant_view` (a single
theta-join — a *structural join*) and :func:`child_view` (a selection +
projection on ``parent_pre``).
"""

from __future__ import annotations

from repro.storage.relational import Table
from repro.trees.tree import Tree

__all__ = ["XASR", "descendant_view", "child_view"]


class XASR:
    """The XASR relation of a tree, as a :class:`Table` plus helpers."""

    def __init__(self, table: Table):
        self.table = table

    @classmethod
    def from_tree(cls, tree: Tree) -> "XASR":
        rows = []
        for v in tree.nodes():
            parent = tree.parent[v]
            rows.append(
                (
                    v + 1,                       # pre, 1-based as in Figure 2
                    tree.post[v] + 1,            # post, 1-based
                    None if parent < 0 else parent + 1,
                    tree.label[v],
                )
            )
        return cls(Table(("pre", "post", "parent_pre", "lab"), rows))

    def size(self) -> int:
        """Number of rows (= number of nodes); each row is O(log |A|) bits,
        so the representation is O(||A|| · log |A|) as stated in §2."""
        return len(self.table)

    def descendant_pairs(self) -> Table:
        return descendant_view(self.table)

    def child_pairs(self) -> Table:
        return child_view(self.table)

    def __repr__(self) -> str:  # pragma: no cover
        return f"XASR({len(self.table)} nodes)"


def descendant_view(xasr: Table) -> Table:
    """Example 2.1::

        CREATE VIEW descendant AS
        SELECT r1.pre, r2.pre FROM R r1, R r2
        WHERE r1.pre < r2.pre AND r2.post < r1.post;

    Implemented as the literal theta-join (the *structural join*).
    """
    joined = xasr.theta_join(
        xasr, lambda r1, r2: r1["pre"] < r2["pre"] and r2["post"] < r1["post"]
    )
    return joined.project(["pre", "pre_r"], dedup=False).rename(
        {"pre": "anc_pre", "pre_r": "desc_pre"}
    )


def child_view(xasr: Table) -> Table:
    """Example 2.1::

        CREATE VIEW child AS
        SELECT parent_pre, pre FROM R
        WHERE parent_pre is not NULL;
    """
    return (
        xasr.select(lambda r: r["parent_pre"] is not None)
        .project(["parent_pre", "pre"], dedup=False)
        .rename({"parent_pre": "anc_pre", "pre": "desc_pre"})
    )
