"""Relational storage of trees: orders, labeling schemes, structural joins.

Section 2 of the paper: a node-labeled tree is completely represented by
one (pre, post, label) triple per node; the XASR of [Fiebig & Moerkotte]
adds the parent's pre index.  On this representation the transitive axes
become single *theta-joins* (structural joins) instead of transitive-
closure computations — the asymmetry experiment E2 measures.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".relational": ["Table"],
    ".xasr": ["XASR", "descendant_view", "child_view"],
    ".structural_join": [
        "stack_structural_join", "merge_structural_join", "nested_loop_join",
        "transitive_closure_pairs",
    ],
    ".labeling": ["IntervalLabeling", "OrdpathLabeling", "DietzLabeling"],
    ".diskstore": [
        "dump_tree", "dumps_tree", "load_tree", "loads_tree", "read_blob",
        "verify_store", "write_blob",
    ],
})
