"""Tree automata over the (FirstChild, NextSibling) binary encoding
(§4 "Tree Data": Boolean MSO queries on trees = tree automata, with
linear-time data complexity [71, 24]; Theorem 4.4).

The encoding is Figure 1(b) of the paper: every node's left pointer is
its first child, its right pointer its next sibling.  A deterministic
bottom-up automaton assigns each node a state from the states of its
encoded left/right children; acceptance looks at the root state.  Runs
are a single reverse-document-order array pass — O(||A||) with a tiny
constant, which experiment E16 measures.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".bottomup": ["BottomUpTreeAutomaton", "run_automaton", "accepts", "selecting_run"],
    ".dtd": ["DTD", "ContentModel"],
    ".twopass": ["context_run", "select_two_pass", "has_marked_ancestor_query"],
    ".library": [
        "label_exists_automaton", "label_count_mod_automaton",
        "child_pattern_automaton", "product_automaton", "complement_automaton",
    ],
})
