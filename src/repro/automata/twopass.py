"""Two-pass unary queries on tree automata (completing Theorem 4.4).

A deterministic bottom-up automaton computes one state per node — enough
for *subtree-definable* unary queries, but not for context-dependent
ones ("has an ancestor labeled a").  The classical fix is a second,
top-down pass computing each node's **context function**

    c_v : Q → {accept, reject}
    c_v(q) = "would the automaton accept the whole tree if v's state
              were forcibly replaced by q?"

On the (FirstChild, NextSibling) encoding every non-root node v has a
unique *referrer* r — the node whose delta consumed v's state (its
parent if v is a first child, else its previous sibling) — and

    c_v(q) = c_r( delta(..., q in v's slot, ...) ),

so one increasing-id sweep computes all contexts in O(||A|| · |Q|) for a
declared finite state universe.  A unary MSO query is then any predicate
on the pair (state(v), c_v) — see
:func:`has_marked_ancestor_query` for the canonical example.
"""

from __future__ import annotations

from typing import Callable, Hashable, Sequence

from repro.automata.bottomup import BOTTOM, BottomUpTreeAutomaton, run_automaton
from repro.trees.tree import Tree

__all__ = ["context_run", "select_two_pass", "has_marked_ancestor_query"]

State = Hashable


def context_run(
    automaton: BottomUpTreeAutomaton,
    tree: Tree,
    state_universe: Sequence[State],
) -> tuple[list[State], list[frozenset[State]]]:
    """(states, contexts): per node, its bottom-up state and the set of
    hypothetical states q for which the tree would be accepted.

    ``state_universe`` must contain every state reachable on this tree
    (it is validated against the actual run).
    """
    states = run_automaton(automaton, tree)
    universe = list(state_universe)
    universe_set = set(universe)
    missing = {s for s in states if s not in universe_set}
    if missing:
        raise ValueError(f"states outside the declared universe: {missing}")

    delta = automaton.delta
    n = tree.n
    contexts: list[frozenset[State]] = [frozenset()] * n
    contexts[tree.root] = frozenset(
        q for q in universe if automaton.accepting(q)
    )
    # every non-root node's referrer has a smaller id (parent if first
    # child, previous sibling otherwise), so one forward sweep suffices
    for v in range(n):
        if v == tree.root:
            continue
        parent = tree.parent[v]
        if tree.sibling_index[v] == 0:
            referrer = parent
            v_is_left = True
        else:
            referrer = tree.prev_sibling[v]
            v_is_left = False
        r_first_child = tree.first_child(referrer)
        r_next_sibling = tree.next_sibling[referrer]
        other_left = states[r_first_child] if r_first_child >= 0 else BOTTOM
        other_right = states[r_next_sibling] if r_next_sibling >= 0 else BOTTOM
        label = tree.label[referrer]
        ctx_r = contexts[referrer]
        good = []
        for q in universe:
            if v_is_left:
                outcome = delta(q, other_right, label)
            else:
                outcome = delta(other_left, q, label)
            if outcome in ctx_r:
                good.append(q)
        contexts[v] = frozenset(good)
    return states, contexts


def select_two_pass(
    automaton: BottomUpTreeAutomaton,
    tree: Tree,
    state_universe: Sequence[State],
    select: Callable[[State, frozenset], bool],
) -> set[int]:
    """The unary query {v : select(state(v), context(v))}."""
    states, contexts = context_run(automaton, tree, state_universe)
    return {v for v in tree.nodes() if select(states[v], contexts[v])}


def has_marked_ancestor_query(mark: str):
    """The canonical context-dependent unary query: nodes with a proper
    ancestor labeled ``mark`` — not subtree-definable, but expressible
    with a probe automaton plus the context function.

    States are pairs (probe, hit):

    - ``probe`` — this encoded subtree contains the probe,
    - ``hit``  — some ``mark``-labeled node's first-child chain contains
      the probe (i.e. the probe sits strictly below a mark node).

    In the *actual* run no probe exists, so every state is (0, 0).  Node
    v has a mark-ancestor iff *injecting* the probe at v would make the
    automaton accept: select(state, ctx) = (1, state[1]) ∈ ctx.

    Returns (automaton, state_universe, select).
    """

    def unpack(q):
        return (0, 0) if q == BOTTOM else q

    def delta(left, right, label):
        l_probe, l_hit = unpack(left)
        r_probe, r_hit = unpack(right)
        probe = l_probe or r_probe
        hit = l_hit or r_hit or (label == mark and l_probe)
        return (probe, hit)

    automaton = BottomUpTreeAutomaton(
        name=f"ancestor[{mark}]-probe",
        delta=delta,
        accepting=lambda q: unpack(q)[1] == 1,
    )
    universe = [(0, 0), (0, 1), (1, 0), (1, 1)]

    def select(state, ctx) -> bool:
        _probe, hit = unpack(state)
        return (1, hit) in ctx

    return automaton, universe, select
