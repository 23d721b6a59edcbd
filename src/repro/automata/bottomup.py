"""Deterministic bottom-up automata on the binary (FirstChild,
NextSibling) encoding of unranked trees.

A :class:`BottomUpTreeAutomaton` has a transition *function*
``delta(left_state, right_state, label) -> state`` where ``left_state``
is the state of the node's first child (⊥ if a leaf) and ``right_state``
the state of its next sibling (⊥ if last sibling).  Because node ids are
pre-order positions, both the first child (id v+1) and the next sibling
have larger ids than v, so a single reverse pass computes all states —
the linear-time run of [71, 24] that Theorem 4.4 builds on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable

from repro.trees.tree import Tree

__all__ = [
    "BOTTOM",
    "BottomUpTreeAutomaton",
    "run_automaton",
    "accepts",
    "selecting_run",
]

#: The pseudo-state of an absent first child / next sibling.
BOTTOM = "_BOT_"

State = Hashable


@dataclass(frozen=True)
class BottomUpTreeAutomaton:
    """A deterministic bottom-up automaton.

    ``delta`` may be a dict keyed by (left, right, label) — missing keys
    fall back to ``default_state`` — or any callable.
    ``accepting`` decides acceptance from the root state.
    ``selecting`` (optional) marks states whose nodes a unary query
    selects (the subtree-definable unary queries; see
    :func:`selecting_run`).
    """

    name: str
    delta: "Callable[[State, State, str], State]"
    accepting: "Callable[[State], bool]"
    selecting: "Callable[[State], bool] | None" = None


def run_automaton(
    automaton: BottomUpTreeAutomaton, tree: Tree
) -> list[State]:
    """The state of every node, computed in one reverse pre-order pass."""
    n = tree.n
    states: list[State] = [BOTTOM] * n
    delta = automaton.delta
    first_child = [tree.first_child(v) for v in range(n)]
    next_sibling = tree.next_sibling
    label = tree.label
    for v in range(n - 1, -1, -1):
        fc = first_child[v]
        ns = next_sibling[v]
        states[v] = delta(
            states[fc] if fc >= 0 else BOTTOM,
            states[ns] if ns >= 0 else BOTTOM,
            label[v],
        )
    return states


def accepts(automaton: BottomUpTreeAutomaton, tree: Tree) -> bool:
    """Boolean MSO-style query: does the automaton accept the tree?"""
    states = run_automaton(automaton, tree)
    return automaton.accepting(states[tree.root])


def selecting_run(automaton: BottomUpTreeAutomaton, tree: Tree) -> set[int]:
    """The nodes whose state is selected (requires ``selecting``)."""
    if automaton.selecting is None:
        raise ValueError(f"automaton {automaton.name} has no selection set")
    states = run_automaton(automaton, tree)
    return {v for v in tree.nodes() if automaton.selecting(states[v])}
