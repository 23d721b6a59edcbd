"""Containment of conjunctive queries over trees.

Background (§3 "containment" definition; [35] studies the problem for
trees): for *relational* CQs, Q ⊆ Q' iff there is a homomorphism from
Q' to Q (Chandra–Merlin).  Over trees the homomorphism criterion is
only *sufficient* — tree structures satisfy extra axioms (every node
has one parent, Child ⊆ Child+, ...), so containment can hold without a
homomorphism.

This module provides:

- :func:`homomorphism` / :func:`contained_by_homomorphism` — the sound
  Chandra–Merlin test, with axis *weakening* built in (an atom
  Child(x,y) of Q may map onto Child+(h x, h y)... more precisely the
  image atom may be any axis that *implies* the pattern's axis),
- :func:`refute_containment` — a complete refutation search over all
  small trees up to a node bound (containment over trees is decidable;
  for the fragments in this library counterexamples are small in
  practice, so the pair gives a practical decision procedure whose
  "unknown" band is explicit),
- :func:`decide_containment_sampled` — the combined check used by tests.
"""

from __future__ import annotations

from itertools import product

from repro.cq.query import ConjunctiveQuery, atom_axis
from repro.cq.naive import evaluate_backtracking
from repro.datalog.syntax import is_variable
from repro.trees.axes import IMPLIES, Axis
from repro.trees.tree import Tree

__all__ = [
    "homomorphism",
    "contained_by_homomorphism",
    "refute_containment",
    "decide_containment_sampled",
]

def homomorphism(
    pattern: ConjunctiveQuery, target: ConjunctiveQuery
) -> "dict[str, str] | None":
    """A mapping h from pattern variables to target terms such that every
    pattern atom is *implied* by some target atom (same unary predicates;
    binary atoms may strengthen per :data:`IMPLIES`), and the heads
    correspond positionally.  Returns the mapping or None."""
    pattern = pattern.canonicalized()
    target = target.canonicalized()
    if len(pattern.head) != len(target.head):
        return None
    variables = pattern.variables()
    target_terms = list(dict.fromkeys(
        t for atom in target.atoms for t in atom.args
    ))
    target_unary: dict[str, set[str]] = {}
    for atom in target.unary_atoms():
        target_unary.setdefault(atom.args[0], set()).add(atom.pred)
    target_binary: dict[tuple, set[Axis]] = {}
    for atom in target.binary_atoms():
        target_binary.setdefault(tuple(atom.args), set()).add(atom_axis(atom))

    fixed = dict(zip(pattern.head, target.head))

    def consistent(h: dict) -> bool:
        for atom in pattern.unary_atoms():
            v = h.get(atom.args[0])
            if v is None:
                continue
            if atom.pred not in target_unary.get(v, set()):
                return False
        for atom in pattern.binary_atoms():
            s, t = atom.args
            hs = h.get(s, s if not is_variable(s) else None)
            ht = h.get(t, t if not is_variable(t) else None)
            if hs is None or ht is None:
                continue
            axes_there = target_binary.get((hs, ht), set())
            want = IMPLIES[atom_axis(atom)]
            if not (axes_there & want):
                return False
        return True

    free = [v for v in variables if v not in fixed]

    def search(i: int, h: dict) -> "dict | None":
        if not consistent(h):
            return None
        if i == len(free):
            return dict(h)
        v = free[i]
        for term in target_terms:
            h[v] = term
            result = search(i + 1, h)
            if result is not None:
                return result
            del h[v]
        return None

    return search(0, dict(fixed))


def contained_by_homomorphism(
    q1: ConjunctiveQuery, q2: ConjunctiveQuery
) -> bool:
    """Sound test for Q1 ⊆ Q2: a homomorphism from Q2 *into* Q1.

    (Sound over trees because the axis-weakening table only uses
    implications valid on every tree; not complete — see module docs.)
    """
    return homomorphism(q2, q1) is not None


def refute_containment(
    q1: ConjunctiveQuery,
    q2: ConjunctiveQuery,
    max_nodes: int = 4,
    alphabet: tuple[str, ...] = ("a", "b"),
) -> "Tree | None":
    """Search all labeled ordered trees with ≤ max_nodes nodes for a
    counterexample to Q1 ⊆ Q2; returns one or None."""
    for tree in _all_labeled_trees(max_nodes, alphabet):
        r1 = evaluate_backtracking(q1, tree)
        if not r1:
            continue
        r2 = evaluate_backtracking(q2, tree)
        if not r1 <= r2:
            return tree
    return None


def decide_containment_sampled(
    q1: ConjunctiveQuery,
    q2: ConjunctiveQuery,
    max_nodes: int = 4,
) -> "tuple[bool, str]":
    """(verdict, evidence): True with "homomorphism" when the sound test
    fires; False with "counterexample" when refuted on small trees;
    otherwise (True, "no-small-counterexample") — a bounded verdict."""
    if contained_by_homomorphism(q1, q2):
        return True, "homomorphism"
    if refute_containment(q1, q2, max_nodes=max_nodes) is not None:
        return False, "counterexample"
    return True, "no-small-counterexample"


def _all_labeled_trees(max_nodes: int, alphabet: tuple[str, ...]):
    """Every ordered tree shape with ≤ max_nodes nodes, under every
    labeling over the alphabet (exponential; keep max_nodes tiny)."""

    def shapes(n: int):
        if n == 1:
            yield ("?", [])
            return
        for split in _compositions(n - 1):
            for forest in _forests(split):
                yield ("?", forest)

    def _compositions(n: int):
        if n == 0:
            yield []
            return
        for first in range(1, n + 1):
            for rest in _compositions(n - first):
                yield [first] + rest

    def _forests(sizes):
        if not sizes:
            yield []
            return
        for head in shapes(sizes[0]):
            for tail in _forests(sizes[1:]):
                yield [head] + tail

    def relabel(shape, labels, counter):
        label = labels[next(counter)]
        return (label, [relabel(c, labels, counter) for c in shape[1]])

    import itertools

    for n in range(1, max_nodes + 1):
        for shape in shapes(n):
            for labeling in product(alphabet, repeat=n):
                counter = itertools.count()
                yield Tree.from_tuple(relabel(shape, labeling, counter))
