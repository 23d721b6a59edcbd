"""Conjunctive queries over tree signatures.

A conjunctive query is ``ans(x1..xk) :- A1, ..., Am`` with atoms over
unary predicates (labels, Root, Leaf, ...) and binary axis relations.
Boolean queries have an empty head.  Atoms reuse
:class:`repro.datalog.syntax.Atom`; constants (node ids) are allowed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.datalog.parser import parse_rule
from repro.datalog.syntax import Atom, is_variable
from repro.errors import QueryError
from repro.trees.axes import Axis, forward_axis, resolve_axis

__all__ = ["ConjunctiveQuery", "parse_cq", "atom_axis"]


def atom_axis(atom: Atom) -> Axis:
    """The axis named by a binary atom's predicate."""
    return resolve_axis(atom.pred)


@dataclass(frozen=True)
class ConjunctiveQuery:
    """``ans(head) :- atoms``; hashable and immutable."""

    head: tuple[str, ...]
    atoms: tuple[Atom, ...]

    def __post_init__(self):
        if not isinstance(self.head, tuple):
            object.__setattr__(self, "head", tuple(self.head))
        if not isinstance(self.atoms, tuple):
            object.__setattr__(self, "atoms", tuple(self.atoms))

    # -- structure ----------------------------------------------------------

    def variables(self) -> list[str]:
        """All variables, in first-occurrence order."""
        seen: dict[str, None] = dict.fromkeys(self.head)
        for atom in self.atoms:
            for t in atom.args:
                if is_variable(t):
                    seen.setdefault(t, None)
        return list(seen)

    def unary_atoms(self) -> list[Atom]:
        return [a for a in self.atoms if a.arity == 1]

    def binary_atoms(self) -> list[Atom]:
        return [a for a in self.atoms if a.arity == 2]

    def is_boolean(self) -> bool:
        return not self.head

    def size(self) -> int:
        """|Q| — number of atoms."""
        return len(self.atoms)

    def signature(self) -> frozenset[Axis]:
        """The set of axes used by the binary atoms (Section 6 cares
        which signature a query class draws from)."""
        return frozenset(atom_axis(a) for a in self.binary_atoms())

    def adjacency(self) -> dict[str, set[str]]:
        """The query graph (Section 4): variables as vertices, an edge
        per binary atom over two distinct variables."""
        adj: dict[str, set[str]] = {v: set() for v in self.variables()}
        for atom in self.binary_atoms():
            s, t = atom.args
            if is_variable(s) and is_variable(t) and s != t:
                adj[s].add(t)
                adj[t].add(s)
        return adj

    def is_connected(self) -> bool:
        adj = self.adjacency()
        if not adj:
            return True
        start = next(iter(adj))
        seen = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == len(adj)

    def validate(self) -> "ConjunctiveQuery":
        body_vars: set[str] = set()
        for atom in self.atoms:
            if atom.arity not in (1, 2):
                raise QueryError(f"atom {atom} has arity {atom.arity}")
            if atom.arity == 2:
                atom_axis(atom)  # raises on unknown axis
            body_vars.update(atom.variables())
        for v in self.head:
            if v not in body_vars:
                raise QueryError(f"head variable {v} not in body")
        return self

    def canonicalized(self) -> "ConjunctiveQuery":
        """Canonical axis names; inverse axes are flipped to forward
        atoms (``Parent(x, y)`` becomes ``Child(y, x)``), which
        simplifies every downstream algorithm."""
        new_atoms = []
        for atom in self.atoms:
            if atom.arity != 2:
                new_atoms.append(atom)
                continue
            axis = atom_axis(atom)
            forward = forward_axis(axis)
            args = atom.args if forward is axis else atom.args[::-1]
            new_atoms.append(Atom(forward.value, args))
        return ConjunctiveQuery(self.head, tuple(new_atoms))

    def with_head(self, head: Iterable[str]) -> "ConjunctiveQuery":
        return ConjunctiveQuery(tuple(head), self.atoms)

    def __str__(self) -> str:
        head = f"ans({', '.join(self.head)})"
        return f"{head} :- " + ", ".join(map(str, self.atoms)) + "."

    def __iter__(self) -> Iterator[Atom]:
        return iter(self.atoms)


def parse_cq(text: str) -> ConjunctiveQuery:
    """Parse ``ans(x, y) :- Child(x, y), Lab:a(y).`` (head pred name is
    arbitrary; ``ans() :- ...`` or ``ans :- ...`` gives a Boolean query)."""
    text = text.strip().rstrip(".")
    if ":-" in text:
        head_text, _sep, _body = text.partition(":-")
        if "(" not in head_text:
            text = head_text.strip() + "()" + text[len(head_text):]
    rule = parse_rule(text)
    head = tuple(t for t in rule.head.args if is_variable(t))
    if len(head) != len(rule.head.args):
        raise QueryError("head arguments must be variables")
    return ConjunctiveQuery(head, rule.body).canonicalized().validate()
