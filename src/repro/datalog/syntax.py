"""Abstract syntax for (monadic) datalog programs over tree structures.

Terms are either *variables* (Python strings) or *constants* (Python
ints — node identifiers).  Predicates are referred to by name:

- extensional unary predicates are those of the tree signature
  (``Dom``, ``Root``, ``Leaf``, ``FirstSibling``, ``LastSibling`` and the
  label predicates ``Lab:a``; build the latter with
  :func:`repro.trees.structure.lab`),
- extensional binary predicates are axis names (``FirstChild``,
  ``NextSibling``, ``Child``, ``Child+``, ...), optionally suffixed with
  ``^-1`` for the inverse (:func:`repro.trees.axes.resolve_axis` reads
  them),
- every predicate that appears in some rule head is intensional and —
  for *monadic* datalog — must be unary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.errors import QueryError
from repro.trees.axes import INVERSE_SUFFIX, Axis, inverse_axis, resolve_axis
from repro.trees.structure import TAU_PLUS_AXES, is_unary

__all__ = ["Atom", "Rule", "Program", "var", "is_variable", "INVERSE_SUFFIX"]

Term = "str | int"


def var(name: str) -> str:
    """Identity helper that documents intent: ``var("x")`` is a variable."""
    return name


def is_variable(term: "str | int") -> bool:
    """Variables are strings; constants are ints (node ids)."""
    return isinstance(term, str)


@dataclass(frozen=True)
class Atom:
    """A datalog atom ``pred(t1, ..., tk)``."""

    pred: str
    args: tuple["str | int", ...]

    def __post_init__(self):
        if not isinstance(self.args, tuple):
            object.__setattr__(self, "args", tuple(self.args))

    @property
    def arity(self) -> int:
        return len(self.args)

    def variables(self) -> Iterator[str]:
        return (t for t in self.args if is_variable(t))

    def __str__(self) -> str:
        return f"{self.pred}({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class Rule:
    """A rule ``head <- body``; a fact is a rule with an empty body."""

    head: Atom
    body: tuple[Atom, ...] = ()

    def __post_init__(self):
        if not isinstance(self.body, tuple):
            object.__setattr__(self, "body", tuple(self.body))

    def variables(self) -> set[str]:
        result = set(self.head.variables())
        for atom in self.body:
            result.update(atom.variables())
        return result

    def is_safe(self) -> bool:
        """Every head variable must occur in the body."""
        body_vars: set[str] = set()
        for atom in self.body:
            body_vars.update(atom.variables())
        return all(v in body_vars for v in self.head.variables())

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- " + ", ".join(map(str, self.body)) + "."


def _axis_of(name: str) -> Axis | None:
    """The axis ``name`` resolves to, or None if it is not an axis."""
    try:
        return resolve_axis(name)
    except QueryError:
        return None


def _axis_pred_name(name: str) -> str | None:
    """The canonical predicate name of axis ``name``: the axis's own
    name, except that an inverse written ``X^-1`` for a canonical X (as
    TMNF writes ``NextSibling^-1``) keeps that spelling; None if
    ``name`` is not an axis."""
    axis = _axis_of(name)
    if axis is None:
        return None
    written = inverse_axis(axis).value + INVERSE_SUFFIX
    return written if name.lower() == written.lower() else axis.value


@dataclass
class Program:
    """A datalog program with a distinguished query predicate.

    ``validate()`` enforces safety and (by default) monadicity of the
    intensional predicates, and canonicalizes axis predicate names.
    """

    rules: list[Rule] = field(default_factory=list)
    query_pred: str | None = None

    def rule(self, head: Atom, *body: Atom) -> "Program":
        self.rules.append(Rule(head, tuple(body)))
        return self

    def intensional_preds(self) -> set[str]:
        return {r.head.pred for r in self.rules}

    def predicates(self) -> set[str]:
        result = self.intensional_preds()
        for r in self.rules:
            result.update(a.pred for a in r.body)
        return result

    def size(self) -> int:
        """|P| — total number of atoms in the program."""
        return sum(1 + len(r.body) for r in self.rules)

    def canonicalized(self) -> "Program":
        """Return a copy with axis predicate names canonicalized
        (``descendant`` → ``Child+``, ``parent`` → ``Parent``, while
        ``Child^-1`` keeps its spelling)."""
        idb = self.intensional_preds()

        def fix(atom: Atom) -> Atom:
            if atom.pred in idb or atom.arity != 2:
                return atom
            canonical = _axis_pred_name(atom.pred)
            return atom if canonical is None else Atom(canonical, atom.args)

        new_rules = [
            Rule(r.head, tuple(fix(a) for a in r.body)) for r in self.rules
        ]
        return Program(new_rules, self.query_pred)

    def validate(self, monadic: bool = True) -> "Program":
        """Check safety, arities, and (optionally) monadicity.

        Returns self for chaining; raises :class:`QueryError` on problems.
        """
        idb = self.intensional_preds()
        arity: dict[str, int] = {}
        for r in self.rules:
            if not r.is_safe():
                raise QueryError(f"unsafe rule: {r}")
            for atom in (r.head, *r.body):
                if atom.pred in arity and arity[atom.pred] != atom.arity:
                    raise QueryError(
                        f"predicate {atom.pred} used with inconsistent arities"
                    )
                arity[atom.pred] = atom.arity
                if atom.pred in idb:
                    if monadic and atom.arity != 1:
                        raise QueryError(
                            f"intensional predicate {atom.pred} is not unary "
                            f"(monadic datalog requires unary IDB predicates)"
                        )
                elif atom.arity == 2:
                    if _axis_of(atom.pred) is None:
                        raise QueryError(f"unknown binary relation {atom.pred!r}")
                elif atom.arity != 1:
                    raise QueryError(
                        f"extensional predicate {atom.pred} has arity {atom.arity}"
                    )
        if self.query_pred is not None and self.query_pred not in idb:
            raise QueryError(
                f"query predicate {self.query_pred!r} is never defined"
            )
        return self

    def is_tau_plus(self) -> bool:
        """Does the program only use the τ⁺ signature (Definition of §3)?"""
        idb = self.intensional_preds()
        return all(
            atom.pred in idb
            or (is_unary(atom.pred) if atom.arity == 1
                else _axis_of(atom.pred) in TAU_PLUS_AXES)
            for r in self.rules
            for atom in r.body
        )

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def __str__(self) -> str:
        lines = [str(r) for r in self.rules]
        if self.query_pred is not None:
            lines.append(f"% query: {self.query_pred}")
        return "\n".join(lines)
