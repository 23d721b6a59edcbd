"""Explicit finite structures of unary and binary relations.

Section 6 develops arc-consistency for arbitrary relational structures
(Example 6.1 is a two-relation database, not a tree).
:class:`ExplicitStructure` implements the same access protocol as
:class:`repro.trees.structure.TreeStructure` — ``domain``,
``holds_unary``, ``unary_members``, ``holds_binary``, ``successors``,
``predecessors`` — over explicitly listed tuples, so the AC algorithms
run unchanged on it.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import QueryError
from repro.trees.structure import const_value

__all__ = ["ExplicitStructure"]


class ExplicitStructure:
    """A finite structure given by explicit relation contents."""

    def __init__(
        self,
        domain: Iterable[int],
        unary: dict[str, Iterable[int]] | None = None,
        binary: dict[str, Iterable[tuple[int, int]]] | None = None,
    ):
        self._domain = sorted(set(domain))
        self._unary = {
            name: set(members) for name, members in (unary or {}).items()
        }
        self._binary: dict[str, set[tuple[int, int]]] = {}
        self._succ: dict[str, dict[int, list[int]]] = {}
        self._pred: dict[str, dict[int, list[int]]] = {}
        for name, pairs in (binary or {}).items():
            pair_set = set(pairs)
            self._binary[name] = pair_set
            succ: dict[int, list[int]] = {}
            pred: dict[int, list[int]] = {}
            for u, v in sorted(pair_set):
                succ.setdefault(u, []).append(v)
                pred.setdefault(v, []).append(u)
            self._succ[name] = succ
            self._pred[name] = pred

    @property
    def domain(self) -> list[int]:
        return self._domain

    def holds_unary(self, name: str, v: int) -> bool:
        if name == "Dom":
            return v in set(self._domain)
        if name not in self._unary:
            c = const_value(name)
            if c is None:
                raise QueryError(f"unknown unary relation {name!r}")
            return v == c
        return v in self._unary[name]

    def unary_members(self, name: str) -> Iterator[int]:
        if name == "Dom":
            yield from self._domain
            return
        if name not in self._unary:
            raise QueryError(f"unknown unary relation {name!r}")
        yield from sorted(self._unary[name])

    def _rel(self, name: str) -> set[tuple[int, int]]:
        if name not in self._binary:
            raise QueryError(f"unknown binary relation {name!r}")
        return self._binary[name]

    def holds_binary(self, name: str, u: int, v: int) -> bool:
        return (u, v) in self._rel(name)

    def successors(self, name: str, u: int) -> Iterator[int]:
        self._rel(name)
        yield from self._succ[name].get(u, ())

    def predecessors(self, name: str, v: int) -> Iterator[int]:
        self._rel(name)
        yield from self._pred[name].get(v, ())

    def pairs(self, name: str) -> Iterator[tuple[int, int]]:
        yield from sorted(self._rel(name))
