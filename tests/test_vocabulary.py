"""One predicate vocabulary: every entry point reads an axis name, an
axis fact and a unary predicate name the same way.

- every spelling of every axis (its name, each alias, and its inverse's
  name with ``^-1``) resolves to that axis through the resolver, the
  three parsers, the relational-structure view and the dichotomy
  classifier;
- the reflexive/strict table agrees with the axis relations themselves;
- unary seeding (``Root``, ``Leaf``, a node-id constant) in Yannakakis
  and in datalog grounding charges the visit budget for every node it
  scans, so budgets bound it like any other kernel loop.
"""

from __future__ import annotations

import pytest

from repro.consistency import arc_consistency_worklist
from repro.consistency.abstract import ExplicitStructure
from repro.consistency.dichotomy import classify_signature
from repro.cq.query import ConjunctiveQuery, atom_axis, parse_cq
from repro.datalog.parser import parse_program
from repro.datalog.syntax import Atom
from repro.engine import Database
from repro.errors import ResourceBudgetExceeded
from repro.trees import random_tree
from repro.trees.axes import (
    AXES,
    INVERSE_SUFFIX,
    REFLEXIVE,
    _ALIASES,
    axis_pairs,
    axis_targets,
    inverse_axis,
    resolve_axis,
)
from repro.trees.structure import TreeStructure
from repro.workloads.documents import wide_tree
from repro.xpath.parser import parse_xpath

SPELLINGS = [
    (axis, spelling)
    for axis in AXES
    for spelling in sorted(
        {axis.value, inverse_axis(axis).value + INVERSE_SUFFIX}
        | {alias for alias, aliased in _ALIASES.items() if aliased is axis}
    )
]


@pytest.fixture(scope="module")
def small_tree():
    return random_tree(25, seed=3)


class TestSpellingAgreement:
    @pytest.mark.parametrize("axis, spelling", SPELLINGS)
    def test_every_entry_point_reads_the_same_axis(self, small_tree, axis, spelling):
        assert resolve_axis(spelling) is axis
        assert parse_xpath(spelling).axis is axis
        # a CQ atom over a reverse axis is flipped onto the forward one
        (atom,) = parse_cq(f"ans(x) :- {spelling}(x, y)").atoms
        read = atom_axis(atom)
        assert (read if atom.args == ("x", "y") else inverse_axis(read)) is axis
        program = parse_program(f"Q(x) :- {spelling}(x, y).").canonicalized()
        assert resolve_axis(program.rules[0].body[0].pred) is axis
        structure = TreeStructure(small_tree)
        for u in small_tree.nodes():
            assert list(structure.successors(spelling, u)) == list(
                axis_targets(small_tree, axis, u)
            )
        assert classify_signature([spelling]) == classify_signature([axis])

    @pytest.mark.parametrize("spelling", ["PrevSibling", "NextSibling^-1"])
    def test_tau_plus_takes_either_spelling_of_prev_sibling(self, spelling):
        program = parse_program(f"Q(x) :- Lab:a(y), {spelling}(y, x).")
        assert program.is_tau_plus()


def test_explicit_structures_read_node_constants():
    """Arc-consistency guards a node-id constant with a ``Const:c``
    atom, which an explicit structure reads like a tree structure."""
    query = ConjunctiveQuery((), (Atom("R", ("x", 3)),))
    structure = ExplicitStructure([1, 2, 3, 4], binary={"R": [(1, 2), (2, 3), (3, 4)]})
    assert arc_consistency_worklist(query, None, structure) == {"x": {2}, "_k0": {3}}


class TestReflexiveTable:
    @pytest.mark.parametrize("seed", range(20))
    def test_reflexive_axes_are_their_strict_axis_and_self(self, seed):
        tree = random_tree(2 + seed, seed=seed)
        diagonal = {(v, v) for v in tree.nodes()}
        for axis in AXES:
            pairs = set(axis_pairs(tree, axis))
            assert (diagonal <= pairs) == (axis in REFLEXIVE), axis
            if axis in REFLEXIVE:
                strict = REFLEXIVE[axis]
                below = set() if strict is None else set(axis_pairs(tree, strict))
                assert pairs == below | diagonal, axis
                assert not below & diagonal, axis


# ---------------------------------------------------------------------------
# unary seeding charges what it scans
# ---------------------------------------------------------------------------

SEEDED = [
    ("cq", "yannakakis", "ans(x) :- Root(x), Child(x, y)"),
    ("cq", "yannakakis", "ans(x) :- Leaf(x), Child(y, x)"),
    ("cq", "yannakakis", "ans(x) :- Child(x, 5)"),
    ("datalog", "minoux", "Q(x) :- Root(x).\n% query: Q"),
    ("datalog", "minoux", "Q(x) :- Leaf(x).\n% query: Q"),
]

N = 20_000


class _Counted(list):
    """A tree column that counts the entries read from it."""

    def __init__(self, column, reads: list):
        super().__init__(column)
        self.reads = reads

    def __getitem__(self, i):
        self.reads[0] += 1
        return super().__getitem__(i)

    def __iter__(self):
        for v in super().__iter__():
            self.reads[0] += 1
            yield v


@pytest.fixture()
def counted(monkeypatch):
    """A database over ``wide_tree(N)`` whose node columns count their
    reads, and whose per-node unary tests count their calls: returns
    ``(db, work)`` with ``work()`` the reads and tests so far."""
    db = Database(wide_tree(N))
    db.index  # built outside any budget
    tree = db.tree
    reads = [0]
    columns = {slot: getattr(tree, slot.lstrip("_")) for slot in
               ("parent", "subtree_end", "_prev_sibling", "_next_sibling")}
    for slot, column in columns.items():
        setattr(tree, slot, _Counted(column, reads))
    tests = []
    holds = TreeStructure.holds_unary

    def counting(self, name, v):
        tests.append(v)
        return holds(self, name, v)

    monkeypatch.setattr(TreeStructure, "holds_unary", counting)
    return db, lambda: reads[0] + len(tests)


class TestUnarySeedingCharges:
    @pytest.mark.parametrize("kind, strategy, query", SEEDED)
    def test_visits_cover_the_nodes_scanned(self, counted, kind, strategy, query):
        db, work = counted
        result = db.run(kind, query, strategy, trace=True)
        assert result.answer
        assert result.stats.counters["nodes.visited"] >= work()

    @pytest.mark.parametrize("kind, strategy, query", SEEDED)
    def test_zero_deadline_stops_within_one_batch(self, counted, kind, strategy, query):
        db, work = counted
        try:
            db.run(kind, query, strategy, deadline=0)
        except ResourceBudgetExceeded:
            pass
        assert work() <= db.tree.n

    @pytest.mark.parametrize("kind, strategy, query", SEEDED)
    def test_visit_ceiling_stops_within_one_batch(self, counted, kind, strategy, query):
        db, work = counted
        try:
            result = db.run(kind, query, strategy, max_visited=1000, trace=True)
        except ResourceBudgetExceeded as raised:
            assert raised.spent <= 1000 + db.tree.n
        else:
            assert result.stats.counters["nodes.visited"] <= 1000
        assert work() <= 1000 + db.tree.n
