"""The node-set full reducer against backtracking, on the queries it has
to get right.

Yannakakis over trees keeps one node set per variable and one semi-join
per edge of the query forest.  What that design must handle, and what
tree-shaped CQs with one or two binary atoms never exercise:

- every forward axis (the nine of ``FORWARD_AXES``);
- parallel atoms over one pair of variables, in the same direction
  (folded into the meet of their axes) and in opposite directions
  (``Self`` for two reflexive axes, no answer otherwise);
- self-loops ``R(x, x)`` and atoms with a node-id constant, which
  filter their variable's set;
- disconnected components, and heads of arity 0 to 3, spread over
  several components.

Every random acyclic CQ here is checked against ``backtracking``
through ``Database.cq(q, "yannakakis")`` and, as a Boolean query,
through ``yannakakis_boolean``.  Everything is seeded; a failure names
the tree seed and the query.
"""

from __future__ import annotations

import random

import pytest

from repro.cq.naive import evaluate_backtracking
from repro.cq.query import ConjunctiveQuery
from repro.cq.yannakakis import yannakakis_boolean
from repro.datalog.syntax import Atom, is_variable
from repro.engine import Database
from repro.trees.axes import FORWARD_AXES, IMPLIES, Axis
from repro.trees.generate import random_tree
from repro.trees.structure import lab

AXES = sorted(FORWARD_AXES, key=lambda a: a.value)
REFLEXIVE = [Axis.SELF, Axis.CHILD_STAR, Axis.NEXT_SIBLING_STAR]
LABELS = ("a", "b", "c")
UNARY = ("Root", "Leaf", "FirstSibling", "LastSibling")
CASES = 440


def random_acyclic_cq(rng: random.Random, n_nodes: int) -> ConjunctiveQuery:
    """A random acyclic CQ: a random forest over 1-5 variables, each edge
    one atom of a random axis and direction, plus parallel atoms,
    self-loops, node-id constants, unary atoms and a head of arity 0-3."""
    variables = [f"v{i}" for i in range(rng.randint(1, 5))]
    atoms: list[Atom] = []
    for i, v in enumerate(variables[1:], 1):
        if rng.random() < 0.2:
            continue  # v roots a component of its own
        u = variables[rng.randrange(i)]
        pair = (u, v) if rng.random() < 0.5 else (v, u)
        axis, roll = rng.choice(AXES), rng.random()
        if roll < 0.25:  # a weaker axis in the same direction
            weaker = [a for a in AXES if axis in IMPLIES[a]]
            atoms += [Atom(axis.value, pair), Atom(rng.choice(weaker).value, pair)]
        elif roll < 0.4:  # two reflexive axes in opposite directions
            first, second = rng.choice(REFLEXIVE), rng.choice(REFLEXIVE)
            atoms += [Atom(first.value, pair), Atom(second.value, pair[::-1])]
        elif roll < 0.6:  # any second axis, in either direction
            other = pair if rng.random() < 0.5 else pair[::-1]
            atoms += [Atom(axis.value, pair), Atom(rng.choice(AXES).value, other)]
        else:
            atoms.append(Atom(axis.value, pair))
    for v in variables:
        roll = rng.random()
        if roll < 0.4:
            atoms.append(Atom(lab(rng.choice(LABELS)), (v,)))
        elif roll < 0.5:
            atoms.append(Atom(rng.choice(UNARY), (v,)))
        if rng.random() < 0.15:  # mostly reflexive: others empty the answer
            loop = rng.choice(REFLEXIVE if rng.random() < 0.7 else AXES)
            atoms.append(Atom(loop.value, (v, v)))
        if rng.random() < 0.15:
            c = rng.randrange(n_nodes)
            pair = (c, v) if rng.random() < 0.5 else (v, c)
            atoms.append(Atom(rng.choice(AXES).value, pair))
        if not any(v in a.args for a in atoms):
            atoms.append(Atom("Dom", (v,)))
    head = tuple(rng.sample(variables, min(rng.randint(0, 3), len(variables))))
    return ConjunctiveQuery(head, tuple(rng.sample(atoms, len(atoms))))


def _cases():
    rng = random.Random(2006)
    for case in range(CASES):
        n = rng.randint(8, 37)
        tree_seed = case % 42
        yield n, tree_seed, random_acyclic_cq(rng, n)


_DBS: dict[tuple[int, int], Database] = {}


def _db(n: int, seed: int) -> Database:
    if (n, seed) not in _DBS:
        _DBS[(n, seed)] = Database(random_tree(n, seed=seed, alphabet=LABELS))
    return _DBS[(n, seed)]


@pytest.mark.parametrize("block", range(11))
def test_reducer_agrees_with_backtracking(block):
    for case, (n, tree_seed, query) in enumerate(_cases()):
        if case % 11 != block:
            continue
        db = _db(n, tree_seed)
        expected = evaluate_backtracking(query, db.tree)
        got = db.cq(query, "yannakakis").answer
        assert set(got) == expected, (n, tree_seed, str(query))
        boolean = query.with_head(())
        assert yannakakis_boolean(boolean, db.tree) == bool(expected), (
            n, tree_seed, str(boolean)
        )


def test_the_sweep_covers_what_the_reducer_must_handle():
    """The generator draws every shape the module docstring lists."""
    axes, arities = set(), set()
    counts = dict.fromkeys(
        ["same direction", "opposite", "self-loop", "constant", "components"], 0
    )
    for _n, _seed, query in _cases():
        first: dict[frozenset, tuple] = {}
        for atom in query.binary_atoms():
            s, t = atom.args
            axes.add(atom.pred)
            if s == t:
                counts["self-loop"] += 1
            elif not (is_variable(s) and is_variable(t)):
                counts["constant"] += 1
            elif frozenset(atom.args) in first:
                same = first[frozenset(atom.args)] == atom.args
                counts["same direction" if same else "opposite"] += 1
            else:
                first[frozenset(atom.args)] = atom.args
        arities.add(len(query.head))
        counts["components"] += not query.is_connected()
    assert axes == {a.value for a in AXES}
    assert arities == {0, 1, 2, 3}
    assert all(count >= 20 for count in counts.values()), counts
