"""Property-based correctness harness: metamorphic invariants of the
engine over seeded random trees and random downward queries.

Four invariant families, each checked on ~40 seeded random instances
(every failure message carries the seed needed to replay it):

1. **axis/inverse-axis symmetry** — for every axis A,
   ``v ∈ A(u)  iff  u ∈ A⁻¹(v)``: the relation computed by
   :func:`apply_axis_to_set` equals the transpose of its inverse axis.
2. **pre/post order consistency with ancestry** — u is a proper
   ancestor of v (parent-chain walk) iff ``pre[u] < pre[v]`` and
   ``post[u] > post[v]`` iff the subtree interval contains v.
3. **descendant = transitive closure of child** — the Child+ relation
   the engine answers with equals the closure of the Child relation
   computed independently, under *every* registered strategy.
4. **result monotonicity under subtree grafting** — positive downward
   queries (no negation, no position()) are monotone: grafting a new
   subtree anywhere can only add answers; old answers survive under
   the pre-order renumbering.  Checked for Core XPath and for twig
   patterns, across every applicable strategy.
"""

from __future__ import annotations

import random

import pytest

from repro.engine import Database
from repro.trees.axes import AXES, inverse_axis
from repro.trees.edit import insert_subtree
from repro.trees.generate import random_tree
from repro.trees.tree import Tree
from repro.workloads.queries import random_twig, random_xpath
from repro.xpath.contextset import apply_axis_to_set

LABELS = ("a", "b", "c", "d")

SEEDS = range(40)


def _tree(seed: int, n: "int | None" = None) -> Tree:
    return random_tree(n or (6 + seed), seed=seed, alphabet=LABELS)


# ---------------------------------------------------------------------------
# 1. axis / inverse-axis symmetry
# ---------------------------------------------------------------------------


def _relation(tree: Tree, axis) -> set[tuple[int, int]]:
    return {
        (u, v)
        for u in tree.nodes()
        for v in apply_axis_to_set(tree, axis, {u})
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_axis_inverse_symmetry(seed):
    tree = _tree(seed)
    for axis in AXES:
        forward = _relation(tree, axis)
        backward = _relation(tree, inverse_axis(axis))
        assert forward == {(u, v) for (v, u) in backward}, (
            f"seed={seed} axis={axis}: apply_axis_to_set({axis}) is not "
            f"the transpose of {inverse_axis(axis)}"
        )


# ---------------------------------------------------------------------------
# 2. pre/post order consistency with ancestry
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_pre_post_consistent_with_ancestry(seed):
    tree = _tree(seed, n=8 + 2 * seed)
    post = tree.post
    for v in tree.nodes():
        chain = set(tree.ancestors(v))
        for u in tree.nodes():
            by_chain = u in chain
            by_prepost = u < v and post[u] > post[v]
            by_interval = u < v < tree.subtree_end[u]
            assert by_chain == by_prepost == by_interval, (
                f"seed={seed}: ancestry of ({u}, {v}) disagrees between "
                f"parent chain ({by_chain}), pre/post ({by_prepost}) and "
                f"interval ({by_interval})"
            )


# ---------------------------------------------------------------------------
# 3. descendant = transitive closure of child
# ---------------------------------------------------------------------------


def _child_closure(tree: Tree) -> dict[int, set[int]]:
    """Reachability over the Child relation, computed without any of the
    engine's pre/post machinery (plain BFS per node)."""
    closure: dict[int, set[int]] = {}
    for u in reversed(range(tree.n)):  # children before parents
        reach: set[int] = set()
        for c in tree.children[u]:
            reach.add(c)
            reach |= closure[c]
        closure[u] = reach
    return closure


@pytest.mark.parametrize("seed", SEEDS)
def test_descendant_is_child_transitive_closure(seed):
    tree = _tree(seed)
    closure = _child_closure(tree)
    # structural: the interval view agrees with the BFS closure
    for u in tree.nodes():
        assert closure[u] == set(tree.descendants(u)), (
            f"seed={seed}: descendants({u}) is not the Child-closure"
        )
    # engine: Child+ answers match the closure oracle, per strategy
    db = Database(tree)
    label = LABELS[seed % len(LABELS)]
    oracle = {v for v in closure[tree.root] if tree.has_label(v, label)}
    query = f"Child+[lab() = {label}]"
    for name, result in db.cross_check("xpath", query).items():
        assert set(result.answer) == oracle, (
            f"seed={seed}: strategy {name!r} disagrees with the "
            f"Child-closure oracle on {query!r}"
        )


# ---------------------------------------------------------------------------
# 4. result monotonicity under subtree grafting
# ---------------------------------------------------------------------------


def _graft(tree: Tree, seed: int):
    """Graft a small random subtree at a random slot; return the new
    tree plus the id-mapping old → new."""
    rng = random.Random(seed)
    sub = random_tree(1 + rng.randrange(5), seed=seed + 7, alphabet=LABELS)
    parent = rng.randrange(tree.n)
    position = rng.randrange(len(tree.children[parent]) + 1)
    grafted = insert_subtree(tree, parent, position, sub)
    # pre-order id where the grafted root lands: the old id of the child
    # it was inserted before, or one past the parent's subtree on append
    if position < len(tree.children[parent]):
        graft_at = tree.children[parent][position]
    else:
        graft_at = tree.subtree_end[parent]

    def remap(v: int) -> int:
        return v if v < graft_at else v + sub.n

    return grafted, remap


@pytest.mark.parametrize("seed", SEEDS)
def test_xpath_monotone_under_grafting(seed):
    tree = _tree(seed, n=10 + seed)
    query = random_xpath(
        n_steps=1 + seed % 3,
        labels=LABELS,
        qualifier_prob=0.5,
        negation_prob=0.0,  # positive fragment only: monotone
        seed=seed,
    )
    grafted, remap = _graft(tree, seed)
    before = Database(tree).cross_check("xpath", query)
    after = Database(grafted).cross_check("xpath", query)
    after_sets = {name: set(r.answer) for name, r in after.items()}
    reference = next(iter(after_sets.values()))
    for name, result in before.items():
        mapped = {remap(v) for v in result.answer}
        assert mapped <= reference, (
            f"seed={seed} query={query!r}: grafting lost answers "
            f"{sorted(mapped - reference)} (strategy {name!r})"
        )
    for name, answer in after_sets.items():
        assert answer == reference, (
            f"seed={seed} query={query!r}: post-graft strategies disagree "
            f"({name!r})"
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_twig_monotone_under_grafting(seed):
    tree = _tree(seed, n=10 + seed)
    pattern = random_twig(n_nodes=2 + seed % 3, labels=LABELS, seed=seed)
    grafted, remap = _graft(tree, seed)
    before = Database(tree).cross_check("twig", pattern)
    after = Database(grafted).cross_check("twig", pattern)
    after_sets = {name: set(r.answer) for name, r in after.items()}
    reference = next(iter(after_sets.values()))
    for name, result in before.items():
        mapped = {tuple(remap(v) for v in row) for row in result.answer}
        assert mapped <= reference, (
            f"seed={seed} pattern={pattern!r}: grafting lost matches "
            f"(strategy {name!r})"
        )
    for name, answer in after_sets.items():
        assert answer == reference, (
            f"seed={seed} pattern={pattern!r}: post-graft strategies "
            f"disagree ({name!r})"
        )


# ---------------------------------------------------------------------------
# 5. interval-encoding invariants of the engine index (repro.engine.index)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_column_orders_are_permutations(seed):
    """pre and post columns are each a permutation of 0..n-1."""
    from repro.engine import DocumentIndex

    tree = _tree(seed, n=8 + 2 * seed)
    index = DocumentIndex(tree)
    identity = list(range(tree.n))
    assert sorted(index.pre) == identity, f"seed={seed}: pre not a permutation"
    assert sorted(index.post) == identity, f"seed={seed}: post not a permutation"
    assert len(index.level) == len(index.parent) == tree.n


@pytest.mark.parametrize("seed", SEEDS)
def test_column_intervals_match_axis_ancestry(seed):
    """The (pre, subtree_end) interval check over the columns equals the
    Child+ axis relation computed by axes.py."""
    from repro.engine import DocumentIndex
    from repro.trees.axes import Axis, axis_holds

    tree = _tree(seed, n=8 + 2 * seed)
    index = DocumentIndex(tree)
    post = index.post
    end = index.subtree_end
    for u in range(tree.n):
        for v in range(tree.n):
            by_interval = u < v < end[u]
            by_prepost = u < v and post[u] > post[v]
            by_axis = axis_holds(tree, Axis.CHILD_PLUS, u, v)
            assert by_interval == by_prepost == by_axis, (
                f"seed={seed}: column ancestry of ({u}, {v}) disagrees "
                f"(interval={by_interval}, pre/post={by_prepost}, "
                f"axis={by_axis})"
            )


@pytest.mark.parametrize("seed", SEEDS)
def test_label_interning_survives_derived_cache_eviction(seed):
    """The label table (label → posting list) is permanent.  What is
    derived from it is dropped and derived again: the linear evaluator
    seeds its qualifier sets from the posting lists and evicts them with
    each call, and a rebuilt index reads the table afresh.  Neither ever
    replaces or changes a posting list."""
    from repro.engine import DocumentIndex
    from repro.xpath.contextset import evaluate_query_linear
    from repro.xpath.parser import parse_xpath

    tree = _tree(seed, n=10 + seed)
    index = DocumentIndex(tree)
    labels = sorted(index.labels())
    postings_before = {label: index.nodes_with_label(label) for label in labels}
    # a seeded Child* step, a subtracted not(...) and a complement
    for label in labels:
        evaluate_query_linear(
            parse_xpath(
                f"Child*[lab() = {label}][not(Child[lab() = {label}])]"
                f"/Child[not(not(lab() = {label}))]"
            ),
            tree,
        )
    rebuilt = DocumentIndex(tree)
    for label in labels:
        assert rebuilt.nodes_with_label(label) is postings_before[label], (
            f"seed={seed}: posting list of {label!r} replaced"
        )
        assert postings_before[label].tolist() == [
            v for v in range(tree.n) if tree.has_label(v, label)
        ], f"seed={seed}: posting list of {label!r} changed"
