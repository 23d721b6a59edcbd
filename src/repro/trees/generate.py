"""Deterministic tree generators used by tests, examples, and benchmarks.

All generators take an explicit ``seed`` (or none at all) and build the
:class:`~repro.trees.tree.Tree` directly from parent arrays, so even
million-node instances are cheap and reproducible.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.trees.tree import Tree, TreeBuilder

__all__ = [
    "random_tree",
    "path_tree",
    "flat_tree",
    "balanced_tree",
    "caterpillar_tree",
    "random_labels",
    "tree_from_parents",
]

DEFAULT_ALPHABET: tuple[str, ...] = ("a", "b", "c", "d")


def tree_from_parents(parents: Sequence[int], labels: Sequence[str]) -> Tree:
    """Build a tree from a parent array.

    ``parents[v]`` must be -1 for exactly one root and otherwise a node id
    *smaller than* ``v`` (so ids are a topological/pre-compatible order;
    children keep their relative id order as sibling order).
    """
    n = len(parents)
    children: list[list[int]] = [[] for _ in range(n)]
    root = -1
    for v, p in enumerate(parents):
        if p < 0:
            if root >= 0:
                raise ValueError("multiple roots in parent array")
            root = v
        else:
            if p >= v:
                raise ValueError("parents must precede children in the id order")
            children[p].append(v)
    if root != 0:
        raise ValueError("node 0 must be the root")
    # the builder numbers nodes in pre-order, as Tree requires
    builder = TreeBuilder()
    builder.walk(0, children.__getitem__, labels.__getitem__)
    return builder.finish()


def random_labels(
    n: int, alphabet: Sequence[str] = DEFAULT_ALPHABET, seed: int = 0
) -> list[str]:
    """A reproducible random label sequence over ``alphabet``."""
    rng = random.Random(seed)
    return [rng.choice(alphabet) for _ in range(n)]


def random_tree(
    n: int,
    seed: int = 0,
    alphabet: Sequence[str] = DEFAULT_ALPHABET,
    attachment: str = "uniform",
) -> Tree:
    """A random recursive tree on ``n`` nodes.

    ``attachment`` controls the shape distribution:

    - ``"uniform"`` — each new node picks a uniformly random earlier node
      as parent (expected height Θ(log n), fanout skewed),
    - ``"preferential"`` — parents are picked proportionally to their
      current degree + 1 (produces high-fanout hubs),
    - ``"binaryish"`` — parents are picked among nodes with < 2 children
      (produces deeper, slimmer trees).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    parents = [-1]
    degree = [0]
    eligible = [0]  # for "binaryish": nodes with < 2 children
    for v in range(1, n):
        if attachment == "uniform":
            p = rng.randrange(v)
        elif attachment == "preferential":
            # weight each node by degree + 1
            total = v + sum(degree)
            pick = rng.randrange(total)
            acc = 0
            p = v - 1
            for u in range(v):
                acc += degree[u] + 1
                if pick < acc:
                    p = u
                    break
        elif attachment == "binaryish":
            idx = rng.randrange(len(eligible))
            p = eligible[idx]
            if degree[p] + 1 >= 2:
                eligible[idx] = eligible[-1]
                eligible.pop()
        else:
            raise ValueError(f"unknown attachment policy {attachment!r}")
        parents.append(p)
        degree[p] += 1
        degree.append(0)
        if attachment == "binaryish":
            eligible.append(v)
    return tree_from_parents(parents, random_labels(n, alphabet, seed=seed + 1))


def path_tree(n: int, alphabet: Sequence[str] = DEFAULT_ALPHABET, seed: int = 0) -> Tree:
    """A path (each node has one child): the maximally deep tree."""
    parents = [-1] + list(range(n - 1))
    return tree_from_parents(parents, random_labels(n, alphabet, seed=seed))


def flat_tree(n: int, alphabet: Sequence[str] = DEFAULT_ALPHABET, seed: int = 0) -> Tree:
    """A root with n-1 children: the maximally wide tree."""
    parents = [-1] + [0] * (n - 1)
    return tree_from_parents(parents, random_labels(n, alphabet, seed=seed))


def balanced_tree(
    fanout: int, height: int, alphabet: Sequence[str] = DEFAULT_ALPHABET, seed: int = 0
) -> Tree:
    """The complete ``fanout``-ary tree of the given height."""
    if fanout < 1 or height < 0:
        raise ValueError("fanout must be >= 1 and height >= 0")
    parents = [-1]
    frontier = [0]
    for _level in range(height):
        next_frontier = []
        for node in frontier:
            for _ in range(fanout):
                child = len(parents)
                parents.append(node)
                next_frontier.append(child)
        frontier = next_frontier
    return tree_from_parents(parents, random_labels(len(parents), alphabet, seed=seed))


def caterpillar_tree(
    spine: int, legs: int, alphabet: Sequence[str] = DEFAULT_ALPHABET, seed: int = 0
) -> Tree:
    """A spine path of length ``spine`` where every spine node additionally
    has ``legs`` leaf children.  Interpolates between path and flat trees;
    used to control depth independently of size in experiment E15."""
    parents = [-1]
    prev_spine = 0
    for _ in range(spine - 1):
        for _ in range(legs):
            parents.append(prev_spine)
        node = len(parents)
        parents.append(prev_spine)
        prev_spine = node
    for _ in range(legs):
        parents.append(prev_spine)
    return tree_from_parents(parents, random_labels(len(parents), alphabet, seed=seed))
