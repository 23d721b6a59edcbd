"""Tree editing.

The paper's Section 2 motivates *insert-friendly* labeling schemes
([63] ORDPATH, [23] Dietz–Sleator) by the cost of updates under plain
pre/post numbering: an insertion shifts Θ(n) indexes.  This module
provides the update operations themselves — :class:`Tree` is immutable,
so each edit returns a new tree (an O(n) renumbering, exactly the cost
the labeling schemes avoid; the test suite pairs these edits with
:class:`~repro.storage.labeling.OrdpathLabeling.between` to show the
contrast).
"""

from __future__ import annotations

from repro.trees.tree import Tree, TreeBuilder

__all__ = [
    "insert_leaf",
    "insert_subtree",
    "delete_subtree",
    "relabel",
    "splice",
]


def _to_arrays(tree: Tree):
    labels = [set(s) for s in tree.labels]
    primary = list(tree.label)
    children = [list(c) for c in tree.children]
    return primary, labels, children


def _rebuild(primary, labels, children, root=0) -> Tree:
    """Renumber an edited (label, children) forest into a fresh Tree."""
    builder = TreeBuilder()
    builder.walk(root, children.__getitem__, primary.__getitem__, labels.__getitem__)
    return builder.finish()


def insert_leaf(tree: Tree, parent: int, position: int, label: str) -> Tree:
    """A new tree with a ``label`` leaf as the ``position``-th child of
    ``parent`` (position may equal the current child count: append)."""
    primary, labels, children = _to_arrays(tree)
    if not 0 <= position <= len(children[parent]):
        raise IndexError(
            f"position {position} out of range for node with "
            f"{len(children[parent])} children"
        )
    new_id = len(primary)
    primary.append(label)
    labels.append({label})
    children.append([])
    children[parent].insert(position, new_id)
    return _rebuild(primary, labels, children)


def insert_subtree(tree: Tree, parent: int, position: int, sub: Tree) -> Tree:
    """Graft a whole tree as the ``position``-th child of ``parent``."""
    primary, labels, children = _to_arrays(tree)
    if not 0 <= position <= len(children[parent]):
        raise IndexError("insert position out of range")
    offset = len(primary)
    for v in sub.nodes():
        primary.append(sub.label[v])
        labels.append(set(sub.labels[v]))
        children.append([c + offset for c in sub.children[v]])
    children[parent].insert(position, offset + sub.root)
    return _rebuild(primary, labels, children)


def delete_subtree(tree: Tree, node: int) -> Tree:
    """A new tree without ``node`` and its descendants (not the root)."""
    if node == tree.root:
        raise ValueError("cannot delete the root")
    primary, labels, children = _to_arrays(tree)
    children[tree.parent[node]].remove(node)
    return _rebuild(primary, labels, children)


def relabel(tree: Tree, node: int, label: str, keep_extra: bool = True) -> Tree:
    """A new tree with ``node``'s primary label replaced."""
    primary, labels, children = _to_arrays(tree)
    old_primary = primary[node]
    primary[node] = label
    if keep_extra:
        labels[node] = (labels[node] - {old_primary}) | {label}
    else:
        labels[node] = {label}
    return _rebuild(primary, labels, children)


def splice(tree: Tree, node: int) -> Tree:
    """Remove ``node`` but keep its children, promoted into its place
    (the XSLT-ish "unwrap"); not applicable to the root."""
    if node == tree.root:
        raise ValueError("cannot splice out the root")
    primary, labels, children = _to_arrays(tree)
    parent = tree.parent[node]
    slot = children[parent].index(node)
    children[parent][slot:slot + 1] = children[node]
    children[node] = []
    return _rebuild(primary, labels, children)
