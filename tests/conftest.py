"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import strategies as st

from repro.trees import Tree, balanced_tree, flat_tree, path_tree, random_tree

#: default wall-clock ceilings (seconds) applied when pytest-timeout is
#: installed — a hung server thread or a deadlocked lock should fail the
#: test, not the whole CI job.  Without the plugin these are a no-op, so
#: the suite needs no extra dependency locally.
SERVICE_TIMEOUT_S = 120
SLOW_TIMEOUT_S = 600


def pytest_collection_modifyitems(config, items):
    if not config.pluginmanager.hasplugin("timeout"):
        return
    for item in items:
        if item.get_closest_marker("timeout") is not None:
            continue  # explicit per-test timeouts win
        if item.get_closest_marker("slow") is not None:
            item.add_marker(pytest.mark.timeout(SLOW_TIMEOUT_S))
        elif item.get_closest_marker("service") is not None:
            item.add_marker(pytest.mark.timeout(SERVICE_TIMEOUT_S))


@pytest.fixture()
def live_server():
    """Boot threaded servers on ephemeral ports: ``live_server(**kw)``
    builds a ``QueryService(**kw)``, serves it on a thread and returns
    ``(service, server, port)``.  Every server booted is shut down when
    the test ends."""
    from repro.service import QueryService, make_server

    def boot(**kwargs):
        svc = QueryService(**kwargs)
        srv = make_server(svc)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        boots.append((srv, thread))
        return svc, srv, srv.server_address[1]

    boots: list = []
    yield boot
    for srv, thread in boots:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=10)


@pytest.fixture
def paper_tree() -> Tree:
    """The tree of Figure 2(a): 1:7:a(2:3:b(3:1:a, 4:2:c), 5:6:a(6:4:b, 7:5:d))."""
    return Tree.from_tuple(("a", [("b", ["a", "c"]), ("a", ["b", "d"])]))


@pytest.fixture
def small_trees() -> list[Tree]:
    """A varied bag of small trees for exhaustive-ish checks."""
    shapes = [
        Tree.from_tuple("a"),
        Tree.from_tuple(("a", ["b"])),
        Tree.from_tuple(("a", ["b", "c", "d"])),
        path_tree(6, seed=1),
        flat_tree(6, seed=2),
        balanced_tree(2, 2, seed=3),
    ]
    shapes += [random_tree(12, seed=s) for s in range(5)]
    return shapes


def trees(min_size: int = 1, max_size: int = 30):
    """Hypothesis strategy: a random tree with mixed shapes."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=min_size, max_value=max_size))
        seed = draw(st.integers(min_value=0, max_value=10_000))
        shape = draw(st.sampled_from(["uniform", "preferential", "binaryish"]))
        return random_tree(n, seed=seed, attachment=shape)

    return build()


SRC = Path(__file__).resolve().parent.parent / "src"


def run_fresh(code: str, **env: str) -> str:
    """Run ``code`` in a new interpreter on this checkout's ``src`` (the
    test process has imported every module long before); returns its
    standard output."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC), **env}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def brute_axis_pairs(tree: Tree, axis) -> set[tuple[int, int]]:
    """Reference implementation of axis relations via first principles."""
    from repro.trees.axes import Axis, resolve_axis

    axis = resolve_axis(axis)
    pairs: set[tuple[int, int]] = set()
    for u in tree.nodes():
        for v in tree.nodes():
            if _axis_brute(tree, axis, u, v):
                pairs.add((u, v))
    return pairs


def _axis_brute(tree: Tree, axis, u: int, v: int) -> bool:
    from repro.trees.axes import Axis

    def ancestors(x):
        out = []
        while tree.parent[x] >= 0:
            x = tree.parent[x]
            out.append(x)
        return out

    def siblings_after(x):
        out = []
        y = tree.next_sibling[x]
        while y >= 0:
            out.append(y)
            y = tree.next_sibling[y]
        return out

    if axis is Axis.SELF:
        return u == v
    if axis is Axis.CHILD:
        return tree.parent[v] == u
    if axis is Axis.FIRST_CHILD:
        return bool(tree.children[u]) and tree.children[u][0] == v
    if axis is Axis.CHILD_PLUS:
        return u in ancestors(v)
    if axis is Axis.CHILD_STAR:
        return u == v or u in ancestors(v)
    if axis is Axis.NEXT_SIBLING:
        return tree.next_sibling[u] == v
    if axis is Axis.NEXT_SIBLING_PLUS:
        return v in siblings_after(u)
    if axis is Axis.NEXT_SIBLING_STAR:
        return u == v or v in siblings_after(u)
    if axis is Axis.FOLLOWING:
        # definition from §2 via NextSibling+ and Child*
        for x0 in [u] + ancestors(u):
            for y0 in siblings_after(x0):
                if v == y0 or y0 in ancestors(v):
                    return True
        return False
    from repro.trees.axes import inverse_axis

    return _axis_brute(tree, inverse_axis(axis), v, u)
