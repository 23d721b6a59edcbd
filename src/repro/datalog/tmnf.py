"""Tree-Marking Normal Form (Definition 3.4) and the normalization of
monadic datalog programs into it.

A TMNF rule has one of the three shapes::

    (1) p(x) <- p0(x).
    (2) p(x) <- p0(x0), B(x0, x).
    (3) p(x) <- p0(x), p1(x).

with p0, p1 intensional or unary predicates of τ⁺ and B one of
FirstChild, NextSibling or their inverses.

:func:`to_tmnf` rewrites an arbitrary monadic datalog program over the
tree signature — including rules that use the *derived* axes Child,
Child+, Child*, NextSibling+, NextSibling*, Following and all their
inverses — into an equivalent TMNF program over τ⁺ only.  This is the
[Gottlob & Koch, JACM 2004] translation the paper invokes in Section 3:
each derived axis is eliminated with a constant number of recursive
marking predicates (sibling-closure, subtree-closure, ancestor-closure,
broadcast), so the output size is O(|P|).

Restrictions (documented in DESIGN.md): each rule body, viewed as a
graph on its variables, must be acyclic (a forest).  Disconnected
components not containing the head variable are supported and compiled
into broadcast guards ("some node satisfies the component").
"""

from __future__ import annotations

import itertools

from repro.datalog.syntax import Atom, INVERSE_SUFFIX, Program, Rule, is_variable
from repro.errors import QueryError
from repro.trees.axes import REFLEXIVE, Axis, inverse_axis, resolve_axis
from repro.trees.structure import TAU_PLUS_AXES, const, is_unary

__all__ = ["to_tmnf", "is_tmnf", "is_tmnf_rule"]


def _is_unary_ok(pred: str, idb: set[str]) -> bool:
    return pred in idb or is_unary(pred)


def is_tmnf_rule(rule: Rule, idb: set[str]) -> bool:
    """Is ``rule`` one of the three TMNF shapes (over τ⁺)?"""
    head = rule.head
    if head.arity != 1 or not is_variable(head.args[0]):
        return False
    x = head.args[0]
    body = rule.body
    if len(body) == 1:
        atom = body[0]
        if atom.arity == 1:  # form (1)
            return atom.args == (x,) and _is_unary_ok(atom.pred, idb)
        return False
    if len(body) == 2:
        unary = [a for a in body if a.arity == 1]
        binary = [a for a in body if a.arity == 2]
        if len(unary) == 2:  # form (3)
            return all(
                a.args == (x,) and _is_unary_ok(a.pred, idb) for a in unary
            )
        if len(unary) == 1 and len(binary) == 1:  # form (2)
            p0, b = unary[0], binary[0]
            if b.pred in idb or resolve_axis(b.pred) not in TAU_PLUS_AXES:
                return False
            x0 = p0.args[0]
            return (
                is_variable(x0)
                and x0 != x
                and b.args == (x0, x)
                and _is_unary_ok(p0.pred, idb)
            )
    return False


def is_tmnf(program: Program) -> bool:
    idb = program.intensional_preds()
    return all(is_tmnf_rule(r, idb) for r in program.rules if r.body)


class _TmnfBuilder:
    """Emits TMNF rules and provides the recursive marking combinators."""

    def __init__(self, out: Program):
        self.out = out
        self._counter = itertools.count()
        # Memoize combinator applications so repeated eliminations of the
        # same axis over the same predicate share marking predicates.
        self._memo: dict[tuple, str] = {}

    def fresh(self, hint: str) -> str:
        return f"_{hint}_{next(self._counter)}"

    # -- raw rule emission (always one of the three TMNF shapes) -------------

    def form1(self, p: str, p0: str) -> None:
        self.out.rules.append(Rule(Atom(p, ("x",)), (Atom(p0, ("x",)),)))

    def form2(self, p: str, p0: str, b: str) -> None:
        self.out.rules.append(
            Rule(Atom(p, ("x",)), (Atom(p0, ("x0",)), Atom(b, ("x0", "x"))))
        )

    def form3(self, p: str, p0: str, p1: str) -> None:
        self.out.rules.append(
            Rule(Atom(p, ("x",)), (Atom(p0, ("x",)), Atom(p1, ("x",))))
        )

    # -- combinators -----------------------------------------------------------

    def conj(self, preds: list[str]) -> str:
        """A predicate equivalent to the conjunction of unary ``preds``."""
        if not preds:
            return "Dom"
        if len(preds) == 1:
            return preds[0]
        acc = preds[0]
        for nxt in preds[1:]:
            combined = self.fresh("and")
            self.form3(combined, acc, nxt)
            acc = combined
        return acc

    def _memoized(self, key: tuple, build) -> str:
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def right_sibling_closure(self, q: str) -> str:
        """R with R(x) iff some x' in NextSibling*(x, x') satisfies q."""

        def build() -> str:
            r = self.fresh("rsib")
            self.form1(r, q)
            self.form2(r, r, Axis.NEXT_SIBLING.value + INVERSE_SUFFIX)
            return r

        return self._memoized(("rsib", q), build)

    def left_sibling_closure(self, q: str) -> str:
        """L with L(x) iff some x' with NextSibling*(x', x) satisfies q."""

        def build() -> str:
            left = self.fresh("lsib")
            self.form1(left, q)
            self.form2(left, left, Axis.NEXT_SIBLING.value)
            return left

        return self._memoized(("lsib", q), build)

    def parent_has(self, q: str) -> str:
        """T with T(x) iff x has a parent and q(parent(x))."""

        def build() -> str:
            t = self.fresh("par")
            self.form2(t, q, Axis.FIRST_CHILD.value)
            self.form2(t, t, Axis.NEXT_SIBLING.value)
            return t

        return self._memoized(("par", q), build)

    def subtree_closure(self, q: str) -> str:
        """U with U(x) iff some descendant-or-self of x satisfies q."""

        def build() -> str:
            u = self.fresh("sub")
            self.form1(u, q)
            s = self.right_sibling_closure(u)
            self.form2(u, s, Axis.FIRST_CHILD.value + INVERSE_SUFFIX)
            return u

        return self._memoized(("sub", q), build)

    def ancestor_or_self_closure(self, q: str) -> tuple[str, str]:
        """(A, Apar): A(x) iff some ancestor-or-self of x satisfies q;
        Apar(x) iff some *proper* ancestor of x satisfies q."""

        def build() -> str:
            a = self.fresh("anc")
            self.form1(a, q)
            apar = self.parent_has(a)
            self.form1(a, apar)
            self._memo[("ancpar", q)] = apar
            return a

        a = self._memoized(("anc", q), build)
        return a, self._memo[("ancpar", q)]

    def broadcast(self, q: str) -> str:
        """D with D(x) for *every* x iff some node anywhere satisfies q."""

        def build() -> str:
            u = self.subtree_closure(q)
            at_root = self.fresh("exists")
            self.form3(at_root, u, "Root")
            down = self.fresh("bcast")
            self.form1(down, at_root)
            self.form2(down, down, Axis.FIRST_CHILD.value)
            self.form2(down, down, Axis.NEXT_SIBLING.value)
            return down

        return self._memoized(("bcast", q), build)

    def connect(self, q: str, axis: Axis) -> str:
        """c with c(y) iff ∃z: axis(y, z) and q(z) — the axis-elimination
        core.  Only τ⁺ binaries appear in the emitted rules."""
        key = ("connect", q, axis)

        def build() -> str:
            c = self.fresh(f"via_{axis.name.lower()}")
            if axis is Axis.SELF:
                self.form1(c, q)
            elif axis is Axis.FIRST_CHILD:
                self.form2(c, q, Axis.FIRST_CHILD.value + INVERSE_SUFFIX)
            elif axis is Axis.FIRST_CHILD_INV:
                self.form2(c, q, Axis.FIRST_CHILD.value)
            elif axis is Axis.NEXT_SIBLING:
                self.form2(c, q, Axis.NEXT_SIBLING.value + INVERSE_SUFFIX)
            elif axis is Axis.PREV_SIBLING:
                self.form2(c, q, Axis.NEXT_SIBLING.value)
            elif axis is Axis.CHILD:
                s = self.right_sibling_closure(q)
                self.form2(c, s, Axis.FIRST_CHILD.value + INVERSE_SUFFIX)
            elif axis is Axis.PARENT:
                t = self.parent_has(q)
                self.form1(c, t)
            elif axis is Axis.NEXT_SIBLING_PLUS:
                r = self.right_sibling_closure(q)
                self.form2(c, r, Axis.NEXT_SIBLING.value + INVERSE_SUFFIX)
            elif axis is Axis.PRECEDING_SIBLING:
                left = self.left_sibling_closure(q)
                self.form2(c, left, Axis.NEXT_SIBLING.value)
            elif axis is Axis.NEXT_SIBLING_STAR:
                r = self.right_sibling_closure(q)
                self.form1(c, r)
            elif axis is Axis.PREV_SIBLING_STAR:
                left = self.left_sibling_closure(q)
                self.form1(c, left)
            elif axis is Axis.CHILD_PLUS:
                u = self.subtree_closure(q)
                s = self.right_sibling_closure(u)
                self.form2(c, s, Axis.FIRST_CHILD.value + INVERSE_SUFFIX)
            elif axis is Axis.CHILD_STAR:
                u = self.subtree_closure(q)
                self.form1(c, u)
            elif axis is Axis.ANCESTOR:
                _a, apar = self.ancestor_or_self_closure(q)
                self.form1(c, apar)
            elif axis is Axis.ANCESTOR_OR_SELF:
                a, _apar = self.ancestor_or_self_closure(q)
                self.form1(c, a)
            elif axis is Axis.FOLLOWING:
                u = self.subtree_closure(q)
                ru = self.right_sibling_closure(u)
                w = self.fresh("folw")
                self.form2(w, ru, Axis.NEXT_SIBLING.value + INVERSE_SUFFIX)
                aw, _ = self.ancestor_or_self_closure(w)
                self.form1(c, aw)
            elif axis is Axis.PRECEDING:
                u = self.subtree_closure(q)
                lu = self.left_sibling_closure(u)
                w = self.fresh("prec")
                self.form2(w, lu, Axis.NEXT_SIBLING.value)
                aw, _ = self.ancestor_or_self_closure(w)
                self.form1(c, aw)
            else:  # pragma: no cover - exhaustive over Axis
                raise QueryError(f"cannot eliminate axis {axis}")
            return c

        return self._memoized(key, build)


def _eliminate_constants(rule: Rule) -> Rule:
    """Replace constant arguments in body atoms by fresh variables guarded
    with Const:c singleton predicates (ground fact heads are left alone)."""
    if all(is_variable(t) for atom in rule.body for t in atom.args):
        return rule
    counter = itertools.count()
    new_body: list[Atom] = []
    for atom in rule.body:
        args: list[str | int] = []
        for t in atom.args:
            if is_variable(t):
                args.append(t)
            else:
                fresh = f"_c{next(counter)}"
                new_body.append(Atom(const(t), (fresh,)))
                args.append(fresh)
        new_body.append(Atom(atom.pred, tuple(args)))
    return Rule(rule.head, tuple(new_body))


def _translate_rule(rule: Rule, builder: _TmnfBuilder, out: Program) -> None:
    """Compile one monadic rule into TMNF rules appended to ``out``."""
    rule = _eliminate_constants(rule)
    head_var = rule.head.args[0]
    if not is_variable(head_var):
        if rule.body:
            raise QueryError(f"ground head with nonempty body unsupported: {rule}")
        out.rules.append(rule)  # ground fact, handled directly by grounding
        return

    # union-find over Self edges (R(x, y) with reflexive-only semantics)
    parent_of: dict[str, str] = {}

    def find(v: str) -> str:
        while parent_of.get(v, v) != v:
            parent_of[v] = parent_of.get(parent_of[v], parent_of[v])
            v = parent_of[v]
        return v

    def union(u: str, v: str) -> None:
        parent_of[find(u)] = find(v)

    unary_atoms: list[tuple[str, str]] = []  # (var, pred)
    edges: list[tuple[str, str, Axis]] = []  # (src, dst, axis) meaning axis(src, dst)
    for atom in rule.body:
        if atom.arity == 1:
            unary_atoms.append((atom.args[0], atom.pred))
            continue
        axis = resolve_axis(atom.pred)
        u_var, v_var = atom.args  # type: ignore[misc]
        if axis is Axis.SELF:
            union(u_var, v_var)
            continue
        if u_var == v_var:
            if axis in REFLEXIVE:
                continue  # trivially true
            return  # irreflexive self-loop: rule can never fire
        edges.append((u_var, v_var, axis))

    # Apply Self-merging.
    unary_by_var: dict[str, list[str]] = {}
    for v_name, pred in unary_atoms:
        unary_by_var.setdefault(find(v_name), []).append(pred)
    merged_edges: list[tuple[str, str, Axis]] = []
    adjacency: dict[str, list[tuple[str, Axis, bool]]] = {}
    seen_pairs: set[frozenset[str]] = set()
    for u_var, v_var, axis in edges:
        u_var, v_var = find(u_var), find(v_var)
        if u_var == v_var:
            if axis in REFLEXIVE:
                continue
            return
        pair = frozenset((u_var, v_var))
        if pair in seen_pairs:
            raise QueryError(
                f"rule body is not tree-shaped (parallel edges between "
                f"{u_var} and {v_var}): {rule}"
            )
        seen_pairs.add(pair)
        merged_edges.append((u_var, v_var, axis))
        adjacency.setdefault(u_var, []).append((v_var, axis, True))
        adjacency.setdefault(v_var, []).append((u_var, axis, False))
    head_root = find(head_var)
    all_vars = set(unary_by_var) | set(adjacency) | {head_root}

    # Check acyclicity: edges == vars - components.
    components: list[set[str]] = []
    unvisited = set(all_vars)
    while unvisited:
        start = next(iter(unvisited))
        component = {start}
        frontier = [start]
        while frontier:
            v_name = frontier.pop()
            for w_name, _axis, _fwd in adjacency.get(v_name, ()):
                if w_name not in component:
                    component.add(w_name)
                    frontier.append(w_name)
        unvisited -= component
        components.append(component)
    if len(merged_edges) != len(all_vars) - len(components):
        raise QueryError(f"rule body is cyclic; TMNF translation needs a forest: {rule}")

    def compile_rooted(root: str, component: set[str]) -> str:
        """Bottom-up marking: predicate q with q(v) iff v can be the image
        of ``root`` in a satisfying assignment of the component."""
        q_of: dict[str, str] = {}
        # iterative post-order over the component tree
        order: list[tuple[str, str | None]] = []
        stack: list[tuple[str, str | None]] = [(root, None)]
        while stack:
            v_name, parent_name = stack.pop()
            order.append((v_name, parent_name))
            for w_name, _axis, _fwd in adjacency.get(v_name, ()):
                if w_name != parent_name:
                    stack.append((w_name, v_name))
        for v_name, parent_name in reversed(order):
            parts = list(unary_by_var.get(v_name, []))
            for w_name, axis, forward in adjacency.get(v_name, ()):
                if w_name == parent_name:
                    continue
                # need c(v) iff exists w: axis'(v, w) and q_w(w),
                # where axis'(v, w) == axis(v, w) if the atom was
                # axis(v, w), else axis(w, v) i.e. inverse_axis(axis)(v, w)
                effective = axis if forward else inverse_axis(axis)
                parts.append(builder.connect(q_of[w_name], effective))
            q_of[v_name] = builder.conj(parts)
        return q_of[root]

    guards: list[str] = []
    for component in components:
        if head_root in component:
            q_head = compile_rooted(head_root, component)
        else:
            local_root = next(iter(component))
            q_local = compile_rooted(local_root, component)
            guards.append(builder.broadcast(q_local))
    final = builder.conj([q_head] + guards)
    out.rules.append(Rule(rule.head, (Atom(final, (head_var,)),)))


def to_tmnf(program: Program) -> Program:
    """Translate a monadic datalog program into an equivalent TMNF program
    over τ⁺ (Definition 3.4).  Output size is O(|P|); see module docs for
    the (paper-matching) tree-shaped-body restriction."""
    program = program.canonicalized().validate()
    out = Program(query_pred=program.query_pred)
    builder = _TmnfBuilder(out)
    idb = program.intensional_preds()
    for rule in program.rules:
        if rule.body and is_tmnf_rule(rule, idb):
            out.rules.append(rule)
        else:
            _translate_rule(rule, builder, out)
    # A predicate whose every rule was dropped (unsatisfiable bodies)
    # must stay defined: give it a vacuous self-rule (empty extension).
    out_idb = out.intensional_preds()
    for pred in idb - out_idb:
        out.rules.append(Rule(Atom(pred, ("x",)), (Atom(pred, ("x",)),)))
    return out
