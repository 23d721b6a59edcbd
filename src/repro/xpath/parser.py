"""Concrete syntax for Core XPath.

Grammar (axis names as in the paper or their XPath aliases; ``^-1``
marks an inverse axis)::

    path      := union
    union     := sequence ( ("union" | "|") sequence )*
    sequence  := step ( "/" step )*
    step      := axisname [ "::" label ] ( "[" qual "]" )*
    axisname  := e.g. Child, Descendant, child, following-sibling,
                 Parent, Child^-1, Self, ...
    qual      := or_q
    or_q      := and_q ( "or" and_q )*
    and_q     := not_q ( "and" not_q )*
    not_q     := "not" "(" qual ")" | "(" qual ")" | "lab()" "=" label
               | path

``axis::L`` is sugar for ``axis[lab() = L]``.  Examples::

    Child/Descendant[lab() = a]
    descendant::section[child::title and not(following-sibling::section)]
"""

from __future__ import annotations

import re

from repro.errors import ParseError, UnsupportedAxisError
from repro.trees.axes import resolve_axis
from repro.xpath.ast import (
    AndQual,
    AxisStep,
    LabelTest,
    NotQual,
    OrQual,
    Path,
    PathQualifier,
    PositionTest,
    UnionExpr,
    XPathExpr,
    Qualifier,
)

__all__ = ["parse_xpath"]

_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<dslash>//)"
    r"|(?P<punct>::|!=|<=|>=|[\[\]()/|=<>])"
    # '=' inside a name supports attribute labels like @class=product;
    # the '=' after lab() still lexes as punctuation because the punct
    # alternative is tried first at its position
    r"|(?P<name>[\w@.\-^+*][\w@.\-^+*=]*(?:\(\))?)"
    r")"
)

_KEYWORDS = {"and", "or", "not", "union", "lab()"}


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, int]] = []
        pos = 0
        while pos < len(text):
            match = _TOKEN.match(text, pos)
            if match is None or match.end() == pos:
                if text[pos:].strip():
                    raise ParseError(f"bad token in XPath", position=pos)
                break
            token = match.group("dslash") or match.group("punct") or match.group(
                "name"
            )
            self.items.append((token, match.start()))
            pos = match.end()
        self.i = 0

    def peek(self) -> str | None:
        return self.items[self.i][0] if self.i < len(self.items) else None

    def next(self) -> str:
        if self.i >= len(self.items):
            raise ParseError("unexpected end of XPath expression")
        token, _ = self.items[self.i]
        self.i += 1
        return token

    def expect(self, token: str) -> None:
        got = self.next()
        if got != token:
            raise ParseError(f"expected {token!r}, got {got!r}")


def parse_xpath(text: str) -> XPathExpr:
    """Parse a Core XPath expression."""
    tokens = _Tokens(text)
    expr = _parse_union(tokens)
    if tokens.peek() is not None:
        raise ParseError(f"trailing input after XPath: {tokens.peek()!r}")
    return expr


def _parse_union(tokens: _Tokens) -> XPathExpr:
    left = _parse_sequence(tokens)
    while tokens.peek() in ("union", "|"):
        tokens.next()
        right = _parse_sequence(tokens)
        left = UnionExpr(left, right)
    return left


def _parse_sequence(tokens: _Tokens) -> XPathExpr:
    # allow a leading '(' grouping a union
    left = _parse_step_or_group(tokens)
    while tokens.peek() in ("/", "//"):
        sep = tokens.next()
        if sep == "//":
            left = Path(left, AxisStep("Child*"))
        right = _parse_step_or_group(tokens)
        left = Path(left, right)
    return left


def _parse_step_or_group(tokens: _Tokens) -> XPathExpr:
    if tokens.peek() == "(":
        tokens.next()
        inner = _parse_union(tokens)
        tokens.expect(")")
        # (p)[q] filters the result nodes of p by q: push the qualifier
        # onto the last step(s), distributing over unions
        while tokens.peek() == "[":
            tokens.next()
            q = _parse_qualifier(tokens)
            tokens.expect("]")
            inner = _attach_qualifier(inner, q)
        return inner
    return _parse_step(tokens)


def _attach_qualifier(expr: XPathExpr, q: Qualifier) -> XPathExpr:
    """Filter the result nodes of ``expr`` by ``q``: attach to the final
    step, distributing over unions."""
    if isinstance(expr, AxisStep):
        return expr.with_qualifier(q)
    if isinstance(expr, Path):
        return Path(expr.left, _attach_qualifier(expr.right, q))
    return UnionExpr(
        _attach_qualifier(expr.left, q), _attach_qualifier(expr.right, q)
    )


def _parse_step(tokens: _Tokens) -> AxisStep:
    name = tokens.next()
    axis = _axis_of(name)
    step = AxisStep(axis)
    if tokens.peek() == "::":
        tokens.next()
        label = tokens.next()
        step = step.with_qualifier(LabelTest(label))
    while tokens.peek() == "[":
        tokens.next()
        q = _parse_qualifier(tokens)
        tokens.expect("]")
        step = step.with_qualifier(q)
    return step


def _axis_of(name: str):
    try:
        return resolve_axis(name)
    except UnsupportedAxisError:
        raise ParseError(f"unknown axis {name!r}") from None


def _parse_qualifier(tokens: _Tokens) -> Qualifier:
    return _parse_or(tokens)


def _parse_or(tokens: _Tokens) -> Qualifier:
    left = _parse_and(tokens)
    while tokens.peek() == "or":
        tokens.next()
        left = OrQual(left, _parse_and(tokens))
    return left


def _parse_and(tokens: _Tokens) -> Qualifier:
    left = _parse_not(tokens)
    while tokens.peek() == "and":
        tokens.next()
        left = AndQual(left, _parse_not(tokens))
    return left


def _parse_not(tokens: _Tokens) -> Qualifier:
    token = tokens.peek()
    if token == "not":
        tokens.next()
        tokens.expect("(")
        inner = _parse_qualifier(tokens)
        tokens.expect(")")
        return NotQual(inner)
    if token == "(":
        tokens.next()
        inner = _parse_qualifier(tokens)
        tokens.expect(")")
        return inner
    if token == "lab()":
        tokens.next()
        tokens.expect("=")
        label = tokens.next()
        return LabelTest(label)
    if token == "position()":
        tokens.next()
        op = tokens.next()
        if op not in ("=", "!=", "<", "<=", ">", ">="):
            raise ParseError(f"bad comparison operator {op!r} after position()")
        return PositionTest(op, _parse_position_value(tokens.next()))
    if token == "last()":
        tokens.next()
        return PositionTest("=", "last")
    if token is not None and token.isdigit():
        tokens.next()
        return PositionTest("=", int(token))  # the [k] shorthand
    # otherwise: a path qualifier
    path = _parse_union(tokens)
    return PathQualifier(path)


def _parse_position_value(token: str) -> "int | str":
    if token == "last()":
        return "last"
    if token.isdigit():
        return int(token)
    raise ParseError(f"expected an integer or last() after position(), got {token!r}")
