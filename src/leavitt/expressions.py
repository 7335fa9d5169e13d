"""Recursive-descent parser for algebra expressions.

Grammar:

    element := term (('+'|'-') term)*
    term    := scalar? factor ('.' factor)*
    factor  := IDENT '*'?
    scalar  := INT ('/' INT)?

IDENT is a vertex id, an edge id, or a bundle address like ``b[3]``; the
postfix ``*`` is the ghost involution (a vertex is its own ghost).  A product
whose chain condition fails is simply zero, not an error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .algebra import AlgebraContext, AlgebraElement
from .errors import ExpressionError, UnknownEdgeError

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_']*(?:\[\d+\])?)"
    r"|(?P<op>[+\-./*]))"
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if not m or m.end() == pos:
            if src[pos:].strip():
                raise ExpressionError(f"unexpected character {src[pos:].strip()[0]!r} at {pos}")
            break
        if m.group("int"):
            tokens.append(_Token("int", m.group("int"), m.start("int")))
        elif m.group("ident"):
            tokens.append(_Token("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(_Token(m.group("op"), m.group("op"), m.start("op")))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], ctx: AlgebraContext):
        self.tokens = tokens
        self.i = 0
        self.ctx = ctx

    def peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self, kind: str | None = None) -> _Token:
        t = self.peek()
        if t is None:
            raise ExpressionError("unexpected end of expression")
        if kind is not None and t.kind != kind:
            raise ExpressionError(f"expected {kind} at position {t.pos}, found {t.text!r}")
        self.i += 1
        return t

    def element(self) -> AlgebraElement:
        terms = [self.term()]
        while (t := self.peek()) is not None and t.kind in "+-":
            self.take()
            rhs = self.term()
            terms.append(rhs if t.kind == "+" else -rhs)
        if self.peek() is not None:
            t = self.peek()
            raise ExpressionError(f"trailing input at position {t.pos}: {t.text!r}")
        return AlgebraElement.sum(terms)

    def term(self) -> AlgebraElement:
        coeff = None
        if (t := self.peek()) is not None and t.kind == "int":
            coeff = self.scalar()
        value = self.factor()
        while (t := self.peek()) is not None and t.kind == ".":
            self.take()
            value = value * self.factor()
        if coeff is not None:
            value = value.scale(coeff)
        return value

    def scalar(self):
        num = int(self.take("int").text)
        if (t := self.peek()) is not None and t.kind == "/":
            self.take()
            den = int(self.take("int").text)
            if den == 0:
                raise ExpressionError("zero denominator")
            return self.ctx.field.coerce(f"{num}/{den}")
        return self.ctx.field.coerce(num)

    def factor(self) -> AlgebraElement:
        name = self.take("ident").text
        ghost = False
        if (t := self.peek()) is not None and t.kind == "*":
            self.take()
            ghost = True
        if self.ctx.graph.has_vertex(name):
            return self.ctx.vertex(name)
        try:
            return self.ctx.ghost(name) if ghost else self.ctx.edge(name)
        except UnknownEdgeError:
            raise ExpressionError(f"unknown identifier {name!r}") from None


def parse_expression(src: str, ctx: AlgebraContext) -> AlgebraElement:
    """Parse and evaluate an algebra expression over the given context."""
    tokens = _tokenize(src)
    if not tokens:
        raise ExpressionError("empty expression")
    return _Parser(tokens, ctx).element()
