"""Recursive-descent parser for algebra expressions.

Grammar:

    element := term (('+'|'-') term)*
    term    := scalar? factor ('.' factor)*
    factor  := IDENT '*'?
    scalar  := INT ('/' INT)?

IDENT is a vertex id, an edge id, or a bundle address like ``b[3]``; the
postfix ``*`` is the ghost involution (a vertex is its own ghost).  A product
whose chain condition fails is simply zero, not an error.

A word of generators is one monomial p q* or zero, using only e* e = r(e)
and e* f = 0, so the parser makes one pass over the tokens and folds the
factors of each term into one flat key (p.base, p.edges, q.base, q.edges).
A term that has become zero still resolves its remaining factors, so the
errors come in the order of the text.  The signed, scaled keys of the whole
expression are then rewritten to normal form in one pass and reduced once.
"""

from __future__ import annotations

import re
import sys

from .algebra import AlgebraContext, AlgebraElement, _from_terms, _require_context
from .errors import ExpressionError, UnknownEdgeError

# a character that starts no token ends a match with no token, so the
# matches of ``findall`` cover the text up to trailing whitespace
_TOKEN_RE = re.compile(
    r"(\s*)(?:(\d+)|([A-Za-z_][A-Za-z0-9_']*(?:\[\d+\])?)|([+\-./*])|(?=\S))"
)

# the token after the last one
_END = ("end", "", -1)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    """(kind, text, pos) per token; the kind is "int", "ident" or the
    operator character itself."""
    tokens = []
    pos = 0
    for space, num, ident, op in _TOKEN_RE.findall(src):
        text = num or ident or op
        if not text:
            raise ExpressionError(f"unexpected character {src[pos + len(space)]!r} at {pos}")
        pos += len(space)
        tokens.append(("int" if num else "ident" if ident else op, text, pos))
        pos += len(text)
    return tokens


def _take(token: tuple[str, str, int], kind: str) -> str:
    """The text of ``token``, which must be of the given kind."""
    if token[0] != kind:
        if token is _END:
            raise ExpressionError("unexpected end of expression")
        raise ExpressionError(f"expected {kind} at position {token[2]}, found {token[1]!r}")
    return token[1]


def _int(token: tuple[str, str, int]) -> int:
    """The value of ``token``, which must be an integer."""
    try:
        return int(_take(token, "int"))
    except ValueError:  # int() converts at most sys.get_int_max_str_digits() digits
        limit = sys.get_int_max_str_digits()
        raise ExpressionError(f"the integer at position {token[2]} has more than {limit} digits") from None


def _generator(ctx: AlgebraContext, name: str, ghost: bool) -> tuple:
    """The flat key of the vertex, the edge or (``ghost``) the ghost edge
    named ``name``; a vertex is its own ghost."""
    if ctx.graph.has_vertex(name):
        return (name, (), name, ())
    try:
        e = ctx.graph.resolve(name)
    except UnknownEdgeError:
        raise ExpressionError(f"unknown identifier {name!r}") from None
    return (e.dst, (), e.src, (name,)) if ghost else (e.src, (name,), e.dst, ())


def _term(ctx: AlgebraContext, tokens: list, i: int) -> tuple[tuple | None, int]:
    """The flat key of the product of the factors from ``tokens[i]`` on
    (None for zero), and the index of the token after them.

    (p q*) times a generator g h* (a vertex, an edge or a ghost edge, so g
    or h is a vertex) is nonzero only when q and g start at the same vertex
    and one is a prefix of the other: the generator case of the contraction
    in ``algebra._product``.
    """
    key = None  # before the first factor; () once the product is zero
    while True:
        name = _take(tokens[i], "ident")
        ghost = tokens[i + 1][0] == "*"
        i += 2 if ghost else 1
        gb, ge, hb, he = gen = _generator(ctx, name, ghost)
        if key is None:
            key = gen
        elif key:
            pb, pe, qb, qe = key
            if qb != gb:
                key = ()
            elif not ge:
                key = (pb, pe, hb, he + qe)
            elif not qe:
                key = (pb, pe + ge, hb, ())
            elif qe[0] == ge[0]:
                key = (pb, pe, hb, qe[1:])
            else:
                key = ()
        if tokens[i][0] != ".":
            return key or None, i
        i += 1


def parse_expression(src: str, ctx: AlgebraContext) -> AlgebraElement:
    """Parse and evaluate an algebra expression over the given context."""
    if not isinstance(src, str):
        raise ExpressionError(f"an expression is a string, not {src!r}")
    tokens = _tokenize(src)
    if not tokens:
        raise ExpressionError("empty expression")
    tokens.append(_END)
    field = _require_context(ctx).field
    keys = []
    scalars = []
    negative = False
    i = 0
    while True:
        scalar = field.one
        if tokens[i][0] == "int":
            num = _int(tokens[i])
            i += 1
            if tokens[i][0] == "/":
                den = _int(tokens[i + 1])
                i += 2
                if den == 0:
                    raise ExpressionError("zero denominator")
                scalar = field.coerce(f"{num}/{den}")
            else:
                scalar = field.coerce(num)
        key, i = _term(ctx, tokens, i)
        if key is not None:
            keys.append(key)
            scalars.append(field.neg(scalar) if negative else scalar)
        kind, text, pos = tokens[i]
        if kind == "end":
            return _from_terms(ctx, keys, scalars)
        if kind != "+" and kind != "-":
            raise ExpressionError(f"trailing input at position {pos}: {text!r}")
        negative = kind == "-"
        i += 1
