"""The token-by-token expression evaluator from before expressions were
folded into flat term keys, kept as an oracle.

Everything between the markers below is the library's code from before,
copied verbatim (only ``parse_expression`` is renamed ``oracle_parse``):
each factor is a generator element, a term is their product with ``*``,
then ``scale``, unary minus and ``AlgebraElement.sum``.  The tests at the
end compare the library with it on seeded expressions over five graphs in
Q, GF(7) and GF(101), and on seeded malformed strings: the states
``(_den, _flat)`` must be equal, or both must raise the same error type
with the same message.
"""

from __future__ import annotations

import random
import re
import sys
from dataclasses import dataclass

import pytest

from leavitt import OMEGA, AlgebraContext, AlgebraElement, Edge, Graph, PrimeField, RATIONALS
from leavitt.errors import ExpressionError, NotSupportedError, UnknownEdgeError
from leavitt.expressions import parse_expression
from leavitt.fixtures import g_loop_chain, g_rose2, g_toeplitz
from leavitt.graph import bundle_addresses

# --- verbatim copy of the old library code ----------------------------------

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


def oracle_parse(src: str, ctx: AlgebraContext) -> AlgebraElement:
    """Parse and evaluate an algebra expression over the given context."""
    tokens = _tokenize(src)
    if not tokens:
        raise ExpressionError("empty expression")
    return _Parser(tokens, ctx).element()


# --- end of the verbatim copy -----------------------------------------------


FIELDS = (RATIONALS, PrimeField(7), PrimeField(101))
GRAPHS = {
    "toeplitz": g_toeplitz(),
    "rose2": g_rose2(),
    "loop_chain3": g_loop_chain(3),
    "multi": Graph(["u", "w"], [Edge("b", "u", "w", 3), Edge("c", "u", "u"), Edge("f", "w", "u", 2)]),
    # the graph of the symbolic workload's sv module: an infinite bundle u -> w
    "omega": Graph(
        ["u", "w", "y", "z"],
        [Edge("a", "y", "z"), Edge("b", "u", "w", OMEGA), Edge("c", "z", "z"), Edge("d", "z", "u")],
    ),
}
SCALARS = ("", "", "2 ", "3/2 ", "5 ", "1/3 ", "7 ", "0 ", "14/21 ", "101 ")


def _outcome(parse, text: str, ctx: AlgebraContext):
    """The state of the parsed element, or the type and message of the error."""
    try:
        x = parse(text, ctx)
    except Exception as exc:  # the oracle's errors are compared, whatever they are
        return type(exc), str(exc)
    return x._den, x._flat


def _addresses(g: Graph, edge) -> list[str]:
    # the first four edges of an infinite bundle stand for all of them
    return list(bundle_addresses(g, edge.id, limit=4))


def _walk(rng: random.Random, g: Graph) -> list[str]:
    """The factors of a nonzero word: a forward walk p, then ghosts of a
    backward walk q from its range, with a vertex now and then."""
    at = rng.choice(g.vertices)
    factors = [at] if rng.random() < 0.3 else []
    for _ in range(rng.randint(0, 4)):
        outs = [a for e in g.out_bundles(at) for a in _addresses(g, e)]
        if not outs:
            break
        a = rng.choice(outs)
        factors.append(a)
        at = g.dst_of(a)
        if rng.random() < 0.15:
            factors.append(at + rng.choice(("", "*")))
    for _ in range(rng.randint(0, 4)):
        ins = [a for e in g.in_bundles(at) for a in _addresses(g, e)]
        if not ins:
            break
        a = rng.choice(ins)
        factors.append(a + "*")
        at = g.src_of(a)
    return factors or [at]


def _word(rng: random.Random, g: Graph) -> list[str]:
    """Any word of 1-6 generators, mostly zero."""
    names = list(g.vertices) + [a for e in g.edges for a in _addresses(g, e)]
    return [rng.choice(names) + rng.choice(("", "*")) for _ in range(rng.randint(1, 6))]


def _expression(rng: random.Random, g: Graph) -> str:
    text = ""
    for k in range(rng.randint(1, 5)):
        factors = _walk(rng, g) if rng.random() < 0.7 else _word(rng, g)
        text += ("" if k == 0 else rng.choice((" + ", " - ", "+", "-"))) + rng.choice(SCALARS) + ".".join(factors)
    return text


# pieces of malformed text: stray operators, bad characters, unknown names,
# bundles without an index or with a wrong one, zero and unreadable scalars
_PIECES = (
    "c", "c*", "v1", "u", "b[1]", "b[1]*", "e", ".", "+", "-", "*", "/", " ", "\t", "2", "0", "3/", "1/7 ", "2/0 ",
    "(", ")", "$", "é", "\u0663", "unknown", "b", "b[03]", "b[9]", "c[0]", "x'", "..", "**", "5 5",
)


def _malformed(rng: random.Random, g: Graph) -> str:
    if rng.random() < 0.5:
        return "".join(rng.choice(_PIECES) for _ in range(rng.randint(0, 7)))
    # a well-formed expression with one piece put in somewhere
    text = _expression(rng, g)
    at = rng.randint(0, len(text))
    return text[:at] + rng.choice(_PIECES) + text[at:]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("name", list(GRAPHS))
def test_parse_matches_the_token_by_token_evaluator(name, field):
    g = GRAPHS[name]
    ctx = AlgebraContext(g, field)
    rng = random.Random(f"parse:{name}:{field!r}")
    nonzero = 0
    for _ in range(300):
        text = _expression(rng, g)
        want = _outcome(oracle_parse, text, ctx)
        assert _outcome(parse_expression, text, ctx) == want, text
        nonzero += isinstance(want[1], dict) and bool(want[1])
    # the walks make most expressions nonzero, so the states are compared
    assert nonzero > 150


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("name", ["toeplitz", "multi", "omega"])
def test_malformed_text_raises_what_the_token_by_token_evaluator_raises(name, field):
    g = GRAPHS[name]
    ctx = AlgebraContext(g, field)
    rng = random.Random(f"malformed:{name}:{field!r}")
    kinds = set()
    for _ in range(400):
        text = _malformed(rng, g)
        want = _outcome(oracle_parse, text, ctx)
        assert _outcome(parse_expression, text, ctx) == want, repr(text)
        kinds.add(want[0] if isinstance(want[0], type) else "element")
    assert {"element", ExpressionError} <= kinds
    if field == PrimeField(7):
        # "1/7 " has no value in GF(7)
        assert NotSupportedError in kinds


def test_errors_keep_their_order_after_a_zero_term():
    ctx = AlgebraContext(g_toeplitz(), PrimeField(7))
    for text in (
        "e.c.unknown",  # zero after e.c, then an unknown name
        "e.c.b[0]",
        "1/7 c.unknown",  # the scalar has no value in GF(7) before the name is read
        "e.c + 1/7 v1",
        "e.c.c + $",  # a bad character is found before anything is evaluated
        "e*.c..c",
        "e.e 3",
    ):
        want = _outcome(oracle_parse, text, ctx)
        assert isinstance(want[0], type), text
        assert _outcome(parse_expression, text, ctx) == want, text
    # too many digits for int(): where the oracle lets ValueError escape,
    # the parser raises ExpressionError, still before it reads the name
    limit = sys.get_int_max_str_digits()
    if limit:
        text = "9" * (limit + 700) + " unknown"
        assert _outcome(oracle_parse, text, ctx)[0] is ValueError
        want = (ExpressionError, f"the integer at position 0 has more than {limit} digits")
        assert _outcome(parse_expression, text, ctx) == want


def test_a_term_of_many_factors_calls_no_product(monkeypatch):
    ctx = AlgebraContext(g_toeplitz())
    text = "3/2 " + ".".join(["v1"] + ["c"] * 40 + ["e", "v2", "e*"] + ["c*"] * 40 + ["v1"]) + " - c.c*"
    want = oracle_parse(text, ctx)

    def no_product(self, other):
        raise AssertionError("the parser multiplied two elements")

    monkeypatch.setattr(AlgebraElement, "__mul__", no_product)
    got = parse_expression(text, ctx)
    assert (got._den, got._flat) == (want._den, want._flat)
    assert not got.is_zero
