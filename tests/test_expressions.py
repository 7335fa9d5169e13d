"""Expression grammar: tokenizing, precedence, evaluation semantics."""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from leavitt import (
    AlgebraContext,
    ExpressionError,
    PrimeField,
    parse_expression,
)
from leavitt.fixtures import g_clock_omega, g_line, g_loop, g_toeplitz


def test_ghost_against_real_contracts():
    ctx = AlgebraContext(g_loop())
    assert parse_expression("c*.c", ctx) == ctx.vertex("v")
    assert parse_expression("c.c*", ctx) == ctx.vertex("v")


def test_scalar_prefix():
    ctx = AlgebraContext(g_line(3))
    el = parse_expression("2/3 v1", ctx)
    assert el == ctx.vertex("v1").scale(Fraction(2, 3))


def test_chain_violation_is_zero_not_error():
    ctx = AlgebraContext(g_line(3))
    assert parse_expression("e1.e1", ctx).is_zero


def test_sums_differences_and_vertex_ghost():
    ctx = AlgebraContext(g_toeplitz())
    el = parse_expression("v1 - c.c* - e.e*", ctx)
    assert el.is_zero
    assert parse_expression("v1*", ctx) == ctx.vertex("v1")
    assert parse_expression("2 c + 3 c", ctx) == ctx.edge("c").scale(5)


def test_star_binds_tighter_than_dot():
    ctx = AlgebraContext(g_toeplitz())
    assert parse_expression("c*.c", ctx) == ctx.ghost("c") * ctx.edge("c")


def test_bundle_addresses():
    ctx = AlgebraContext(g_clock_omega())
    el = parse_expression("b[3].b[3]*", ctx)
    assert el == ctx.edge("b[3]") * ctx.ghost("b[3]")
    assert parse_expression("b[3]*.b[4]", ctx).is_zero


def test_gf_field_scalars():
    ctx = AlgebraContext(g_loop(), PrimeField(7))
    assert parse_expression("7 v", ctx).is_zero
    assert parse_expression("1/3 v", ctx) == ctx.vertex("v").scale(5)  # 3*5 = 15 = 1 mod 7


def test_parse_errors():
    ctx = AlgebraContext(g_loop())
    for bad in ("", "c +", "2/0 v", "c..c", "(c)", "unknown", "3/", "c v"):
        with pytest.raises(ExpressionError):
            parse_expression(bad, ctx)


def test_vertex_factors_cost_no_scan_of_the_vertices():
    # each factor looks its name up in a dict and each product compares
    # contexts by identity first: a scan of the 20000 vertices per factor
    # and a comparison of the graphs per product took about 0.6 s
    g = g_line(20000)
    ctx = AlgebraContext(g)
    last = g.vertices[-1]
    start = time.perf_counter()
    x = parse_expression(".".join([last] * 500), ctx)
    assert time.perf_counter() - start < 0.25
    assert x == ctx.vertex(last)


def test_long_sum_parses_in_linear_time():
    # the terms are added into one map and reduced once: folding `+` copied
    # the accumulated map at every step, and 4000 terms took about 2.4 s
    g = g_line(4000)
    ctx = AlgebraContext(g)
    start = time.perf_counter()
    x = parse_expression(" + ".join(g.vertices), ctx)
    assert time.perf_counter() - start < 0.5
    assert x.terms == {m: 1 for v in g.vertices for m in ctx.vertex(v).terms}


@pytest.mark.parametrize("field", [None, PrimeField(7)])
def test_sum_equals_the_left_fold_of_its_terms(field):
    ctx = AlgebraContext(g_toeplitz()) if field is None else AlgebraContext(g_toeplitz(), field)
    # products that normalize at v1 (special edge c), so terms overlap and cancel
    factors = ["v1", "v2", "c", "e", "c*", "e*", "c.c*", "e.e*", "c.e", "e*.c*", "c.c.c*", "c.e.e*.c*"]
    rng = random.Random(20261018)
    for _ in range(300):
        terms = []
        for _ in range(rng.randint(1, 12)):
            scalar = rng.choice(["", "2 ", "1/2 ", "3/4 ", "5/3 ", "7 "])
            terms.append(scalar + rng.choice(factors))
        ops = [rng.choice("+-") for _ in terms[1:]]
        text = terms[0] + "".join(f" {op} {t}" for op, t in zip(ops, terms[1:]))
        parts = [parse_expression(t, ctx) for t in terms]
        fold = parts[0]
        for op, x in zip(ops, parts[1:]):
            fold = fold + x if op == "+" else fold - x
        # and without the element arithmetic: the scalars of the term maps
        expected: dict = {}
        for sign, x in zip([1] + [1 if op == "+" else -1 for op in ops], parts):
            for m, c in x.terms.items():
                expected[m] = ctx.field.coerce(expected.get(m, 0) + sign * c)
        got = parse_expression(text, ctx)
        assert got == fold, text
        assert dict(got.terms) == {m: c for m, c in expected.items() if c != ctx.field.zero}, text
