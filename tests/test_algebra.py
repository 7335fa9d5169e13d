"""Symbolic algebra: contraction, normal form, basis, growth, gradings."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from leavitt import (
    AlgebraContext,
    ContextMismatchError,
    Monomial,
    Path,
    PrimeField,
    RATIONALS,
    Rationals,
    ResourceCapError,
    degree_components,
    element_from_obj,
    enumerate_basis,
    growth_profile,
    is_normal,
    make_path,
    multiply,
    normalize_monomial,
    path_range,
)
from leavitt.fixtures import (
    g_clock,
    g_clock_omega,
    g_line,
    g_loop,
    g_mixed,
    g_rose2,
    g_toeplitz,
)


def _random_path(ctx, rng, max_len=3):
    g = ctx.graph
    v = rng.choice(g.vertices)
    edges = []
    for _ in range(rng.randint(0, max_len)):
        outs = g.concrete_out(v)
        if not outs:
            break
        addr = rng.choice(outs)
        edges.append(addr)
        v = g.dst_of(addr)
    return make_path(g, edges, None) if edges else Path(v)


def _random_monomial_element(ctx, rng, max_len=3):
    p = _random_path(ctx, rng, max_len)
    g = ctx.graph
    # build q with the same range by walking backwards is awkward; retry instead
    for _ in range(200):
        q = _random_path(ctx, rng, max_len)
        if path_range(g, q) == path_range(g, p):
            return ctx.monomial(p, q, rng.randint(1, 5))
    return ctx.vertex(path_range(g, p))


def test_ck_identities_loop():
    ctx = AlgebraContext(g_loop())
    assert ctx.ghost("c") * ctx.edge("c") == ctx.vertex("v")
    assert ctx.edge("c") * ctx.ghost("c") == ctx.vertex("v")


def test_ck_orthogonality_clock():
    ctx = AlgebraContext(g_clock(3))
    assert (ctx.ghost("f1") * ctx.edge("f2")).is_zero


def test_line3_contraction_normalizes():
    ctx = AlgebraContext(g_line(3))
    e1, e2 = ctx.edge("e1"), ctx.edge("e2")
    e1s, e2s = ctx.ghost("e1"), ctx.ghost("e2")
    assert (e1 * e1s) * (e1 * e2 * e2s * e1s) == ctx.vertex("v1")


def test_ck_identities_vanish_everywhere():
    for g in (g_line(3), g_toeplitz(), g_rose2(), g_clock(3)):
        ctx = AlgebraContext(g)
        for v in g.vertices:
            outs = g.concrete_out(v)
            for e in outs:
                for f in outs:
                    prod = ctx.ghost(e) * ctx.edge(f)
                    if e == f:
                        assert prod == ctx.vertex(g.dst_of(e))
                    else:
                        assert prod.is_zero
            if outs:
                total = ctx.vertex(v)
                for e in outs:
                    total = total - ctx.edge(e) * ctx.ghost(e)
                assert total.is_zero


def test_no_reduction_at_infinite_emitters():
    ctx = AlgebraContext(g_clock_omega())
    bb = ctx.edge("b[7]") * ctx.ghost("b[7]")
    assert not bb.is_zero
    assert bb != ctx.vertex("u")


def test_degree_components():
    ctx = AlgebraContext(g_loop())
    el = ctx.vertex("v") + ctx.edge("c") + ctx.ghost("c").scale(2)
    comps = el.degree_components()
    assert set(comps) == {-1, 0, 1}
    assert comps[0] == ctx.vertex("v")
    assert comps[1] == ctx.edge("c")
    assert comps[-1] == ctx.ghost("c").scale(2)
    assert sum(comps.values(), ctx.zero()) == el
    assert ctx.zero().degree_components() == {}
    sq = ctx.edge("c") * ctx.edge("c") * ctx.ghost("c") * ctx.ghost("c")
    assert list(sq.degree_components()) == [0]


def test_grading_multiplicative():
    rng = random.Random(21)
    ctx = AlgebraContext(g_toeplitz())
    for _ in range(100):
        a = _random_monomial_element(ctx, rng)
        b = _random_monomial_element(ctx, rng)
        for d1, ca in a.degree_components().items():
            for d2, cb in b.degree_components().items():
                prod = ca * cb
                assert set(prod.degree_components()) <= {d1 + d2}


def test_basis_line_graphs_match_matrix_dimension():
    # the full algebra of the line graph on n vertices is the n-by-n matrix
    # ring, so the independent oracle for the basis size is n * n
    for n in range(2, 6):
        basis = enumerate_basis(g_line(n), 2 * n)
        assert len(basis) == n * n


def test_basis_loop_and_single_vertex():
    names = {str(m) for m in enumerate_basis(g_loop(), 2)}
    assert names == {"v", "c", "c*", "c.c", "c*.c*"}
    single = enumerate_basis(g_line(1), 0)
    assert [str(m) for m in single] == ["v1"]


def test_basis_all_normal_and_cap():
    ctx = AlgebraContext(g_rose2())
    for m in enumerate_basis(ctx, 4):
        assert is_normal(ctx, m)
    with pytest.raises(ResourceCapError):
        enumerate_basis(g_rose2(), 10, max_basis=50)


def test_growth_profiles():
    assert growth_profile(g_loop(), 20) == [2 * n + 1 for n in range(21)]
    line = growth_profile(g_line(3), 8)
    assert line[2:] == [9] * 7
    rose = growth_profile(g_rose2(), 12)
    ratios = [rose[n] / rose[n - 1] for n in range(6, 13)]
    assert min(ratios) > 1.8  # no polynomial growth in the sampled range


def test_growth_matches_basis_count():
    for g in (g_loop(), g_line(4), g_toeplitz(), g_rose2()):
        dims = growth_profile(g, 6)
        for n in (0, 3, 6):
            assert dims[n] == len(enumerate_basis(g, n))


def test_growth_rejects_infinite_bundles():
    with pytest.raises(ResourceCapError):
        growth_profile(g_clock_omega(), 4)


def test_dim_independent_of_special_edge_choice():
    cases = [
        (g_toeplitz(), {"v1": "c"}, {"v1": "e"}),
        (g_rose2(), {"v": "g"}, {"v": "h"}),
    ]
    for g, c1, c2 in cases:
        d1 = growth_profile(AlgebraContext(g, special_edges=c1), 9)
        d2 = growth_profile(AlgebraContext(g, special_edges=c2), 9)
        assert d1 == d2


def test_normalization_schedule_independent():
    rng = random.Random(31)
    for g in (g_toeplitz(), g_rose2(), g_line(3)):
        ctx = AlgebraContext(g)
        for _ in range(120):
            p = _random_path(ctx, rng, 4)
            q = _random_path(ctx, rng, 4)
            if path_range(ctx.graph, p) != path_range(ctx.graph, q):
                continue
            a = normalize_monomial(ctx, p, q, 1, rng=random.Random(rng.randrange(10**6)))
            b = normalize_monomial(ctx, p, q, 1, rng=random.Random(rng.randrange(10**6)))
            c = normalize_monomial(ctx, p, q, 1)
            assert a == b == c


def test_associativity_random_triples():
    rng = random.Random(41)
    for g in (g_toeplitz(), g_rose2(), g_line(3)):
        ctx = AlgebraContext(g)
        for _ in range(300):
            a = _random_monomial_element(ctx, rng)
            b = _random_monomial_element(ctx, rng)
            c = _random_monomial_element(ctx, rng)
            assert (a * b) * c == a * (b * c)


def test_acyclic_and_no_exit_ideals_annihilate():
    # monomials landing at acyclic vertices kill monomials landing on a
    # cycle without exits
    g = g_mixed()
    ctx = AlgebraContext(g)
    acyclic_range = [m for m in enumerate_basis(ctx, 4) if path_range(g, m.p) in ("w",)]
    cycle_range = [m for m in enumerate_basis(ctx, 4) if path_range(g, m.p) in ("z",)]
    assert acyclic_range and cycle_range
    for ma in acyclic_range:
        a = ctx.monomial(ma.p, ma.q)
        for mb in cycle_range:
            b = ctx.monomial(mb.p, mb.q)
            assert (a * b).is_zero


def test_context_mismatch_raises():
    a = AlgebraContext(g_loop()).vertex("v")
    b = AlgebraContext(g_rose2()).vertex("v")
    with pytest.raises(ContextMismatchError):
        a * b
    with pytest.raises(ContextMismatchError):
        AlgebraContext(g_loop(), PrimeField(5)).vertex("v") + a


def test_prime_field_arithmetic():
    ctx = AlgebraContext(g_loop(), PrimeField(5))
    v = ctx.vertex("v")
    assert v.scale(5).is_zero
    assert v.scale(7) == v.scale(2)
    assert ctx.field.coerce("2/3") == ctx.field.mul(2, ctx.field.invert(3))
    with pytest.raises(Exception):
        PrimeField(6)


def test_a_rational_inverse_is_exact():
    for a in (2, -5, Fraction(2, 3)):
        inv = RATIONALS.invert(a)
        assert type(inv) is Fraction and inv * a == 1
    assert RATIONALS.invert(2) == Fraction(1, 2)


def test_equal_fields_and_contexts_hash_equal():
    assert Rationals() == RATIONALS and hash(Rationals()) == hash(RATIONALS)
    assert PrimeField(7) == PrimeField(7) and hash(PrimeField(7)) == hash(PrimeField(7))
    a, b = AlgebraContext(g_toeplitz()), AlgebraContext(g_toeplitz())
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b, AlgebraContext(g_toeplitz(), PrimeField(7))}) == 2


def test_an_element_with_a_non_element():
    ctx = AlgebraContext(g_loop())
    x = ctx.edge("c") + ctx.vertex("v")
    assert x.__eq__("c + v") is NotImplemented and x != "c + v"
    assert x * 2 == 2 * x == x.scale(2)
    assert repr(x * 2) == "<2 v + 2 c>"


def test_the_module_level_forms_of_product_and_grading():
    ctx = AlgebraContext(g_toeplitz())
    a, b = ctx.edge("c") + ctx.vertex("v1"), ctx.edge("c") + ctx.ghost("c")
    assert multiply(a, b) == a * b
    assert degree_components(a * b) == (a * b).degree_components()
    assert set(degree_components(a * b)) == {-1, 0, 1, 2}


def test_serialization_round_trip():
    ctx = AlgebraContext(g_toeplitz())
    el = ctx.vertex("v2").scale(Fraction(2, 3)) + ctx.edge("e") * ctx.ghost("e") - ctx.edge("c")
    obj = el.to_obj()
    assert element_from_obj(ctx, obj) == el
    assert all(set(item) <= {"p", "q", "coeff", "v"} for item in obj)
    vertex_terms = [item for item in obj if not item["p"] and not item["q"]]
    assert all("v" in item for item in vertex_terms)


def test_a_ghost_term_round_trips():
    ctx = AlgebraContext(g_toeplitz())
    x = ctx.ghost("c")
    obj = x.to_obj()
    assert obj == [{"p": [], "q": ["c"], "coeff": "1"}]
    assert element_from_obj(ctx, obj) == x


def test_monomial_printing_reparses():
    from leavitt import parse_expression

    ctx = AlgebraContext(g_toeplitz())
    el = ctx.edge("c") * ctx.edge("c") + ctx.vertex("v2").scale(3)
    assert parse_expression(str(el), ctx) == el
