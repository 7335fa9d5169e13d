"""Edge cases across modules: bundles, fields, addresses, omega handling."""

from __future__ import annotations

import random

import pytest

from leavitt import (
    AlgebraContext,
    Edge,
    Graph,
    NotSupportedError,
    OMEGA,
    PrimeField,
    SchemaError,
    UnknownEdgeError,
    bifurcation_data,
    decide_fp,
    decide_gk,
    element_from_obj,
    enumerate_basis,
    enumerate_cycles,
    growth_profile,
    laurent_index_cardinality,
    make_path,
    parse_expression,
    periodic_stream,
    quotient,
)
from leavitt.fixtures import add_edges, g_clock_omega, g_line, g_loop, g_toeplitz, random_graph


def test_parallel_loops_behave_like_a_rose():
    g = Graph(["v"], [Edge("b", "v", "v", 2)])
    verdict = decide_fp(g)
    assert verdict.codes() == ("GEQ_NOT_ANTISYMMETRIC",)
    assert not decide_gk(g).finite
    ctx = AlgebraContext(g)
    assert (ctx.ghost("b[0]") * ctx.edge("b[1]")).is_zero
    assert (ctx.vertex("v") - ctx.edge("b[0]") * ctx.ghost("b[0]")
            - ctx.edge("b[1]") * ctx.ghost("b[1]")).is_zero


def test_not_row_finite_short_circuits_cycle_enumeration():
    # an infinite bundle on a cycle would make cycle enumeration fail, but
    # the row-finiteness check comes first
    g = Graph(["u"], [Edge("b", "u", "u", OMEGA)])
    assert decide_fp(g).codes() == ("NOT_ROW_FINITE",)


def test_address_resolution():
    g = Graph(["a"], [Edge("b", "a", "a", 3), Edge("e", "a", "a")])
    assert g.resolve("b[2]").id == "b"
    with pytest.raises(UnknownEdgeError):
        g.resolve("b[3]")
    with pytest.raises(UnknownEdgeError):
        g.resolve("b")  # bundles need an index
    with pytest.raises(UnknownEdgeError):
        g.resolve("e[0]")  # plain edges do not
    with pytest.raises(UnknownEdgeError):
        g.resolve("zz")


def test_make_path_validation():
    g = g_line(3)
    with pytest.raises(NotSupportedError):
        make_path(g, ["e2", "e1"])  # broken chain
    with pytest.raises(NotSupportedError):
        make_path(g, [], base=None)
    with pytest.raises(NotSupportedError):
        make_path(g, ["e1"], base="v2")


def test_laurent_cardinality_omega_bundle_into_base():
    g = Graph(
        ["u", "v"],
        [Edge("b", "u", "v", OMEGA), Edge("c", "v", "v")],
    )
    (cycle,) = enumerate_cycles(g)
    assert laurent_index_cardinality(g, cycle) is OMEGA


def test_laurent_cardinality_parallel_entries_count_multiplicities():
    g = Graph(
        ["u", "v"],
        [Edge("b", "u", "v", 3), Edge("c", "v", "v")],
    )
    (cycle,) = enumerate_cycles(g)
    assert laurent_index_cardinality(g, cycle) == 4  # v itself plus b[0..2]


def test_gf2_relations_still_vanish():
    ctx = AlgebraContext(g_line(3), PrimeField(2))
    e1 = ctx.edge("e1")
    assert (ctx.vertex("v1") - e1 * ctx.ghost("e1")).is_zero
    assert (e1 + e1).is_zero
    assert parse_expression("v1 + v1", ctx).is_zero


def test_multiplication_is_bilinear():
    rng = random.Random(61)
    ctx = AlgebraContext(g_line(3))

    def rand_elem():
        total = ctx.zero()
        for _ in range(rng.randint(1, 3)):
            basis = enumerate_basis(ctx, 3)
            m = rng.choice(basis)
            total = total + ctx.monomial(m.p, m.q, rng.randint(-3, 3) or 1)
        return total

    for _ in range(50):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert (a + b) * c == a * c + b * c
        assert a * (b + c) == a * b + a * c


def test_quotient_of_omega_graph_by_empty_set():
    gw = g_clock_omega()
    assert quotient(gw, []) == gw


def test_growth_profile_zero_bound():
    assert growth_profile(g_loop(), 0) == [1]
    assert growth_profile(g_line(3), 0) == [3]


def test_basis_respects_multiplicities():
    g = Graph(["a", "b"], [Edge("e", "a", "b", 2)])
    # paths: a, b, e[0], e[1]; pairs at b: {b, e[0], e[1]}^2 minus the
    # special pair (e[0], e[0]); pair at a: (a, a)
    basis = enumerate_basis(g, 2)
    assert len(basis) == 1 + (9 - 1)


def test_random_growth_agrees_with_basis_count():
    rng = random.Random(71)
    checked = 0
    for _ in range(30):
        g = random_graph(rng, max_vertices=4, max_edges=5)
        try:
            dims = growth_profile(g, 4)
            basis = enumerate_basis(g, 4, max_basis=20000)
        except Exception:
            continue
        assert dims[4] == len(basis)
        checked += 1
    assert checked > 15


def test_malformed_outside_input_raises_leavitt_errors():
    ctx = AlgebraContext(g_toeplitz())
    term = {"p": ["c"], "q": [], "coeff": "2"}
    assert element_from_obj(ctx, [term]) == 2 * ctx.edge("c")
    for obj in (
        None,
        [5],
        [{"p": ["c"], "q": []}],
        [{"p": ["c"], "coeff": "1"}],
        [{"q": [], "coeff": "1"}],
        [{"p": [], "q": [], "coeff": "1"}],
        [{"p": [], "q": [], "coeff": "1", "v": ["v1"]}],
        [{"p": "c", "q": [], "coeff": "1"}],
        [{"p": [["c"]], "q": [], "coeff": "1"}],
    ):
        with pytest.raises(SchemaError):
            element_from_obj(ctx, obj)
    with pytest.raises(NotSupportedError, match="cannot coerce 'x' to a rational scalar"):
        element_from_obj(ctx, [dict(term, coeff="x")])
    for x in ("x", "1/0", "1/"):
        with pytest.raises(NotSupportedError, match="to a rational scalar"):
            ctx.scalar(x)
    kd = bifurcation_data(ctx, periodic_stream(ctx.graph, ["c"]), 3)
    assert kd.bifurcating_integers == (1, 2, 3)
    with pytest.raises(NotSupportedError, match="position 4 does not bifurcate"):
        kd.generators_at(4)
    with pytest.raises(NotSupportedError, match="position 0 does not bifurcate"):
        kd.mu_at(0)
