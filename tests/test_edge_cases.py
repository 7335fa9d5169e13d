"""Edge cases across modules: bundles, fields, addresses, omega handling."""

from __future__ import annotations

import inspect
import random
import sys
import typing
from fractions import Fraction

import pytest

from leavitt import (
    RATIONALS,
    AlgebraContext,
    AlgebraElement,
    Cycle,
    Edge,
    ExpressionError,
    Graph,
    LeavittError,
    NotSupportedError,
    OMEGA,
    Path,
    PrimeField,
    ResourceCapError,
    SchemaError,
    UnknownEdgeError,
    UnknownVertexError,
    bifurcation_data,
    canonical_cycle,
    chen_basis_element,
    corner_report,
    cycle_base,
    cycle_has_exit,
    cycle_poset,
    cycle_vertices,
    decide_fp,
    decide_gk,
    element_from_obj,
    enumerate_basis,
    enumerate_cycles,
    enumerate_hs_sets,
    generated_stream,
    graph_from_json,
    growth_profile,
    hedgehog,
    hereditary_closure,
    laurent_index_cardinality,
    make_path,
    normalize_monomial,
    parse_expression,
    periodic_stream,
    quotient,
    saturated_closure,
    stream_from_obj,
    subalgebra_graph,
)
from leavitt.fixtures import add_edges, g_clock_omega, g_line, g_loop, g_loop_chain, g_rose2, g_toeplitz, random_graph
from leavitt.graph import bundle_addresses, is_regular


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
    assert make_path(g, [], base="v2") == Path("v2", ())


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


def test_laurent_cardinality_refuses_a_cycle_that_is_not_closed():
    # e runs from v1 to v2, so the edge sequence (e,) is an open path
    g = g_toeplitz()
    with pytest.raises(NotSupportedError, match="edge sequence is not closed"):
        laurent_index_cardinality(g, Cycle(("e",)))
    assert laurent_index_cardinality(g, Cycle(("c",))) == 1


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


# wrongly typed arguments, each on the Toeplitz graph (loop c at v1, edge e
# from v1 to v2) and its algebra over Q
_WRONG_TYPES = {
    "make_path(g, [5])": lambda g, ctx: make_path(g, [5]),
    "subalgebra_graph(g, [5])": lambda g, ctx: subalgebra_graph(g, [5]),
    "ctx.edge(['c'])": lambda g, ctx: ctx.edge(["c"]),
    "corner_report(g, ['v1'])": lambda g, ctx: corner_report(g, ["v1"]),
    "growth_profile(ctx, 'x')": lambda g, ctx: growth_profile(ctx, "x"),
    "bifurcation_data(ctx, s, 'x')": lambda g, ctx: bifurcation_data(ctx, periodic_stream(g, ["c"]), "x"),
    "enumerate_hs_sets(g, 'x')": lambda g, ctx: enumerate_hs_sets(g, "x"),
    "PrimeField('7')": lambda g, ctx: PrimeField("7"),
    "quotient(g, None, [])": lambda g, ctx: quotient(g, None, []),
    "saturated_closure(g, 5)": lambda g, ctx: saturated_closure(g, 5),
    "graph_from_json(5)": lambda g, ctx: graph_from_json(5),
    "make_path(g, 'ce')": lambda g, ctx: make_path(g, "ce"),
    "ctx.path_element('ce')": lambda g, ctx: ctx.path_element("ce"),
    "hereditary_closure(g, 5)": lambda g, ctx: hereditary_closure(g, 5),
    "subalgebra_graph(g, ['c', 5])": lambda g, ctx: subalgebra_graph(g, ["c", 5]),
    "hedgehog(g, ['v2'], [], 'x')": lambda g, ctx: hedgehog(g, ["v2"], [], "x"),
    "enumerate_cycles(g, 'x')": lambda g, ctx: enumerate_cycles(g, "x"),
    "cycle_poset(g, 'x')": lambda g, ctx: cycle_poset(g, "x"),
    "enumerate_basis(g, 'x')": lambda g, ctx: enumerate_basis(g, "x"),
    "enumerate_basis(g, 2, 'x')": lambda g, ctx: enumerate_basis(g, 2, "x"),
    "chen_basis_element(g, s, None, 'x')": lambda g, ctx: chen_basis_element(g, periodic_stream(g, ["c"]), None, "x"),
    "AlgebraContext(g, special_edges=5)": lambda g, ctx: AlgebraContext(g, special_edges=5),
    "periodic_stream(g, 'c')": lambda g, ctx: periodic_stream(g, "c"),
    "subalgebra_graph(g, 'ce')": lambda g, ctx: subalgebra_graph(g, "ce"),
    "growth_profile(5, 3)": lambda g, ctx: growth_profile(5, 3),
    "enumerate_basis(5, 3)": lambda g, ctx: enumerate_basis(5, 3),
    "decide_gk(5)": lambda g, ctx: decide_gk(5),
    "decide_fp(5)": lambda g, ctx: decide_fp(5),
    "laurent_index_cardinality(g, Cycle(('e',)))": lambda g, ctx: laurent_index_cardinality(g, Cycle(("e",))),
    "laurent_index_cardinality(g, Cycle(()))": lambda g, ctx: laurent_index_cardinality(g, Cycle(())),
    "cycle_base(g, Cycle(()))": lambda g, ctx: cycle_base(g, Cycle(())),
    "cycle_base(g, ['c'])": lambda g, ctx: cycle_base(g, ["c"]),
    "cycle_vertices(g, ['c'])": lambda g, ctx: cycle_vertices(g, ["c"]),
    "cycle_has_exit(g, ['c'])": lambda g, ctx: cycle_has_exit(g, ["c"]),
    "laurent_index_cardinality(g, ['c'])": lambda g, ctx: laurent_index_cardinality(g, ["c"]),
    "generated_stream(g, ['c'], ['e'])": lambda g, ctx: generated_stream(g, ["c"], ["e"]),
    # e ends at v2 and c at v1: e c* is not in the algebra
    "normalize_monomial(ctx, e, c)": lambda g, ctx: normalize_monomial(ctx, Path("v1", ("e",)), Path("v1", ("c",))),
    "ctx.monomial('v1', 'v1')": lambda g, ctx: ctx.monomial("v1", "v1"),
    "AlgebraElement.sum([])": lambda g, ctx: AlgebraElement.sum([]),
    "AlgebraElement.sum([x, 1])": lambda g, ctx: AlgebraElement.sum([ctx.vertex("v1"), 1]),
    "AlgebraContext(g, field='q')": lambda g, ctx: AlgebraContext(g, field="q"),
    "normalize_monomial(5, v1, v1)": lambda g, ctx: normalize_monomial(5, Path("v1"), Path("v1")),
    "AlgebraElement.sum(5)": lambda g, ctx: AlgebraElement.sum(5),
    "periodic_stream(g, ['c']).edge_at('x')": lambda g, ctx: periodic_stream(g, ["c"]).edge_at("x"),
    "periodic_stream(g, ['c']).edge_at(1.5)": lambda g, ctx: periodic_stream(g, ["c"]).edge_at(1.5),
    "generated_stream(rose2, g, h).edge_at('x')": lambda g, ctx: generated_stream(
        g_rose2(), Cycle(("g",)), Cycle(("h",))
    ).edge_at("x"),
}


@pytest.mark.parametrize("call", list(_WRONG_TYPES.values()), ids=list(_WRONG_TYPES))
def test_wrongly_typed_arguments_raise_leavitt_errors(call):
    g = g_toeplitz()
    with pytest.raises(LeavittError):
        call(g, AlgebraContext(g))


def test_a_sum_takes_any_iterable():
    ctx = AlgebraContext(g_toeplitz())
    xs = [ctx.vertex("v1"), ctx.edge("c"), ctx.vertex("v1")]
    assert AlgebraElement.sum(x for x in xs) == AlgebraElement.sum(xs) == xs[0] + xs[1] + xs[2]
    assert AlgebraElement.sum(iter(xs[:1])) == xs[0]
    with pytest.raises(NotSupportedError, match="a sum needs at least one element"):
        AlgebraElement.sum(x for x in ())


def test_stream_positions_are_integers():
    periodic = periodic_stream(g_loop_chain(3), ["c1"], ["e1"])
    generated = generated_stream(g_rose2(), Cycle(("g",)), Cycle(("h",)))
    for stream in (periodic, generated):
        for n in ("x", 1.5, 2.0, None):
            with pytest.raises(NotSupportedError, match=f"a stream position must be an integer, not {n!r}"):
                stream.edge_at(n)


def test_stream_positions_start_at_1():
    periodic = periodic_stream(g_loop_chain(3), ["c1"], ["e1"])
    generated = generated_stream(g_rose2(), Cycle(("g",)), Cycle(("h",)))
    assert periodic.edge_at(1) == "e1" and generated.edge_at(1) == "g"
    for stream in (periodic, generated):
        for n in (0, -1, -3):
            with pytest.raises(NotSupportedError, match=f"stream positions start at 1, not {n}"):
                stream.edge_at(n)


def test_a_path_is_not_read_from_the_letters_of_a_string():
    g = g_toeplitz()
    ctx = AlgebraContext(g)
    for call in (
        lambda: make_path(g, "ce"),
        lambda: ctx.path_element("ce"),
        lambda: subalgebra_graph(g, "ce"),
        lambda: periodic_stream(g, "ce"),
    ):
        with pytest.raises(SchemaError, match="not the string 'ce'"):
            call()
    with pytest.raises(SchemaError, match="not the string 'c'"):
        canonical_cycle(g, "c")
    assert canonical_cycle(g, iter(["c"])) == canonical_cycle(g, ["c"])
    assert make_path(g, ("c", "e")) == make_path(g, ["c", "e"])
    assert ctx.path_element(iter(["c", "e"])) == ctx.edge("c") * ctx.edge("e")
    assert subalgebra_graph(g, iter(["c", "e"])) == subalgebra_graph(g, ["e", "c", "e"])
    assert periodic_stream(g, ("c",)) == periodic_stream(g, ["c"])
    with pytest.raises(SchemaError, match="not the string 'c'"):
        periodic_stream(g, ["c"], "c")
    # nor a vertex set: the letters of 'ab' are the vertices of this graph
    ab = Graph(["a", "b"], [Edge("x", "a", "b")])
    for call in (
        lambda: hereditary_closure(ab, "ab"),
        lambda: saturated_closure(ab, "ab"),
        lambda: quotient(ab, "ab"),
        lambda: quotient(ab, ["a", "b"], "ab"),
        lambda: hedgehog(ab, "ab"),
        lambda: hedgehog(ab, ["a", "b"], "ab"),
    ):
        with pytest.raises(SchemaError, match="not the string 'ab'"):
            call()
    assert hereditary_closure(ab, ("a",)) == {"a", "b"}
    assert saturated_closure(ab, iter(["b"])).vertices == {"a", "b"}
    # nor the vertices of a graph
    with pytest.raises(SchemaError, match="not the string 'abc'"):
        Graph("abc", [])
    assert Graph(iter(["c", "a", "b"]), []).vertices == ("a", "b", "c")


def _emitter_on_a_loop() -> Graph:
    """A loop c at u, and an infinite bundle b from u to w."""
    return Graph(["u", "w"], [Edge("c", "u", "u"), Edge("b", "u", "w", OMEGA)])


# the checks of outside input that no other test reaches: each call, on a
# graph built afresh, with the error it raises and its message
_VALIDATION_ERRORS = {
    "PrimeField.coerce(None)": (
        g_toeplitz, lambda g: PrimeField(7).coerce(None), NotSupportedError, "cannot coerce None into GF(7)"
    ),
    "PrimeField.invert(7)": (g_toeplitz, lambda g: PrimeField(7).invert(7), NotSupportedError, "inverse of zero"),
    "Rationals.invert(0)": (g_toeplitz, lambda g: RATIONALS.invert(0), NotSupportedError, "inverse of zero"),
    "special edge at a sink": (
        g_toeplitz,
        lambda g: AlgebraContext(g, special_edges={"v2": "e"}),
        NotSupportedError,
        "'v2' is not a regular vertex",
    ),
    "special edge leaving another vertex": (
        lambda: g_line(3),
        lambda g: AlgebraContext(g, special_edges={"v1": "e2"}),
        NotSupportedError,
        "'e2' does not leave 'v1'",
    ),
    "monomial without a common range": (
        g_toeplitz,
        lambda g: AlgebraContext(g).monomial(make_path(g, ["e"]), make_path(g, ["c"])),
        NotSupportedError,
        "p and q must have a common range",
    ),
    "concrete_out of an infinite emitter": (
        g_clock_omega, lambda g: g.concrete_out("u"), NotSupportedError, "vertex 'u' emits infinitely many edges"
    ),
    "bundle_addresses of an infinite bundle": (
        g_clock_omega, lambda g: bundle_addresses(g, "b"), NotSupportedError, "bundle 'b' has infinitely many edges"
    ),
    "make_path of a number": (
        g_toeplitz, lambda g: make_path(g, 5), SchemaError, "a path is a list of edge addresses, not 5"
    ),
    "canonical_cycle of an open path": (
        g_toeplitz, lambda g: canonical_cycle(g, ["e"]), NotSupportedError, "edge sequence is not closed"
    ),
    "canonical_cycle of two loops": (
        g_rose2, lambda g: canonical_cycle(g, ["g", "h"]), NotSupportedError, "closed path is not a simple cycle"
    ),
    "is_regular of an unknown vertex": (
        g_toeplitz, lambda g: is_regular(g, "zz"), UnknownVertexError, "unknown vertex 'zz'"
    ),
    "periodic_stream of an open period": (
        g_toeplitz, lambda g: periodic_stream(g, ["e"]), NotSupportedError, "period must be a closed path"
    ),
    "periodic_stream with a prefix off the period": (
        g_toeplitz,
        lambda g: periodic_stream(g, ["c"], ["e"]),
        NotSupportedError,
        "prefix must end at the source of the period",
    ),
    "generated_stream of one cycle twice": (
        g_rose2,
        lambda g: generated_stream(g, canonical_cycle(g, ["g"]), canonical_cycle(g, ["g"])),
        NotSupportedError,
        "the two cycles must be distinct",
    ),
    "generated_stream of disjoint cycles": (
        lambda: g_loop_chain(2),
        lambda g: generated_stream(g, canonical_cycle(g, ["c1"]), canonical_cycle(g, ["c2"])),
        NotSupportedError,
        "the two cycles share no vertex",
    ),
    "generated_stream at a vertex off the cycles": (
        g_rose2,
        lambda g: generated_stream(g, canonical_cycle(g, ["g"]), canonical_cycle(g, ["h"]), base="zz"),
        NotSupportedError,
        "'zz' is not a common vertex of the two cycles",
    ),
    "chen_basis_element at a negative tail index": (
        g_toeplitz,
        lambda g: chen_basis_element(g, periodic_stream(g, ["c"]), None, -1),
        NotSupportedError,
        "tail index must be >= 0",
    ),
    "chen_basis_element with a prefix off the tail": (
        g_toeplitz,
        lambda g: chen_basis_element(g, periodic_stream(g, ["c"]), make_path(g, ["e"])),
        NotSupportedError,
        "prefix does not chain onto the stream tail",
    ),
    "bifurcation_data to depth 0": (
        g_toeplitz,
        lambda g: bifurcation_data(AlgebraContext(g), periodic_stream(g, ["c"]), 0),
        NotSupportedError,
        "depth must be >= 1",
    ),
    "bifurcation_data through an infinite emitter": (
        _emitter_on_a_loop,
        lambda g: bifurcation_data(AlgebraContext(g), periodic_stream(g, ["c"]), 2),
        ResourceCapError,
        "vertex 'u' emits infinitely many edges; generator list is infinite",
    ),
    "stream_from_obj of a number": (
        g_toeplitz,
        lambda g: stream_from_obj(g, 5),
        NotSupportedError,
        'stream descriptor must be an object with a "kind"',
    ),
    "quotient by a set that is not saturated": (
        lambda: g_line(3), lambda g: quotient(g, ["v3"]), NotSupportedError, "vertex set is not saturated"
    ),
    "hedgehog of a set that is not hereditary": (
        lambda: g_line(3), lambda g: hedgehog(g, ["v2"]), NotSupportedError, "vertex set is not hereditary"
    ),
    "hedgehog with a vertex that does not break": (
        lambda: g_line(3),
        lambda g: hedgehog(g, ["v3"], ["v1"]),
        NotSupportedError,
        "s must be a subset of the breaking vertices of h",
    ),
}


@pytest.mark.parametrize("graph, call, error, message", _VALIDATION_ERRORS.values(), ids=list(_VALIDATION_ERRORS))
def test_validation_errors_keep_their_types_and_messages(graph, call, error, message):
    with pytest.raises(error) as info:
        call(graph())
    assert type(info.value) is error and str(info.value) == message


def test_integer_bounds_keep_their_messages():
    g = g_toeplitz()
    for call, message in (
        (lambda: PrimeField("7"), "the order of a prime field must be an integer, not '7'"),
        (lambda: growth_profile(g, "x"), "the growth bound must be an integer, not 'x'"),
        (lambda: enumerate_hs_sets(g, "x"), "the vertex cap must be an integer, not 'x'"),
        (lambda: bifurcation_data(AlgebraContext(g), periodic_stream(g, ["c"]), 1.0), "depth must be an integer, not 1.0"),
    ):
        with pytest.raises(NotSupportedError) as info:
            call()
        assert str(info.value) == message


def test_integers_past_the_digit_limit_raise_leavitt_errors():
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("integer string conversion is not limited in this interpreter")
    ctx = AlgebraContext(g_toeplitz())
    long_int = "9" * (limit + 1)
    with pytest.raises(ExpressionError, match=f"the integer at position 5 has more than {limit} digits"):
        parse_expression(f"v1 + {long_int} v1", ctx)
    with pytest.raises(ExpressionError, match=f"the integer at position 2 has more than {limit} digits"):
        parse_expression(f"1/{long_int} v1", ctx)
    with pytest.raises(SchemaError, match=f"more than {limit} digits"):
        graph_from_json('{"vertices": ["u"], "edges": [{"id": "b", "src": "u", "dst": "u", "mult": %s}]}' % long_int)
    big = 10 ** (limit + 1)
    for call in (
        lambda: RATIONALS.format_integral(1, big),
        lambda: RATIONALS.format_integral(big, 1),
        lambda: RATIONALS.format(Fraction(1, big)),
        lambda: str(ctx.vertex("v1").scale(Fraction(1, big))),
    ):
        with pytest.raises(ResourceCapError, match=f"more than {limit} digits"):
            call()
    # exactly the limit still converts
    assert parse_expression(f"{'9' * limit} v1", ctx).to_obj()[0]["coeff"] == "9" * limit


def test_undecodable_bytes_are_malformed_json():
    with pytest.raises(SchemaError, match="malformed JSON"):
        graph_from_json(b'{"vertices": ["\xff"]}')


def test_public_annotations_resolve():
    import leavitt

    for name in dir(leavitt):
        obj = getattr(leavitt, name)
        if name.startswith("_") or not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        typing.get_type_hints(obj)
        if inspect.isclass(obj):
            for _, method in inspect.getmembers(obj, inspect.isfunction):
                typing.get_type_hints(method)
    # rng has no effect, but the keyword is kept
    ctx = AlgebraContext(g_toeplitz())
    p = make_path(ctx.graph, ["c"])
    assert normalize_monomial(ctx, p, p, rng=random.Random(1)) == normalize_monomial(ctx, p, p)
