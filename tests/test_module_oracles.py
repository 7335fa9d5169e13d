"""The module actions from before they read the flat term map, kept as an
oracle.

Everything between the markers below is the library's code from before,
copied verbatim (only ``periodic_stream``, ``chen_basis_element``,
``chen_act`` and ``sv_act`` gain an ``oracle_`` prefix): each term of an
element is read through ``AlgebraElement.terms`` as a ``Monomial``, q* is
stripped from the front of a basis element, which is canonicalized, and p
is prepended, which canonicalizes it again.  The tests after it compare the
library with it on seeded graphs, streams, elements and vectors over Q and
GF(7): the results must be equal, or both must raise the same error type
with the same message.
"""

from __future__ import annotations

import random

import pytest

from leavitt import OMEGA, RATIONALS, AlgebraContext, AlgebraElement, Edge, Graph, PrimeField
from leavitt import modules
from leavitt.algebra import Monomial
from leavitt.errors import ContextMismatchError, LeavittError, NotSupportedError
from leavitt.fixtures import g_loop_chain, g_rose2, g_toeplitz
from leavitt.graph import Path, _require_int, bundle_addresses, canonical_cycle, make_path, path_range
from leavitt.modules import (
    ChenBasisElement,
    PeriodicPath,
    StreamDescriptor,
    generated_stream,
    periodic_stream,
    stream_vertex_after,
)

# --- verbatim copy of the old library code ----------------------------------


def oracle_periodic_stream(g: Graph, period_edges, prefix_edges=()) -> PeriodicPath:
    period = make_path(g, period_edges)
    if path_range(g, period) != period.base:
        raise NotSupportedError("period must be a closed path")
    if prefix_edges:
        prefix = make_path(g, prefix_edges)
        if path_range(g, prefix) != period.base:
            raise NotSupportedError("prefix must end at the source of the period")
    else:
        prefix = Path(period.base)
    # primitivize the period
    per = list(period.edges)
    for d in range(1, len(per) + 1):
        if len(per) % d == 0 and per == per[:d] * (len(per) // d):
            per = per[:d]
            break
    # absorb an absorbable prefix tail, rotating the period along
    pre = list(prefix.edges)
    while pre and pre[-1] == per[-1]:
        pre.pop()
        per = [per[-1]] + per[:-1]
    per_path = make_path(g, per)
    pre_path = make_path(g, pre) if pre else Path(per_path.base)
    return PeriodicPath(pre_path, per_path)


def oracle_chen_basis_element(
    g: Graph, stream: StreamDescriptor, prefix: Path | None = None, tail_index: int = 0
) -> ChenBasisElement:
    if _require_int(tail_index, "the tail index") < 0:
        raise NotSupportedError("tail index must be >= 0")
    if prefix is None:
        prefix = Path(stream_vertex_after(g, stream, tail_index))
    if path_range(g, prefix) != stream_vertex_after(g, stream, tail_index):
        raise NotSupportedError("prefix does not chain onto the stream tail")
    edges = list(prefix.edges)
    n = tail_index
    periodic = isinstance(stream, PeriodicPath)
    while True:
        if periodic:
            lp = len(stream.prefix.edges)
            ell = len(stream.period.edges)
            if n >= lp:
                n = lp + (n - lp) % ell
        if edges and n >= 1 and edges[-1] == stream.edge_at(n):
            edges.pop()
            n -= 1
            continue
        # a prefix may wrap backwards around the period: tail(n) = tail(n+ell)
        if periodic and edges and n >= lp and edges[-1] == stream.edge_at(n + ell):
            edges.pop()
            n += ell - 1
            continue
        break
    base = g.src_of(edges[0]) if edges else stream_vertex_after(g, stream, n)
    return ChenBasisElement(stream, Path(base, tuple(edges)), n)


def _strip_front(g: Graph, b: ChenBasisElement, q: Path) -> ChenBasisElement | None:
    """Remove the path q from the front of b, or None if b does not start with q."""
    if not q.edges:
        return b if q.base == b.prefix.base else None
    pe = b.prefix.edges
    for i, addr in enumerate(q.edges):
        have = pe[i] if i < len(pe) else b.stream.edge_at(b.tail_index + i - len(pe) + 1)
        if have != addr:
            return None
    k = len(q.edges)
    if k <= len(pe):
        rest = pe[k:]
        base = g.src_of(rest[0]) if rest else stream_vertex_after(g, b.stream, b.tail_index)
        return oracle_chen_basis_element(g, b.stream, Path(base, rest), b.tail_index)
    return oracle_chen_basis_element(g, b.stream, None, b.tail_index + (k - len(pe)))


def _prepend(g: Graph, b: ChenBasisElement, p: Path) -> ChenBasisElement | None:
    if path_range(g, p) != b.prefix.base:
        return None
    return oracle_chen_basis_element(
        g, b.stream, Path(p.base, p.edges + b.prefix.edges), b.tail_index
    )


def _accumulate(field, vec: dict, key, coeff) -> None:
    new = field.add(vec.get(key, field.zero), coeff)
    if new == field.zero:
        vec.pop(key, None)
    else:
        vec[key] = new


def _check_ctx(ctx: AlgebraContext, x: AlgebraElement) -> None:
    if x.ctx != ctx:
        raise ContextMismatchError("element belongs to a different algebra context")


def oracle_chen_act(ctx: AlgebraContext, x: AlgebraElement, vec: dict) -> dict:
    _check_ctx(ctx, x)
    g = ctx.graph
    field = ctx.field
    out: dict[ChenBasisElement, object] = {}
    for m, c in x.terms.items():
        for b, w in vec.items():
            t = _strip_front(g, b, m.q)
            if t is None:
                continue
            t = _prepend(g, t, m.p)
            if t is None:
                continue
            _accumulate(field, out, t, field.mul(c, w))
    return out


def oracle_sv_act(ctx: AlgebraContext, v: str, x: AlgebraElement, vec: dict) -> dict:
    g = ctx.graph
    if not g.is_infinite_emitter(g.require_vertex(v)):
        raise NotSupportedError(f"{v!r} is not an infinite emitter")
    _check_ctx(ctx, x)
    field = ctx.field
    out: dict[Path, object] = {}
    for m, c in x.terms.items():
        for b, w in vec.items():
            if path_range(g, b) != v:
                raise NotSupportedError(f"basis path does not end at {v!r}")
            t = _sv_mono(g, m, b)
            if t is None:
                continue
            _accumulate(field, out, t, field.mul(c, w))
    return out


def _sv_mono(g: Graph, m: Monomial, b: Path) -> Path | None:
    q = m.q
    if len(q.edges) > len(b.edges):
        return None  # a ghost edge eventually meets the bare vertex: zero
    if not q.edges:
        if q.base != b.base:
            return None
        t = b
    else:
        if b.edges[: len(q.edges)] != q.edges:
            return None
        rest = b.edges[len(q.edges):]
        base = g.src_of(rest[0]) if rest else path_range(g, b)
        t = Path(base, rest)
    p = m.p
    if path_range(g, p) != t.base:
        return None
    return Path(p.base, p.edges + t.edges)


# --- end of the verbatim copy ------------------------------------------------

GF7 = PrimeField(7)


def _outcome(call):
    """The answer of ``call()``, or the type and message of its error."""
    try:
        return call()
    except LeavittError as exc:
        return type(exc), str(exc)


def _walk_into(rng: random.Random, g: Graph, v: str, length: int) -> Path:
    """A random path of at most ``length`` edges ending at ``v``, built
    backwards; an infinite bundle contributes one of its first 4 edges."""
    edges: list[str] = []
    at = v
    for _ in range(length):
        bundles = g.in_bundles(at)
        if not bundles:
            break
        e = rng.choice(bundles)
        edges.insert(0, rng.choice(bundle_addresses(g, e.id, limit=4)))
        at = e.src
    return Path(at, tuple(edges))


def _scalar(rng: random.Random, field):
    num = rng.choice([1, 1, 1, -1, 2, -3, 5])
    den = rng.choice([1, 1, 2, 3])
    return field.coerce(f"{num}/{den}")


def _element(rng: random.Random, ctx: AlgebraContext, fronts: list[tuple[str, ...]]) -> AlgebraElement:
    """A sum of 1 to 4 random terms p q*; most ghost parts q are the first
    edges of one of ``fronts``, so that they act by something nonzero."""
    g = ctx.graph
    parts = []
    for _ in range(rng.randint(1, 4)):
        if fronts and rng.random() < 0.7:
            front = rng.choice(fronts)
            qe = front[: rng.randint(0, min(3, len(front)))]
            q = make_path(g, qe) if qe else Path(rng.choice(g.vertices))
        else:
            q = _walk_into(rng, g, rng.choice(g.vertices), rng.randint(0, 2))
        p = _walk_into(rng, g, path_range(g, q), rng.randint(0, 3))
        parts.append(ctx.monomial(p, q, _scalar(rng, ctx.field)))
    return AlgebraElement.sum(parts)


# (graph, stream) pairs: periodic streams with and without a prefix, and
# generated streams, over single edges, multi-edge bundles and longer cycles
def _multi() -> Graph:
    return Graph(["u", "w"], [Edge("b", "u", "u", 3), Edge("x", "u", "w"), Edge("y", "w", "u")])


def _two_cycle() -> Graph:
    return Graph(["x", "y"], [Edge("a", "x", "y"), Edge("b", "y", "x"), Edge("c", "x", "x")])


_STREAMS = {
    "toeplitz c": (g_toeplitz, lambda g: periodic_stream(g, ["c"])),
    "toeplitz cc after c": (g_toeplitz, lambda g: periodic_stream(g, ["c", "c"], ["c"])),
    "rose2 gh": (g_rose2, lambda g: periodic_stream(g, ["g", "h"])),
    "rose2 ghh after hg": (g_rose2, lambda g: periodic_stream(g, ["g", "h", "h"], ["h", "g"])),
    "rose2 g,h": (g_rose2, lambda g: generated_stream(g, canonical_cycle(g, ["g"]), canonical_cycle(g, ["h"]))),
    "loop chain c1 after e1": (lambda: g_loop_chain(3), lambda g: periodic_stream(g, ["c1"], ["e1"])),
    "loop chain c1 after c3 e2 c2 e1": (
        lambda: g_loop_chain(3),
        lambda g: periodic_stream(g, ["c1"], ["c3", "e2", "c2", "e1"]),
    ),
    "multi b[1]": (_multi, lambda g: periodic_stream(g, ["b[1]"])),
    "multi xy after b[0]": (_multi, lambda g: periodic_stream(g, ["x", "y"], ["b[0]"])),
    "multi b[2],xy": (
        _multi,
        lambda g: generated_stream(g, canonical_cycle(g, ["b[2]"]), canonical_cycle(g, ["x", "y"])),
    ),
    "two cycle ab after b": (_two_cycle, lambda g: periodic_stream(g, ["a", "b"], ["b"])),
    "two cycle ab,c": (
        _two_cycle,
        lambda g: generated_stream(g, canonical_cycle(g, ["a", "b"]), canonical_cycle(g, ["c"])),
    ),
}


def _chen_element(rng: random.Random, g: Graph, st) -> ChenBasisElement:
    n = rng.randint(0, 6)
    prefix = _walk_into(rng, g, stream_vertex_after(g, st, n), rng.randint(0, 3))
    b = modules.chen_basis_element(g, st, prefix, n)
    assert b == oracle_chen_basis_element(g, st, prefix, n)
    return b


def _front(b: ChenBasisElement, extra: int) -> tuple[str, ...]:
    """The prefix of ``b`` and the next ``extra`` edges of its stream tail."""
    return b.prefix.edges + tuple(b.stream.edge_at(b.tail_index + i) for i in range(1, extra + 1))


@pytest.mark.parametrize("field", [RATIONALS, GF7], ids=["Q", "GF7"])
@pytest.mark.parametrize("name", list(_STREAMS))
def test_chen_act_matches_the_oracle(name, field):
    make_graph, make_stream = _STREAMS[name]
    g = make_graph()
    st = make_stream(g)
    ctx = AlgebraContext(g, field)
    rng = random.Random(f"chen {name} {field}")
    for _ in range(25):
        vec = {_chen_element(rng, g, st): _scalar(rng, field) for _ in range(rng.randint(1, 4))}
        fronts = [_front(b, 3) for b in vec]
        # a sweep: each element acts on what the one before left
        for _ in range(5):
            x = _element(rng, ctx, fronts)
            got = modules.chen_act(ctx, x, vec)
            assert got == oracle_chen_act(ctx, x, vec)
            vec = got or vec
            fronts = [_front(b, 3) for b in vec]


def test_periodic_stream_matches_the_oracle():
    rng = random.Random("periodic streams")
    for make_graph in (g_toeplitz, g_rose2, _multi, _two_cycle, lambda: g_loop_chain(3)):
        g = make_graph()
        closed = [
            c for c in (_walk_into(rng, g, v, rng.randint(1, 6)) for v in g.vertices * 60)
            if c.edges and path_range(g, c) == c.base
        ]
        assert closed
        for period in closed:
            prefix = _walk_into(rng, g, period.base, rng.randint(0, 4)).edges
            want = _outcome(lambda: oracle_periodic_stream(g, period.edges, prefix))
            assert _outcome(lambda: periodic_stream(g, period.edges, prefix)) == want


def _sv_graph() -> Graph:
    """The infinite emitter v (bundle b to the sink w) is entered from z by
    a and by the bundle m, z from y and from its own loop l."""
    return Graph(
        ["v", "w", "y", "z"],
        [
            Edge("a", "z", "v"),
            Edge("b", "v", "w", OMEGA),
            Edge("c", "y", "z"),
            Edge("l", "z", "z"),
            Edge("m", "z", "v", 2),
            Edge("n", "v", "v"),
        ],
    )


@pytest.mark.parametrize("field", [RATIONALS, GF7], ids=["Q", "GF7"])
def test_sv_act_matches_the_oracle(field):
    g = _sv_graph()
    ctx = AlgebraContext(g, field)
    rng = random.Random(f"sv {field}")
    for _ in range(150):
        vec = {_walk_into(rng, g, "v", rng.randint(0, 4)): _scalar(rng, field) for _ in range(rng.randint(1, 4))}
        for _ in range(4):
            x = _element(rng, ctx, [b.edges for b in vec])
            got = modules.sv_act(ctx, "v", x, vec)
            assert got == oracle_sv_act(ctx, "v", x, vec)
            vec = got or vec


def test_sv_errors_match_the_oracle():
    g = _sv_graph()
    ctx = AlgebraContext(g)
    other = AlgebraContext(g, GF7)
    rng = random.Random("sv errors")
    bad = Path("z", ("l",))  # ends at z, not at v
    good = Path("z", ("a",))
    x = ctx.ghost("a")
    cases = [
        ("v", x, {bad: ctx.field.one}),
        ("v", x, {good: ctx.field.one, bad: ctx.field.one}),
        ("v", ctx.zero(), {bad: ctx.field.one}),  # no term, so no check
        ("z", x, {good: ctx.field.one}),  # not an infinite emitter
        ("nowhere", x, {good: ctx.field.one}),
        ("v", other.ghost("a"), {good: ctx.field.one}),
        ("z", other.ghost("a"), {good: ctx.field.one}),  # the emitter is checked first
        ("v", other.zero(), {bad: ctx.field.one}),
    ]
    for _ in range(100):
        vec = {_walk_into(rng, g, rng.choice(g.vertices), rng.randint(0, 3)): ctx.field.one for _ in range(3)}
        cases.append((rng.choice(["v", "v", "z", "w"]), _element(rng, ctx, [b.edges for b in vec]), vec))
    for v, x, vec in cases:
        want = _outcome(lambda: oracle_sv_act(ctx, v, x, vec))
        assert _outcome(lambda: modules.sv_act(ctx, v, x, vec)) == want
    assert modules.sv_act(ctx, "v", ctx.zero(), {bad: ctx.field.one}) == {}
    with pytest.raises(NotSupportedError, match="basis path does not end at 'v'"):
        modules.sv_act(ctx, "v", x, {bad: ctx.field.one})


# --- branches the other tests never reach ---------------------------------------


def test_terms_that_cancel_leave_no_entry():
    g = g_toeplitz()
    ctx = AlgebraContext(g)
    b = modules.chen_basis_element(g, periodic_stream(g, ["c"]))
    vec = {b: ctx.field.one}
    # c and v1 both fix c c c ...; c.c and c* both do too
    for x in (ctx.edge("c") - ctx.vertex("v1"), ctx.edge("c") * ctx.edge("c") - ctx.ghost("c")):
        assert not x.is_zero
        assert modules.chen_act(ctx, x, vec) == {} == oracle_chen_act(ctx, x, vec)
    sv = _sv_graph()
    sctx = AlgebraContext(sv)
    # a* and m[0]* both send their edge to v
    x = sctx.ghost("a") + sctx.ghost("m[0]")
    vec = {Path("z", ("a",)): sctx.field.one, Path("z", ("m[0]",)): -sctx.field.one}
    assert modules.sv_act(sctx, "v", x, vec) == {} == oracle_sv_act(sctx, "v", x, vec)


def test_a_ghost_that_does_not_match_kills_an_sv_path():
    g = _sv_graph()
    ctx = AlgebraContext(g)
    vec = {Path("y", ("c", "a")): ctx.field.one}
    for x in (ctx.ghost("m[1]"), ctx.ghost("a") * ctx.ghost("l"), ctx.ghost("n")):
        assert modules.sv_act(ctx, "v", x, vec) == {} == oracle_sv_act(ctx, "v", x, vec)
    assert modules.sv_act(ctx, "v", ctx.ghost("a") * ctx.ghost("c"), vec) == {Path("v"): ctx.field.one}


def test_an_element_of_another_context_is_refused():
    g = g_toeplitz()
    ctx = AlgebraContext(g)
    b = modules.chen_basis_element(g, periodic_stream(g, ["c"]))
    for other in (AlgebraContext(g, GF7), AlgebraContext(g_rose2()), AlgebraContext(g, special_edges={"v1": "e"})):
        x = other.vertex(other.graph.vertices[0])
        with pytest.raises(ContextMismatchError, match="element belongs to a different algebra context"):
            modules.chen_act(ctx, x, {b: ctx.field.one})
        want = _outcome(lambda: oracle_chen_act(ctx, x, {b: ctx.field.one}))
        assert _outcome(lambda: modules.chen_act(ctx, x, {b: ctx.field.one})) == want
    # an equal context built apart is the same context
    twin = AlgebraContext(g_toeplitz())
    assert modules.chen_act(ctx, twin.vertex("v1"), {b: ctx.field.one}) == {b: ctx.field.one}
