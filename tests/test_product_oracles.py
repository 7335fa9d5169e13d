"""The pairwise product and the Path-based rewrite that multiplied normal
forms before the flat-key product kernel, kept as an oracle.

Everything between the markers below is the library's code from before,
copied verbatim: every left term meets every right term, each contraction is
built as a pair of paths, and each is rewritten on its own with field
arithmetic.  The tests at the end compare it with ``a * b``,
``ctx.monomial`` and ``normalize_monomial`` on the corpus graphs of 2 to 4
vertices and two or more (parallel, infinite) bundles, custom special
edges, three fields, and sums that cancel; the term maps must be equal,
coefficient types included.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from leavitt import AlgebraContext, AlgebraElement, Edge, Graph, Monomial, Path, PrimeField, RATIONALS
from leavitt import normalize_monomial as library_normalize_monomial
from leavitt.expressions import parse_expression
from leavitt.fixtures import g_loop_chain, g_rose2
from leavitt.graph import bundle_addresses, is_regular, path_range

from corpus import FIELDS, context, sized

# --- verbatim copy of the old library code ----------------------------------


def _drop_last(p: Path, source: str) -> Path:
    return Path(p.base if len(p.edges) > 1 else source, p.edges[:-1])


def _extend(p: Path, addr: str) -> Path:
    return Path(p.base, p.edges + (addr,))


def _strip_zeros(ctx: AlgebraContext, terms: dict) -> dict:
    zero = ctx.field.zero
    return {m: c for m, c in terms.items() if c != zero}


def _normalize(ctx: AlgebraContext, p: Path, q: Path, coeff, out: dict, rng: random.Random | None = None) -> None:
    """Accumulate the normal form of coeff * p q* into ``out``.

    The reducible branch loses two edges per step, and every sibling branch is
    already normal at its junction, so the work list shrinks steadily.  With
    ``rng`` the processing order is randomized; the accumulated term map does
    not depend on it.
    """
    field = ctx.field
    work = [(p, q, coeff)]
    while work:
        if rng is None:
            p, q, c = work.pop()
        else:
            p, q, c = work.pop(rng.randrange(len(work)))
        if p.edges and q.edges and p.edges[-1] == q.edges[-1]:
            addr = p.edges[-1]
            w = ctx.graph.src_of(addr)
            if ctx.special.get(w) == addr:
                p2, q2 = _drop_last(p, w), _drop_last(q, w)
                work.append((p2, q2, c))
                nc = field.neg(c)
                for f in ctx.graph.concrete_out(w):
                    if f != addr:
                        work.append((_extend(p2, f), _extend(q2, f), nc))
                continue
        m = Monomial(p, q)
        out[m] = field.add(out.get(m, field.zero), c)


def normalize_monomial(
    ctx: AlgebraContext, p: Path, q: Path, coeff=1, rng: random.Random | None = None
) -> "AlgebraElement":
    """Normal form of coeff * p q*, optionally with a randomized rewrite order."""
    terms: dict[Monomial, object] = {}
    _normalize(ctx, p, q, ctx.field.coerce(coeff), terms, rng)
    return AlgebraElement(ctx, _strip_zeros(ctx, terms))


def _contract(ctx: AlgebraContext, m1: Monomial, m2: Monomial):
    """CK-1 contraction of (p1 q1*)(p2 q2*) into a single monomial, or None."""
    a, b = m1.q, m2.p
    if a.base != b.base:
        return None
    la, lb = len(a.edges), len(b.edges)
    n = min(la, lb)
    if a.edges[:n] != b.edges[:n]:
        return None
    if la <= lb:
        rest = b.edges[la:]
        return Path(m1.p.base, m1.p.edges + rest), m2.q
    rest = a.edges[lb:]
    return m1.p, Path(m2.q.base, m2.q.edges + rest)


def multiply(self, other) -> "AlgebraElement":
    # the body of the old AlgebraElement.__mul__ for two elements
    ctx = self.ctx
    field = ctx.field
    out: dict[Monomial, object] = {}
    for m1, c1 in self.terms.items():
        for m2, c2 in other.terms.items():
            contracted = _contract(ctx, m1, m2)
            if contracted is None:
                continue
            _normalize(ctx, contracted[0], contracted[1], field.mul(c1, c2), out)
    return AlgebraElement(ctx, _strip_zeros(ctx, out))


# --- end of the verbatim copy -----------------------------------------------

def _out(g: Graph, v: str) -> list[str]:
    # the first three edges of an infinite bundle stand for all of them
    return [a for e in g.out_bundles(v) for a in bundle_addresses(g, e.id, limit=3)]


def _path(rng: random.Random, g: Graph) -> Path:
    v = rng.choice(g.vertices)
    base, edges = v, []
    for _ in range(rng.randint(0, 3)):
        outs = _out(g, v)
        if not outs:
            break
        edges.append(rng.choice(outs))
        v = g.dst_of(edges[-1])
    return Path(base, tuple(edges))


def _pair(rng: random.Random, g: Graph) -> tuple[Path, Path]:
    """Two paths with a common range; a third of the time both end in the
    last edge of p, so the monomial may need rewriting."""
    p = _path(rng, g)
    last = p.edges[-1:] if rng.random() < 1 / 3 else ()
    end = g.src_of(last[0]) if last else path_range(g, p)
    for _ in range(50):
        q = _path(rng, g)
        if path_range(g, q) == end:
            break
    else:
        q = Path(end)
    return p, Path(q.base, q.edges + last)


def _coeff(rng: random.Random, ctx: AlgebraContext):
    if ctx.field == RATIONALS:
        return Fraction(rng.choice((1, -1, 2, -3, 5)), rng.choice((1, 1, 2, 3)))
    return ctx.field.coerce(rng.randrange(1, 3 * ctx.field.p))


def _element(rng: random.Random, ctx: AlgebraContext) -> AlgebraElement:
    """A sum of 1-4 monomials: normalized, or (a third of the time) raw
    terms that need rewriting."""
    terms: dict[Monomial, object] = {}
    raw = rng.random() < 1 / 3
    for _ in range(rng.randint(1, 4)):
        p, q = _pair(rng, ctx.graph)
        c = _coeff(rng, ctx)
        if raw:
            terms[Monomial(p, q)] = c
        else:
            _normalize(ctx, p, q, c, terms)
    return AlgebraElement(ctx, _strip_zeros(ctx, terms))


def _zero_relation(rng: random.Random, ctx: AlgebraContext) -> AlgebraElement | None:
    """The raw terms of (sum over out-edges f of f f*) - v at a regular v,
    which is 0 in the algebra."""
    g = ctx.graph
    regular = [v for v in g.vertices if is_regular(g, v)]
    if not regular:
        return None
    v = rng.choice(regular)
    terms = {Monomial(Path(v), Path(v)): ctx.field.coerce(-1)}
    for f in g.concrete_out(v):
        terms[Monomial(Path(v, (f,)), Path(v, (f,)))] = ctx.field.one
    return AlgebraElement(ctx, terms)


def _assert_same(lib: AlgebraElement, ref: AlgebraElement) -> None:
    assert lib.terms == ref.terms
    assert all(type(c) is type(ref.terms[m]) for m, c in lib.terms.items())


def test_products_match_the_pair_loop():
    rng = random.Random(5150)
    graphs = itertools.cycle(sized(2, 4, 2))
    kinds: set[str] = set()
    pairs = cancelled = rewritten = 0
    while pairs < 2700:
        ctx = context(rng, next(graphs))
        custom = ctx.special != AlgebraContext(ctx.graph, ctx.field).special
        kinds |= {repr(ctx.field), f"custom={custom}"} | {f"mult={e.mult}" for e in ctx.graph.edges}
        for _ in range(12):
            a, b = _element(rng, ctx), _element(rng, ctx)
            if rng.random() < 0.15 and (z := _zero_relation(rng, ctx)) is not None:
                a, b = (z, b) if rng.random() < 0.5 else (a, z)
            ref = multiply(a, b)
            _assert_same(a * b, ref)
            pairs += 1
            contracting = [c for m1 in a.terms for m2 in b.terms if (c := _contract(ctx, m1, m2)) is not None]
            cancelled += bool(contracting) and ref.is_zero
            rewritten += any(
                p.edges and q.edges and p.edges[-1] == q.edges[-1]
                and ctx.special.get(ctx.graph.src_of(p.edges[-1])) == p.edges[-1]
                for p, q in contracting
            )
    # the seeded pairs cover every field, both special-edge choices and every
    # kind of bundle, and reach cancellation to zero and rewriting often
    assert kinds == {"Q", "GF(7)", "GF(101)", "custom=False", "custom=True", "mult=1", "mult=2", "mult=3", "mult=omega"}
    assert cancelled > 150 and rewritten > 200


def test_monomials_match_the_rewrite():
    rng = random.Random(77)
    for g in sized(2, 4, 2)[:300]:
        ctx = context(rng, g)
        for _ in range(5):
            p, q = _pair(rng, ctx.graph)
            c = _coeff(rng, ctx)
            ref = normalize_monomial(ctx, p, q, c)
            _assert_same(ctx.monomial(p, q, c), ref)
            _assert_same(library_normalize_monomial(ctx, p, q, c), ref)
            for _ in range(2):
                shuffled = library_normalize_monomial(ctx, p, q, c, rng=random.Random(rng.randrange(10**6)))
                _assert_same(shuffled, ref)


def test_a_product_that_cancels_is_zero():
    g = Graph(["u", "w"], [Edge("b", "u", "w", 3), Edge("c", "u", "u")])
    for field in FIELDS:
        ctx = AlgebraContext(g, field)
        # b[0] is special at u: c b[0] b[0]* = c (u - b[1] b[1]* - b[2] b[2]* - c c*)
        total = ctx.edge("c") * ctx.edge("b[0]") * ctx.ghost("b[0]") - ctx.edge("c")
        for f in ("b[1]", "b[2]", "c"):
            total = total + ctx.edge("c") * ctx.edge(f) * ctx.ghost(f)
        assert total.is_zero
        w = Monomial(Path("w"), Path("w"))
        _assert_same(ctx.ghost("b[1]") * ctx.edge("b[1]"), AlgebraElement(ctx, {w: field.one}))


def _power_contexts():
    """Each graph over each field: rose2, the loop chain of length 3, a graph
    with bundles of multiplicity 2 and 3, and one with custom special edges."""
    bundles = Graph(["u", "w"], [Edge("b", "u", "w", 2), Edge("c", "u", "u"), Edge("d", "w", "u", 3)])
    custom = Graph(["u", "w"], [Edge("a", "u", "u", 2), Edge("b", "u", "w"), Edge("d", "w", "u", 2), Edge("f", "w", "w")])
    for field in FIELDS:
        yield AlgebraContext(g_rose2(), field)
        yield AlgebraContext(g_loop_chain(3), field)
        yield AlgebraContext(bundles, field)
        yield AlgebraContext(custom, field, special_edges={"u": "a[1]", "w": "d[1]"})


def _generator_sum(rng: random.Random, ctx: AlgebraContext) -> AlgebraElement:
    """A combination of 2-5 distinct vertices, edges and ghost edges."""
    g = ctx.graph
    pool = [ctx.vertex(v) for v in g.vertices]
    pool += [f(a) for v in g.vertices for a in g.concrete_out(v) for f in (ctx.edge, ctx.ghost)]
    chosen = rng.sample(pool, rng.randint(2, min(5, len(pool))))
    return AlgebraElement.sum([y.scale(_coeff(rng, ctx)) for y in chosen])


def test_powers_match_the_pair_loop():
    # the left factor of x^k holds many terms per ghost part, each of which
    # the library contracts once; the pair loop contracts every term
    rng = random.Random(8128)
    shared = 0
    for ctx in _power_contexts():
        for _ in range(4):
            x = _generator_sum(rng, ctx)
            power = ref = x
            for _ in range(2, 9):
                shared += len(power._flat) - len({(qb, qe) for _, _, qb, qe in power._flat})
                power, ref = power * x, multiply(ref, x)
                _assert_same(power, ref)
    assert shared > 2000


def test_a_wide_element_serializes_as_the_term_map_did():
    from test_flat_elements import AlgebraElement as ReferenceElement

    g = Graph(["u", "w"], [Edge("b", "u", "w", 8192)])
    for field in (RATIONALS, PrimeField(7)):
        ctx = AlgebraContext(g, field)
        x = parse_expression("b[0].b[0]*", ctx)
        obj = x.to_obj()
        assert len(obj) == 8192
        assert obj == ReferenceElement(ctx, x.terms).to_obj()
