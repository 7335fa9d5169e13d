"""The Monomial-map element that held its terms before elements held flat
integer term maps, kept as an oracle.

Everything between the markers below is the library's code from before,
copied verbatim: the constructor kept the term map as given, and sums,
negation, scaling, degree components and serialization worked on it with
field arithmetic.  The tests at the end compare the library with it on
seeded random elements over three fields, on the corpus graphs of 2 to 4
vertices and two or more (parallel, infinite) bundles; ``to_obj`` must be
equal as lists and ``terms`` equal including
coefficient types.  They also check that the flat state is canonical.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction
from typing import Mapping

import leavitt
from leavitt import AlgebraContext, Edge, Graph, Monomial, Path, RATIONALS
from leavitt.algebra import Rationals, _from_terms
from leavitt.errors import ContextMismatchError
from leavitt.expressions import parse_expression
from leavitt.graph import bundle_addresses, path_range

from corpus import context, sized
from test_product_oracles import multiply as pair_loop_multiply

# --- verbatim copy of the old library code ----------------------------------


def _strip_zeros(ctx: AlgebraContext, terms: dict) -> dict:
    zero = ctx.field.zero
    return {m: c for m, c in terms.items() if c != zero}


class AlgebraElement:
    """A canonical finite linear combination of normal monomials."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: AlgebraContext, terms: Mapping[Monomial, object]):
        self.ctx = ctx
        self.terms = dict(terms)

    def _check(self, other: "AlgebraElement") -> None:
        if self.ctx != other.ctx:
            raise ContextMismatchError("operands belong to different algebra contexts")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        field = self.ctx.field
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = field.add(terms.get(m, field.zero), c)
        return AlgebraElement(self.ctx, _strip_zeros(self.ctx, terms))

    def __neg__(self) -> "AlgebraElement":
        field = self.ctx.field
        return AlgebraElement(self.ctx, {m: field.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def scale(self, value) -> "AlgebraElement":
        field = self.ctx.field
        s = field.coerce(value)
        if s == field.zero:
            return self.ctx.zero()
        return AlgebraElement(self.ctx, {m: field.mul(s, c) for m, c in self.terms.items()})

    def degree_components(self) -> dict[int, "AlgebraElement"]:
        """Partition of the terms by monomial degree |p| - |q|."""
        buckets: dict[int, dict[Monomial, object]] = {}
        for m, c in self.terms.items():
            buckets.setdefault(m.degree, {})[m] = c
        return {d: AlgebraElement(self.ctx, t) for d, t in sorted(buckets.items())}

    def to_obj(self) -> list[dict]:
        out = []
        for m in sorted(self.terms, key=Monomial.sort_key):
            item = {
                "p": list(m.p.edges),
                "q": list(m.q.edges),
                "coeff": self.ctx.field.format(self.terms[m]),
            }
            if not m.p.edges and not m.q.edges:
                item["v"] = m.p.base
            out.append(item)
        return out


# --- end of the verbatim copy -----------------------------------------------


# --- verbatim copy of the old Rationals.reduce, which rebuilt every map ------


def _comprehension_reduce(self, acc: dict, d: int) -> tuple[dict, int]:
    """The canonical form of the values n / d for n in ``acc``: zeros
    dropped, and the numerators and ``d`` divided by their gcd, so that
    ``d`` is the lcm of the reduced denominators (1 for no values)."""
    flat = {k: n for k, n in acc.items() if n}
    if d == 1 or not flat:
        return flat, 1
    g = math.gcd(d, *flat.values())
    if g > 1:
        flat = {k: n // g for k, n in flat.items()}
        d //= g
    return flat, d


# --- end of the verbatim copy of reduce -------------------------------------

def _path(rng: random.Random, g: Graph, v: str) -> Path:
    base, edges = v, []
    for _ in range(rng.randint(0, 3)):
        # the first three edges of an infinite bundle stand for all of them
        outs = [a for e in g.out_bundles(v) for a in bundle_addresses(g, e.id, limit=3)]
        if not outs:
            break
        edges.append(rng.choice(outs))
        v = g.dst_of(edges[-1])
    return Path(base, tuple(edges))


def _pair(rng: random.Random, g: Graph) -> tuple[Path, Path]:
    """Two paths with a common range, found by trying bases at random."""
    p = _path(rng, g, rng.choice(g.vertices))
    end = path_range(g, p)
    for _ in range(50):
        q = _path(rng, g, rng.choice(g.vertices))
        if path_range(g, q) == end:
            return p, q
    return p, Path(end)


def _coeff(rng: random.Random, ctx: AlgebraContext):
    if ctx.field == RATIONALS:
        return Fraction(rng.choice((1, -1, 2, -3, 5, 6)), rng.choice((1, 2, 3, 4, 6, 9)))
    return ctx.field.coerce(rng.randrange(1, 3 * ctx.field.p))


def _element(rng: random.Random, ctx: AlgebraContext) -> tuple[leavitt.AlgebraElement, dict]:
    """A library element and the term map it must have: raw terms given to
    the constructor (with an occasional zero), a sum of normalized
    monomials, or the product of two such sums."""
    kind = rng.random()
    if kind < 0.3:
        raw = {Monomial(*_pair(rng, ctx.graph)): _coeff(rng, ctx) for _ in range(rng.randint(1, 4))}
        if rng.random() < 0.3:
            raw[Monomial(*_pair(rng, ctx.graph))] = ctx.field.zero
        return leavitt.AlgebraElement(ctx, raw), _strip_zeros(ctx, raw)
    x = ctx.zero()
    for _ in range(rng.randint(1, 4)):
        x = x + ctx.monomial(*_pair(rng, ctx.graph), _coeff(rng, ctx))
    if kind > 0.8:
        y = ctx.zero()
        for _ in range(rng.randint(1, 3)):
            y = y + ctx.monomial(*_pair(rng, ctx.graph), _coeff(rng, ctx))
        x = x * y
    return x, dict(x.terms)


def _assert_same(lib, ref) -> None:
    assert lib.terms == ref.terms
    assert all(type(c) is type(ref.terms[m]) for m, c in lib.terms.items())
    assert lib.to_obj() == ref.to_obj()


def _assert_canonical(x: leavitt.AlgebraElement) -> None:
    assert all(x._flat.values()) and x._den >= 1
    if x.ctx.field == RATIONALS:
        assert math.gcd(x._den, *x._flat.values()) == 1
    else:
        assert x._den == 1 and all(0 < n < x.ctx.field.p for n in x._flat.values())


def test_operations_match_the_monomial_maps():
    rng = random.Random(6006)
    graphs = itertools.cycle(sized(2, 4, 2))
    kinds: set[str] = set()
    elements = 0
    while elements < 1200:
        ctx = context(rng, next(graphs))
        kinds |= {repr(ctx.field)} | {f"mult={e.mult}" for e in ctx.graph.edges}
        prev = None
        for _ in range(6):
            x, terms = _element(rng, ctx)
            elements += 1
            ref = AlgebraElement(ctx, terms)
            _assert_same(x, ref)
            _assert_canonical(x)
            _assert_same(-x, -ref)
            s = _coeff(rng, ctx) if rng.random() < 0.9 else 0
            _assert_same(x.scale(s), ref.scale(s))
            lib_parts, ref_parts = x.degree_components(), ref.degree_components()
            assert list(lib_parts) == list(ref_parts)
            for d, part in lib_parts.items():
                _assert_same(part, ref_parts[d])
                _assert_canonical(part)
            if prev is not None:
                y, y_ref = prev
                for lib, want in ((x + y, ref + y_ref), (x - y, ref - y_ref), (y - x, y_ref - ref)):
                    _assert_same(lib, want)
                    _assert_canonical(lib)
            prev = x, ref
    assert kinds == {"Q", "GF(7)", "GF(101)", "mult=1", "mult=2", "mult=3", "mult=omega"}


def test_equal_elements_have_equal_states():
    rng = random.Random(4711)
    for g in sized(2, 4, 2)[:200]:
        ctx = context(rng, g)
        x, _ = _element(rng, ctx)
        y, _ = _element(rng, ctx)
        third = ctx.field.coerce("1/3")
        assert x.scale(3).scale(third) == x
        assert (x + y) - y == x
        assert leavitt.AlgebraElement(ctx, x.terms) == x
        for a, b in ((x + y, y + x), ((x + y) - y, x), (x.scale(3).scale(third), x)):
            assert (a._den, a._flat) == (b._den, b._flat)
        u = ctx.vertex(rng.choice(ctx.graph.vertices))
        half, sixth = ctx.field.coerce("1/2"), ctx.field.coerce("5/6")
        assert ((u.scale(half) + u.scale(third)) - u.scale(sixth)).is_zero


def test_the_denominator_of_a_power_stays_reduced():
    rose = Graph(["v"], [Edge("a", "v", "v"), Edge("b", "v", "v")])
    clock = Graph(["u", "w"], [Edge("b", "u", "u", 2), Edge("c", "u", "w")])
    for g, text in ((rose, "1/2 a + 1/3 b* + 1/7 v"), (clock, "1/2 b[0] + 2/3 b[0]* + 1/5 c + 3/4 b[1].b[1]*")):
        ctx = AlgebraContext(g)
        x = parse_expression(text, ctx)
        power = ref = x
        for _ in range(11):
            power = power * x
            ref = pair_loop_multiply(ref, x)
        assert power == ref
        largest = max(c.denominator for c in power.terms.values())
        assert largest == max(c.denominator for c in ref.terms.values())
        assert power._den == math.lcm(*(c.denominator for c in ref.terms.values()))


def test_a_wide_element_round_trips_in_linear_time():
    g = Graph(["u", "w"], [Edge("b", "u", "w", 8192)])
    ctx = AlgebraContext(g)
    x = parse_expression("b[0].b[0]*", ctx)
    obj = x.to_obj()
    assert len(obj) == 8192
    start = time.perf_counter()
    assert leavitt.element_from_obj(ctx, obj) == x
    assert time.perf_counter() - start < 2.0


def _q_element(rng: random.Random, ctx: AlgebraContext) -> leavitt.AlgebraElement:
    """A sum of normalized monomials with coefficients over 1, 2, 3, 4, 6 and 9,
    so that sums and products often share a factor with the denominator."""
    terms = [ctx.monomial(*_pair(rng, ctx.graph), _coeff(rng, ctx)) for _ in range(rng.randint(1, 5))]
    return leavitt.AlgebraElement.sum(terms)


def _cancelling(rng: random.Random, x: leavitt.AlgebraElement) -> leavitt.AlgebraElement:
    """Minus a nonempty part of ``x``'s terms (``x`` itself when it is 0)."""
    terms = list(x.terms.items())
    if not terms:
        return x
    return leavitt.AlgebraElement(x.ctx, {m: -c for m, c in rng.sample(terms, rng.randint(1, len(terms)))})


def test_reduce_builds_the_canonical_form_of_the_comprehensions(monkeypatch):
    """Over Q, ``reduce`` may return the caller's map as it is; sums,
    scaling, products and ``_from_terms`` that cancel terms to zero or
    leave a factor common to the numerators and the denominator give the
    state the old reduce gives, and leave their operands unchanged."""
    rng = random.Random(1919)
    events: Counter = Counter()
    op = None

    def watched(self, acc, d):
        if 0 in acc.values():
            events[op, "zero"] += 1
        flat, den = _comprehension_reduce(self, acc, d)
        if flat and den < d:
            events[op, "factor"] += 1
        return flat, den

    graphs = itertools.cycle(sized(2, 4, 2))
    checked = 0
    while checked < 2200:
        g = next(graphs)
        ctx = AlgebraContext(g, RATIONALS, special_edges=context(rng, g).special)
        x, y = _q_element(rng, ctx), _q_element(rng, ctx)
        keys = [k for z in (x, y) for k in z._flat] + [
            (p.base, p.edges, q.base, q.edges) for p, q in (_pair(rng, g) for _ in range(3))
        ]
        scalars = [_coeff(rng, ctx) for _ in keys]
        repeat = rng.sample(range(len(keys)), rng.randint(1, len(keys)))
        keys += [keys[i] for i in repeat]
        scalars += [-scalars[i] for i in repeat]
        operations = {
            "sum": lambda: leavitt.AlgebraElement.sum([x, _cancelling(rng, x), y]),
            "scale": lambda: x.scale(rng.choice((0, 2, 3, 6, 9, Fraction(2, 3), Fraction(-9, 2)))),
            "product": lambda: (x + y) * (_cancelling(rng, y) + x),
            "_from_terms": lambda: _from_terms(ctx, keys, scalars),
        }
        before = [dict(z._flat) for z in (x, y)]
        for op, make in operations.items():
            state = rng.getstate()
            lib = make()
            rng.setstate(state)
            with monkeypatch.context() as m:
                m.setattr(Rationals, "reduce", watched)
                want = make()
            _assert_canonical(lib)
            assert lib._den == want._den and lib._flat == want._flat, op
            assert [dict(z._flat) for z in (x, y)] == before
            checked += 1
    for op in ("sum", "scale", "product", "_from_terms"):
        assert events[op, "zero"] >= 50 and events[op, "factor"] >= 50, (op, events)
