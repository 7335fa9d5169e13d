"""Exact symbolic Leavitt path algebra.

Elements are finite linear combinations of monomials p q* (p, q paths with a
common range) over an exact field: arbitrary-precision rationals by default,
or a prime field GF(p).  Products contract ghost-against-real path prefixes
(e*e = r(e), e*f = 0) and are then rewritten to a canonical normal form that
eliminates, at every regular vertex, the pair gamma gamma* of a chosen
"special" outgoing edge: p gamma (q gamma)* becomes p q* minus the sibling
terms (p f)(q f)*.  The siblings are normal, so a term reduces along one
chain, two edges shorter at each step; two elements are equal iff their
normal term maps are equal.  No reduction is ever applied at sinks or
infinite emitters.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from json.encoder import encode_basestring_ascii
from operator import mul
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

from .errors import ContextMismatchError, NotSupportedError, ResourceCapError, SchemaError
from .graph import (
    Graph,
    Path,
    _address,
    _addresses,
    _require_graph,
    _require_int,
    is_regular,
    make_path,
    path_range,
)

MAX_BASIS_DEFAULT = 1_000_000


# ---------------------------------------------------------------------------
# Exact scalar fields
# ---------------------------------------------------------------------------


class Rationals:
    """Exact rational scalars backed by :class:`fractions.Fraction`."""

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            try:
                return Fraction(x)
            except (ValueError, ZeroDivisionError):
                pass
        raise NotSupportedError(f"cannot coerce {x!r} to a rational scalar")

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def invert(self, a):
        if a == 0:
            raise NotSupportedError("inverse of zero")
        return self.one / a

    def integral(self, values: Iterable[Fraction]) -> tuple[list[int], int]:
        """Integers n_i and one denominator d (the lcm) with value_i = n_i / d."""
        values = list(values)
        d = math.lcm(*(v.denominator for v in values))
        return [v.numerator * (d // v.denominator) for v in values], d

    def reduce(self, acc: dict, d: int) -> tuple[dict, int]:
        """The canonical form of the values n / d for n in ``acc``: zeros
        dropped, and the numerators and ``d`` divided by their gcd, so that
        ``d`` is the lcm of the reduced denominators (1 for no values).

        ``acc`` is the caller's fresh map and may be returned as it is: a
        new map is built only to drop a zero or to divide by a common
        factor, so a map already in canonical form costs one scan of its
        values and no hashing of its keys.
        """
        if 0 in acc.values():
            acc = {k: n for k, n in acc.items() if n}
        if d == 1 or not acc:
            return acc, 1
        g = math.gcd(d, *acc.values())
        if g > 1:
            acc = {k: n // g for k, n in acc.items()}
            d //= g
        return acc, d

    def from_integral(self, n: int, d: int) -> Fraction:
        return Fraction(n, d)

    def format_integral(self, n: int, d: int) -> str:
        """``format(from_integral(n, d))`` without building the Fraction."""
        g = math.gcd(n, d)
        try:
            return str(n // g) if d == g else f"{n // g}/{d // g}"
        except ValueError:  # str() converts at most sys.get_int_max_str_digits() digits
            limit = sys.get_int_max_str_digits()
            raise ResourceCapError(f"a coefficient has more than {limit} digits, too long to print") from None

    def format(self, a) -> str:
        return self.format_integral(a.numerator, a.denominator)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


# Miller-Rabin with the first 13 primes as bases is exact below _MR_BOUND,
# the least strong pseudoprime to all of them (Jiang and Deng, Math. Comp.
# 2014).  The first 12 bases are not enough: 318665857834031151167461 is a
# strong pseudoprime to each of them.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; cost grows with the digits of ``n``, not
    with its square root."""
    # the size of a rejected n, not its digits: str() converts at most
    # sys.get_int_max_str_digits() digits (and PrimeField prints the n < 2)
    if abs(n) >= _MR_BOUND:
        raise NotSupportedError(
            f"primality is decided only below {_MR_BOUND} in absolute value, not for an integer of {n.bit_length()} bits"
        )
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The prime field GF(p); scalars are ints reduced mod p."""

    def __init__(self, p: int):
        if not _is_prime(_require_int(p, "the order of a prime field")):
            raise NotSupportedError(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, x) -> int:
        """``x`` mod p; a fraction whose denominator p divides has no value."""
        p = self.p
        if isinstance(x, int):
            return x % p
        if isinstance(x, Fraction):
            num, den = x.numerator, x.denominator
        elif isinstance(x, str):
            num, sep, den = x.partition("/")
            try:
                num, den = int(num), int(den) if sep else 1
            except ValueError:
                raise NotSupportedError(f"cannot coerce {x!r} into GF({p})") from None
        else:
            raise NotSupportedError(f"cannot coerce {x!r} into GF({p})")
        if den % p == 0:
            raise NotSupportedError(f"the scalar {x} has no value in GF({p}): {p} divides its denominator")
        return self.mul(num % p, self.invert(den % p))

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def invert(self, a):
        if a % self.p == 0:
            raise NotSupportedError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def integral(self, values: Iterable[int]) -> tuple[list[int], int]:
        """The scalars themselves, over the denominator 1."""
        return list(values), 1

    def reduce(self, acc: dict, d: int) -> tuple[dict, int]:
        """The values of ``acc`` reduced mod p, without zeros, over 1.

        ``d`` is a product of denominators from ``integral``, so it is 1.
        """
        p = self.p
        flat = {}
        for k, n in acc.items():
            n %= p
            if n:
                flat[k] = n
        return flat, 1

    def from_integral(self, n: int, d: int) -> int:
        return n % self.p

    def format_integral(self, n: int, d: int) -> str:
        return str(n % self.p)

    def format(self, a) -> str:
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


Field = Union[Rationals, PrimeField]
RATIONALS = Rationals()


# ---------------------------------------------------------------------------
# Monomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Monomial:
    """The product p q* of a real path and a ghost path with common range."""

    p: Path
    q: Path

    def __post_init__(self):
        if not (isinstance(self.p, Path) and isinstance(self.q, Path)):
            raise NotSupportedError(f"a monomial is a pair of paths, not {self.p!r} and {self.q!r}")

    @property
    def degree(self) -> int:
        return len(self.p.edges) - len(self.q.edges)

    @property
    def total_length(self) -> int:
        return len(self.p.edges) + len(self.q.edges)

    def sort_key(self):
        return (self.degree, self.p.edges, self.p.base, self.q.edges, self.q.base)

    def __str__(self):
        parts = [".".join(self.p.edges)] if self.p.edges else []
        if self.q.edges:
            parts.append(".".join(a + "*" for a in reversed(self.q.edges)))
        if not parts:
            return self.p.base
        return ".".join(parts)


# ---------------------------------------------------------------------------
# Algebra context and elements
# ---------------------------------------------------------------------------


class AlgebraContext:
    """A graph together with a scalar field and a special-edge choice.

    The special edge of each regular vertex fixes the direction of the
    canonical normal form; by default it is the lexicographically smallest
    outgoing concrete edge address.
    """

    def __init__(
        self,
        graph: Graph,
        field: Field = RATIONALS,
        special_edges: Mapping[str, str] | None = None,
    ):
        self.graph = _require_graph(graph)
        if not isinstance(field, (Rationals, PrimeField)):
            raise NotSupportedError(f"the field must be RATIONALS or a PrimeField, not {field!r}")
        self.field = field
        # id[0] is the least address of its bundle
        special = {
            v: min(_address(e, 0) for e in graph.out_bundles(v)) for v in graph.vertices if is_regular(graph, v)
        }
        if special_edges is not None:
            if not isinstance(special_edges, Mapping):
                raise SchemaError(f"special edges must map vertex ids to edge addresses, not {special_edges!r}")
            for v, addr in special_edges.items():
                if v not in special:
                    raise NotSupportedError(f"{v!r} is not a regular vertex")
                if graph.src_of(addr) != v:
                    raise NotSupportedError(f"{addr!r} does not leave {v!r}")
                special[v] = addr
        self.special = special
        # each special edge leaves its vertex (checked above), so a path
        # step is reducible exactly when its address is a key here
        self._special_src = {a: v for v, a in special.items()}
        self._sibling_cache: dict[str, tuple[str, ...]] = {}

    def _siblings(self, v: str) -> tuple[str, ...]:
        """The concrete out-edges of the regular vertex ``v`` other than its
        special edge, in bundle order, listed on first use only."""
        sib = self._sibling_cache.get(v)
        if sib is None:
            addr = self.special[v]
            sib = self._sibling_cache[v] = tuple(
                f for e in self.graph.out_bundles(v) for f in _addresses(e) if f != addr
            )
        return sib

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraContext)
            and self.graph == other.graph
            and self.field == other.field
            and self.special == other.special
        )

    def __hash__(self):
        return hash((self.graph, self.field, tuple(sorted(self.special.items()))))

    # -- element factories --------------------------------------------------

    def zero(self) -> "AlgebraElement":
        return AlgebraElement._make(self, {}, 1)

    def vertex(self, v: str) -> "AlgebraElement":
        self.graph.require_vertex(v)
        return AlgebraElement._make(self, {(v, (), v, ()): 1}, 1)

    def edge(self, address: str) -> "AlgebraElement":
        e = self.graph.resolve(address)
        return AlgebraElement._make(self, {(e.src, (address,), e.dst, ()): 1}, 1)

    def ghost(self, address: str) -> "AlgebraElement":
        e = self.graph.resolve(address)
        return AlgebraElement._make(self, {(e.dst, (), e.src, (address,)): 1}, 1)

    def monomial(self, p: Path, q: Path, coeff=1) -> "AlgebraElement":
        """The element p q* (normalized); p and q must share their range."""
        return normalize_monomial(self, p, q, coeff)

    def path_element(self, edges: Iterable[str], base: str | None = None) -> "AlgebraElement":
        p = make_path(self.graph, edges, base)
        return AlgebraElement._make(self, {(p.base, p.edges, path_range(self.graph, p), ()): 1}, 1)

    def scalar(self, value) -> object:
        return self.field.coerce(value)

    def _require_common_range(self, p: Path, q: Path) -> None:
        if not (isinstance(p, Path) and isinstance(q, Path)):
            raise NotSupportedError(f"p and q must be Paths, not {p!r} and {q!r}")
        if path_range(self.graph, p) != path_range(self.graph, q):
            raise NotSupportedError("p and q must have a common range")


def _require_context(x) -> AlgebraContext:
    """``x``, which must be an :class:`AlgebraContext`."""
    if not isinstance(x, AlgebraContext):
        raise NotSupportedError(f"expected an AlgebraContext, not {x!r}")
    return x


# An element's state is a flat term map {(p.base, p.edges, q.base, q.edges):
# n} with integer numerators over one denominator d, in the canonical form of
# the field's ``reduce``.  Products, sums and serialization work on it
# directly; Path, Monomial and scalar objects are built only when ``terms``
# is read.


def _rewrite(ctx: AlgebraContext, terms: Iterable[tuple], acc: dict) -> None:
    """Add the normal form of each ((p.base, p.edges, q.base, q.edges), n)
    in ``terms`` to ``acc``, a map from flat keys to integer coefficients.

    While both paths of a term end in the special edge of its source w, the
    term becomes the term with that edge dropped minus the sibling terms
    (p f)(q f)*.  A sibling ends in f, which leaves w and is not its special
    edge, so it is normal and goes straight to ``acc``: each term reduces
    along one chain, two edges shorter at each step.
    """
    special = ctx._special_src
    for key, c in terms:
        pb, pe, qb, qe = key
        while pe and qe and pe[-1] == qe[-1] and pe[-1] in special:
            siblings = ctx._siblings(special[pe[-1]])
            # a path is based at the source of its first edge, so the bases
            # stay put even when the dropped edge was the only one
            pe, qe = pe[:-1], qe[:-1]
            for f in siblings:
                k = (pb, pe + (f,), qb, qe + (f,))
                acc[k] = acc.get(k, 0) - c
            key = (pb, pe, qb, qe)
        acc[key] = acc.get(key, 0) + c


def _from_terms(ctx: AlgebraContext, keys: Sequence[tuple], scalars: Sequence) -> "AlgebraElement":
    """The element sum of c * p q* over the flat keys (p.base, p.edges,
    q.base, q.edges) in ``keys`` and the field scalars c in ``scalars``: the
    scalars go over one denominator, every term is rewritten in one pass,
    and the sum is reduced once.  Repeated and non-normal keys are allowed.
    """
    nums, d = ctx.field.integral(scalars)
    acc: dict[tuple, int] = {}
    _rewrite(ctx, zip(keys, nums), acc)
    return AlgebraElement._make(ctx, *ctx.field.reduce(acc, d))


def _product(ctx: AlgebraContext, left: dict, right: dict) -> dict:
    """The normal form of the product of two flat term maps, with integer
    coefficients over the product of the two denominators.

    (p1 q1*)(p2 q2*) is nonzero only when q1 and p2 start at the same vertex
    and one is a prefix of the other (e* e = r(e), e* f = 0 for e != f).  The
    right terms are indexed by the base and first edge of p2 (None for a
    vertex), so a ghost part q1 meets only the right terms it can contract
    with.  Whether q1 contracts with p2, and the tail of p2 beyond q1 and the
    new ghost part, depend on q1 alone, so the left terms are grouped by
    their ghost part and each distinct one is contracted once; per left term
    only p1 + tail is built.
    """
    by_base: dict[str, list] = {}
    by_head: dict[tuple, list] = {}
    for (pb, pe, qb, qe), c in right.items():
        entry = (pe, qb, qe, c)
        by_base.setdefault(pb, []).append(entry)
        by_head.setdefault((pb, pe[0] if pe else None), []).append(entry)
    groups: dict[tuple, list] = {}
    for (pb, pe, qb, qe), c1 in left.items():
        groups.setdefault((qb, qe), []).append((pb, pe, c1))
    special = ctx._special_src
    acc: dict[tuple, int] = {}
    reducible = []
    for (qb, qe), lefts in groups.items():
        la = len(qe)
        if la:
            matches = by_head.get((qb, None), []) + by_head.get((qb, qe[0]), [])
        else:
            matches = by_base.get(qb, ())
        for e2, b2, f2, c2 in matches:
            lb = len(e2)
            if la <= lb:
                if e2[:la] != qe:
                    continue
                tail, q2 = e2[la:], f2
            else:
                if qe[:lb] != e2:
                    continue
                tail, q2 = (), f2 + qe[lb:]
            # p1 + tail and q2 form a special pair only when both end in the
            # special edge q2[-1]; only those few terms go through _rewrite
            end = q2[-1] if q2 and q2[-1] in special else None
            if end is None or (tail and tail[-1] != end):
                for pb, pe, c1 in lefts:
                    key = (pb, pe + tail, b2, q2)
                    acc[key] = acc.get(key, 0) + c1 * c2
            elif tail:
                reducible.extend(((pb, pe + tail, b2, q2), c1 * c2) for pb, pe, c1 in lefts)
            else:
                for pb, pe, c1 in lefts:
                    if pe and pe[-1] == end:
                        reducible.append(((pb, pe, b2, q2), c1 * c2))
                    else:
                        key = (pb, pe, b2, q2)
                        acc[key] = acc.get(key, 0) + c1 * c2
    _rewrite(ctx, reducible, acc)
    return acc


def normalize_monomial(
    ctx: AlgebraContext, p: Path, q: Path, coeff=1, rng: object = None
) -> "AlgebraElement":
    """Normal form of coeff * p q*; p and q must share their range.  ``rng``
    has no effect: the term reduces along one chain, so there is no rewrite
    order to choose."""
    _require_context(ctx)._require_common_range(p, q)
    return _from_terms(ctx, [(p.base, p.edges, q.base, q.edges)], [ctx.field.coerce(coeff)])


class AlgebraElement:
    """A canonical finite linear combination of normal monomials.

    The state is the flat term map ``_flat`` with integer numerators over
    the positive denominator ``_den``, in the field's canonical form, so two
    elements are equal exactly when their contexts, ``_den`` and ``_flat``
    are.  ``terms`` is the same map keyed by :class:`Monomial`, built on
    first read.
    """

    __slots__ = ("ctx", "_flat", "_den", "_cached_terms")

    def __init__(self, ctx: AlgebraContext, terms: Mapping[Monomial, object]):
        """The element with the given terms, stored as given (normal or not)."""
        field = ctx.field
        nums, d = field.integral(field.coerce(c) for c in terms.values())
        acc = {(m.p.base, m.p.edges, m.q.base, m.q.edges): n for m, n in zip(terms, nums)}
        self.ctx = ctx
        self._flat, self._den = field.reduce(acc, d)
        self._cached_terms = None

    @classmethod
    def _make(cls, ctx: AlgebraContext, flat: dict, den: int) -> "AlgebraElement":
        """The element with an already canonical state."""
        self = cls.__new__(cls)
        self.ctx = ctx
        self._flat = flat
        self._den = den
        self._cached_terms = None
        return self

    @property
    def terms(self) -> Mapping[Monomial, object]:
        """The read-only map from each monomial to its nonzero scalar."""
        if self._cached_terms is None:
            from_integral = self.ctx.field.from_integral
            d = self._den
            self._cached_terms = MappingProxyType(
                {Monomial(Path(pb, pe), Path(qb, qe)): from_integral(n, d) for (pb, pe, qb, qe), n in self._flat.items()}
            )
        return self._cached_terms

    # -- structure ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._flat

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.ctx == other.ctx and self._den == other._den and self._flat == other._flat

    def __bool__(self):
        return bool(self._flat)

    def __str__(self):
        if not self._flat:
            return "0"
        bits = []
        one = self.ctx.field.one
        for m in sorted(self.terms, key=Monomial.sort_key):
            c = self.terms[m]
            coeff = "" if c == one else f"{self.ctx.field.format(c)} "
            bits.append(f"{coeff}{m}")
        return " + ".join(bits)

    def __repr__(self):
        return f"<{self}>"

    # -- arithmetic -------------------------------------------------------------

    def _check(self, other: "AlgebraElement") -> None:
        # comparing two contexts compares their graphs: O(V + E)
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ContextMismatchError("operands belong to different algebra contexts")

    @staticmethod
    def sum(elements: Iterable["AlgebraElement"]) -> "AlgebraElement":
        """The sum of one or more elements of one context, from any iterable.

        The terms go into one map over one common denominator, which is
        reduced once, so the cost is linear in the terms; folding ``+``
        would copy the accumulated map at every step.
        """
        try:
            items = iter(elements)
        except TypeError:
            raise NotSupportedError(f"a sum takes an iterable of algebra elements, not {elements!r}") from None
        elements = tuple(items)
        if not elements:
            raise NotSupportedError("a sum needs at least one element")
        first = elements[0]
        for x in elements:
            if not isinstance(x, AlgebraElement):
                raise NotSupportedError(f"only algebra elements can be added, not {x!r}")
            first._check(x)
        if len(elements) == 1:
            return first
        d = math.lcm(*(x._den for x in elements))
        acc: dict[tuple, int] = {}
        for x in elements:
            s = d // x._den
            for k, n in x._flat.items():
                acc[k] = acc.get(k, 0) + n * s
        return AlgebraElement._make(first.ctx, *first.ctx.field.reduce(acc, d))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement.sum((self, other))

    def __neg__(self) -> "AlgebraElement":
        acc = {k: -n for k, n in self._flat.items()}
        return AlgebraElement._make(self.ctx, *self.ctx.field.reduce(acc, self._den))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def scale(self, value) -> "AlgebraElement":
        field = self.ctx.field
        (s,), sd = field.integral([field.coerce(value)])
        acc = {k: n * s for k, n in self._flat.items()}
        return AlgebraElement._make(self.ctx, *field.reduce(acc, self._den * sd))

    def __rmul__(self, value) -> "AlgebraElement":
        return self.scale(value)

    def __mul__(self, other) -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return self.scale(other)
        self._check(other)
        acc = _product(self.ctx, self._flat, other._flat)
        return AlgebraElement._make(self.ctx, *self.ctx.field.reduce(acc, self._den * other._den))

    # -- grading & serialization -------------------------------------------------

    def degree_components(self) -> dict[int, "AlgebraElement"]:
        """Partition of the terms by monomial degree |p| - |q|."""
        buckets: dict[int, dict] = {}
        for k, n in self._flat.items():
            buckets.setdefault(len(k[1]) - len(k[3]), {})[k] = n
        reduce = self.ctx.field.reduce
        return {
            deg: AlgebraElement._make(self.ctx, *reduce(flat, self._den))
            for deg, flat in sorted(buckets.items())
        }

    def _rows(self) -> tuple[list[tuple], dict[int, str], range]:
        """The term order and format of :meth:`to_obj` and :meth:`_to_json`:
        the rows ``(degree, p.edges, p.base, q.edges, q.base, n)`` in the
        order of :meth:`Monomial.sort_key`, each distinct numerator n
        formatted once, and the positions of the vertex terms."""
        fmt = self.ctx.field.format_integral
        d = self._den
        # the keys are distinct, so the numerators are never compared
        rows = sorted([(len(pe) - len(qe), pe, pb, qe, qb, n) for (pb, pe, qb, qe), n in self._flat.items()])
        coeffs = {n: fmt(n, d) for n in set(self._flat.values())}
        # a vertex term is a row (0, (), v, (), v, n): they come first among
        # the terms of degree 0
        lo = hi = bisect_left(rows, (0, ()))
        while hi < len(rows) and not rows[hi][0] and not rows[hi][1]:
            hi += 1
        return rows, coeffs, range(lo, hi)

    def to_obj(self) -> list[dict]:
        """The terms as JSON objects ``{"p", "q", "coeff"}`` (and ``"v"``
        for a vertex term) in the order of :meth:`Monomial.sort_key`."""
        rows, coeffs, vertex_rows = self._rows()
        out = [{"p": list(pe), "q": list(qe), "coeff": coeffs[n]} for _, pe, _, qe, _, n in rows]
        for i in vertex_rows:
            out[i]["v"] = rows[i][2]
        return out

    def _to_json(self) -> str:
        """``json.dumps({"terms": self.to_obj()}, sort_keys=True)``, written
        from the rows without building the objects."""
        rows, coeffs, vertex_rows = self._rows()
        enc = encode_basestring_ascii
        coeffs = {n: enc(c) for n, c in coeffs.items()}
        j = ", ".join
        # a one-edge path, as each sibling of a (CK2) expansion is, needs no join
        terms = [
            f'{{"coeff": {coeffs[n]}, "p": [{enc(pe[0]) if len(pe) == 1 else j(map(enc, pe))}], '
            f'"q": [{enc(qe[0]) if len(qe) == 1 else j(map(enc, qe))}]}}'
            for _, pe, _, qe, _, n in rows
        ]
        for i in vertex_rows:
            terms[i] = f'{terms[i][:-1]}, "v": {enc(rows[i][2])}}}'
        return f'{{"terms": [{j(terms)}]}}'


_TERM_KEYS = frozenset(("p", "q", "coeff"))


def element_from_obj(ctx: AlgebraContext, obj) -> AlgebraElement:
    """Rebuild an element from its serialized term list.

    Each item is validated on its own; then all of them are rewritten
    together over one common denominator and reduced once.
    """
    g = _require_context(ctx).graph
    if not isinstance(obj, list):
        raise SchemaError("an element must be a list of terms")
    keys = []
    coeffs = []
    for item in obj:
        if not (isinstance(item, dict) and _TERM_KEYS <= item.keys()):
            raise SchemaError('each term must be an object with "p", "q" and "coeff"')
        p_edges, q_edges = item["p"], item["q"]
        if not all(isinstance(es, list) and all(isinstance(a, str) for a in es) for es in (p_edges, q_edges)):
            raise SchemaError('"p" and "q" of a term must be lists of edge addresses')
        if not p_edges and not q_edges:
            if not isinstance(item.get("v"), str):
                raise SchemaError('a vertex term needs its vertex id "v"')
            p = Path(g.require_vertex(item["v"]))
            q = p
        else:
            p = make_path(g, p_edges) if p_edges else None
            q = make_path(g, q_edges) if q_edges else None
            if p is None:
                p = Path(path_range(g, q))
            if q is None:
                q = Path(path_range(g, p))
        ctx._require_common_range(p, q)
        keys.append((p.base, p.edges, q.base, q.edges))
        coeffs.append(ctx.field.coerce(item["coeff"]))
    return _from_terms(ctx, keys, coeffs)


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    for x in (a, b):
        if not isinstance(x, AlgebraElement):
            raise NotSupportedError(f"expected an AlgebraElement, not {x!r}")
    return a * b


def degree_components(a: AlgebraElement) -> dict[int, AlgebraElement]:
    if not isinstance(a, AlgebraElement):
        raise NotSupportedError(f"expected an AlgebraElement, not {a!r}")
    return a.degree_components()


# ---------------------------------------------------------------------------
# Normal-form basis enumeration and growth
# ---------------------------------------------------------------------------


def is_normal(ctx: AlgebraContext, m: Monomial) -> bool:
    special = _require_context(ctx)._special_src
    if not isinstance(m, Monomial):
        raise NotSupportedError(f"expected a Monomial, not {m!r}")
    pe, qe = m.p.edges, m.q.edges
    return not (pe and qe and pe[-1] == qe[-1] and pe[-1] in special)


def _require_finite_bundles(g: Graph) -> None:
    if g._infinite is not None:
        raise ResourceCapError(f"bundle {g._infinite!r} is infinite; path enumeration is unbounded")


def _paths_by_length(g: Graph, max_len: int, cap: int) -> dict[str, list[list[Path]]]:
    """paths[v][l] = all paths of length l ending at v, up to ``max_len`` or
    the last length that has a path, each level extended bundle by bundle
    from the one before; fails on infinite emitters."""
    _require_finite_bundles(g)
    by_range: dict[str, list[list[Path]]] = {v: [[Path(v)]] for v in g.vertices}
    total = len(g.vertices)
    for l in range(max_len):
        nxt: dict[str, list[Path]] = {v: [] for v in g.vertices}
        for e in g.edges:
            paths = by_range[e.src][l]
            total += len(paths) * e.mult
            if total > cap:
                raise ResourceCapError(f"more than {cap} paths enumerated")
            nxt[e.dst].extend(Path(p.base, p.edges + (a,)) for a in _addresses(e) for p in paths)
        if not any(nxt.values()):
            break
        for v, paths in nxt.items():
            by_range[v].append(paths)
    return by_range


def enumerate_basis(
    g, max_total_length: int, max_basis: int = MAX_BASIS_DEFAULT
) -> list[Monomial]:
    """All normal monomials p q* with |p| + |q| <= ``max_total_length``.

    For an acyclic graph this is the full finite basis once the bound reaches
    twice the longest path length.
    """
    ctx = g if isinstance(g, AlgebraContext) else AlgebraContext(g)
    _require_int(max_total_length, "the basis length bound")
    by_range = _paths_by_length(ctx.graph, max_total_length, _require_int(max_basis, "the basis cap"))
    out: list[Monomial] = []
    for lengths in by_range.values():
        for lp, ps in enumerate(lengths):
            for qs in lengths[: max_total_length - lp + 1]:
                for p in ps:
                    for q in qs:
                        m = Monomial(p, q)
                        if is_normal(ctx, m):
                            out.append(m)
                            if len(out) > max_basis:
                                raise ResourceCapError(f"basis exceeds the cap {max_basis}")
    return sorted(out, key=Monomial.sort_key)


def growth_profile(g, n_max: int) -> list[int]:
    """dim V_n for n = 0..n_max, where V_n is spanned by all products of at
    most n vertex/edge/ghost generators.

    Rewriting never lengthens a word, so dim V_n equals the number of normal
    monomials with |p| + |q| <= n.  They are counted from ``counts[v][l]``,
    the number of paths of length l ending at v, without materializing any
    path or pair: those of total length k number (c_v * c_v)[k] summed over
    the vertices v, less (c_w * c_w)[k - 2] for each regular vertex w, whose
    special edge s makes (p s)(q s)* reducible for each pair (p, q) ending
    at w.  No count depends on which edge s is, so a context is read only
    for its graph.  O(n * E + n^2 * V) integer operations.
    """
    if _require_int(n_max, "the growth bound") < 0:
        raise NotSupportedError(f"the growth bound must be at least 0, not {n_max}")
    g = g.graph if isinstance(g, AlgebraContext) else _require_graph(g)
    _require_finite_bundles(g)
    counts = {v: [1] + [0] * n_max for v in g.vertices}
    for l in range(n_max):
        for e in g.edges:
            counts[e.dst][l + 1] += e.mult * counts[e.src][l]
    # per_total[k] = the normal monomials with |p| + |q| = k
    per_total = [0] * (n_max + 1)
    for v in g.vertices:
        cv = counts[v]
        square = [sum(map(mul, cv[: k + 1], cv[k::-1])) for k in range(n_max + 1)]
        for k, x in enumerate(square):
            per_total[k] += x
        if is_regular(g, v):
            for k, x in enumerate(square[: n_max - 1]):
                per_total[k + 2] -= x
    return list(accumulate(per_total))
