"""Simple-module actions over infinite paths and infinite emitters.

Module vectors are plain dicts from basis elements to nonzero scalars.  For a
tail-equivalence class of infinite paths the basis elements are described by a
finite prefix glued onto a tail of one fixed stream; for an infinite emitter v
the basis elements are the finite paths ending at v.  Monomials act ghost
part first: p q* sends a basis element b to p applied to (q* applied to b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .algebra import AlgebraContext, AlgebraElement, _require_context
from .errors import ContextMismatchError, NotSupportedError, ResourceCapError
from .graph import (
    OMEGA,
    Cycle,
    Graph,
    Path,
    _require_cycle,
    _require_graph,
    _require_int,
    canonical_cycle,
    cycle_base,
    make_path,
    path_range,
)


# ---------------------------------------------------------------------------
# Infinite path descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PeriodicPath:
    """prefix . period . period . ...; edges are concrete addresses.

    Stored in canonical form: the period is primitive (not a repetition of a
    shorter closed path) and the prefix cannot be absorbed into a rotation of
    the period.  The stream is rational exactly when the prefix is empty.
    """

    prefix: Path
    period: Path

    def edge_at(self, n: int) -> str:
        if not isinstance(n, int) or n < 1:
            _require_int(n, "a stream position")
            raise NotSupportedError(f"stream positions start at 1, not {n}")
        lp = len(self.prefix.edges)
        if n <= lp:
            return self.prefix.edges[n - 1]
        return self.period.edges[(n - lp - 1) % len(self.period.edges)]

    def source(self) -> str:
        return self.prefix.base if self.prefix.edges else self.period.base

    @property
    def is_rational(self) -> bool:
        return not self.prefix.edges


@dataclass(frozen=True)
class GeneratedStream:
    """The irrational stream g h g^2 h^2 g^3 h^3 ... of two distinct cycles
    sharing a base vertex; ``g`` and ``h`` are rotated to start at the base."""

    g: tuple[str, ...]
    h: tuple[str, ...]

    def edge_at(self, n: int) -> str:
        if not isinstance(n, int) or n < 1:
            _require_int(n, "a stream position")
            raise NotSupportedError(f"stream positions start at 1, not {n}")
        pos = n
        rep = 1
        while True:
            block = rep * len(self.g)
            if pos <= block:
                return self.g[(pos - 1) % len(self.g)]
            pos -= block
            block = rep * len(self.h)
            if pos <= block:
                return self.h[(pos - 1) % len(self.h)]
            pos -= block
            rep += 1

    @property
    def is_rational(self) -> bool:
        return False


StreamDescriptor = Union[PeriodicPath, GeneratedStream]


def _require_stream(x) -> StreamDescriptor:
    """``x``, which must be a stream descriptor."""
    if not isinstance(x, (PeriodicPath, GeneratedStream)):
        raise NotSupportedError(f"expected a stream descriptor, not {x!r}")
    return x


def periodic_stream(g: Graph, period_edges, prefix_edges=()) -> PeriodicPath:
    period = make_path(g, period_edges)
    if path_range(g, period) != period.base:
        raise NotSupportedError("period must be a closed path")
    pre = []
    if prefix_edges:
        prefix = make_path(g, prefix_edges)
        if path_range(g, prefix) != period.base:
            raise NotSupportedError("prefix must end at the source of the period")
        pre = list(prefix.edges)
    # primitivize the period
    per = list(period.edges)
    for d in range(1, len(per) + 1):
        if len(per) % d == 0 and per == per[:d] * (len(per) // d):
            per = per[:d]
            break
    # absorb an absorbable prefix tail, rotating the period along
    while pre and pre[-1] == per[-1]:
        pre.pop()
        per = [per[-1]] + per[:-1]
    # a rotation of a closed path and a prefix of a path are paths
    per_path = Path(g.src_of(per[0]), tuple(per))
    pre_path = Path(g.src_of(pre[0]), tuple(pre)) if pre else Path(per_path.base)
    return PeriodicPath(pre_path, per_path)


def generated_stream(g: Graph, first: Cycle, second: Cycle, base: str | None = None) -> GeneratedStream:
    """Interleaved stream of two distinct cycles through a shared base vertex."""
    _require_graph(g)
    if _require_cycle(first) == _require_cycle(second):
        raise NotSupportedError("the two cycles must be distinct")
    verts1 = {g.src_of(a): i for i, a in enumerate(first.edges)}
    verts2 = {g.src_of(a): i for i, a in enumerate(second.edges)}
    shared = sorted(set(verts1) & set(verts2))
    if not shared:
        raise NotSupportedError("the two cycles share no vertex")
    if base is None:
        base = shared[0]
    elif base not in shared:
        raise NotSupportedError(f"{base!r} is not a common vertex of the two cycles")
    e1 = first.edges[verts1[base]:] + first.edges[: verts1[base]]
    e2 = second.edges[verts2[base]:] + second.edges[: verts2[base]]
    return GeneratedStream(e1, e2)


def stream_source(g: Graph, stream: StreamDescriptor) -> str:
    if isinstance(stream, PeriodicPath):
        return stream.source()
    return g.src_of(_require_stream(stream).g[0])


def stream_vertex_after(g: Graph, stream: StreamDescriptor, n: int) -> str:
    """The vertex where the tail past position n starts."""
    if n == 0:
        return stream_source(g, stream)
    return g.dst_of(stream.edge_at(n))


def stream_prefix(stream: StreamDescriptor, n: int) -> tuple[str, ...]:
    """The first n edge addresses of the stream."""
    return tuple(map(_require_stream(stream).edge_at, range(1, n + 1)))


# ---------------------------------------------------------------------------
# Basis elements of the infinite-path module
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChenBasisElement:
    """``prefix . tail_index``-th tail of the stream, in canonical form.

    Canonical means the prefix cannot be folded back into the stream (its
    last edge differs from the stream edge at ``tail_index``) and, for a
    periodic stream, the tail index is reduced modulo the period.
    """

    stream: StreamDescriptor
    prefix: Path
    tail_index: int


def chen_basis_element(
    g: Graph, stream: StreamDescriptor, prefix: Path | None = None, tail_index: int = 0
) -> ChenBasisElement:
    _require_stream(stream)
    if _require_int(tail_index, "the tail index") < 0:
        raise NotSupportedError("tail index must be >= 0")
    if prefix is None:
        return _canonical(g, stream, (), tail_index)
    if path_range(g, prefix) != stream_vertex_after(g, stream, tail_index):
        raise NotSupportedError("prefix does not chain onto the stream tail")
    return _canonical(g, stream, tuple(prefix.edges), tail_index)


def _canonical(g: Graph, stream: StreamDescriptor, edges: tuple[str, ...], n: int) -> ChenBasisElement:
    """The basis element ``edges`` . n-th tail of the stream, in canonical
    form; ``edges`` must chain onto that tail."""
    k = len(edges)
    periodic = isinstance(stream, PeriodicPath)
    if periodic:
        lp = len(stream.prefix.edges)
        ell = len(stream.period.edges)
    while True:
        if periodic and n >= lp:
            n = lp + (n - lp) % ell
        if k and n >= 1 and edges[k - 1] == stream.edge_at(n):
            k -= 1
            n -= 1
        # a prefix may wrap backwards around the period: tail(n) = tail(n+ell)
        elif periodic and k and n >= lp and edges[k - 1] == stream.edge_at(n + ell):
            k -= 1
            n += ell - 1
        else:
            break
    base = g.src_of(edges[0]) if k else stream_vertex_after(g, stream, n)
    return ChenBasisElement(stream, Path(base, edges[:k]), n)


# ---------------------------------------------------------------------------
# Module vectors and actions
# ---------------------------------------------------------------------------


def _act(ctx: AlgebraContext, x: AlgebraElement, vec: dict, step, basis: type) -> dict:
    """Act with x on ``vec``, a dict with keys of type ``basis``;
    ``step(b, p.edges, q.base, q.edges)`` is the basis element p q* sends
    the basis element b to, or None for zero.  p and q share their range,
    so p always chains onto what q* leaves."""
    if not (isinstance(vec, dict) and all(isinstance(b, basis) for b in vec)):
        raise NotSupportedError(f"a module vector here is a dict from {basis.__name__}s to scalars")
    if not isinstance(x, AlgebraElement):
        raise NotSupportedError(f"expected an AlgebraElement, not {x!r}")
    if x.ctx is not ctx and x.ctx != ctx:
        raise ContextMismatchError("element belongs to a different algebra context")
    field = ctx.field
    add, mul, zero = field.add, field.mul, field.zero
    d = x._den
    out: dict = {}
    for (_, pe, qb, qe), n in x._flat.items():
        c = field.from_integral(n, d)
        for b, w in vec.items():
            t = step(b, pe, qb, qe)
            if t is not None:
                new = add(out.get(t, zero), mul(c, w))
                if new == zero:
                    out.pop(t, None)
                else:
                    out[t] = new
    return out


def chen_act(ctx: AlgebraContext, x: AlgebraElement, vec: dict) -> dict:
    """Act with x on a vector over infinite-path basis elements.

    Rules, extended linearly: a vertex fixes the paths it sources and kills
    the rest; an edge prepends when it chains; a ghost edge removes the first
    edge when it matches and kills the rest.
    """
    g = _require_context(ctx).graph

    def step(b: ChenBasisElement, pe, qb, qe) -> ChenBasisElement | None:
        # strip q from the front of b, reading on into the stream's tail
        be, n = b.prefix.edges, b.tail_index
        lb = len(be)
        if not qe and qb != b.prefix.base:
            return None
        for i, addr in enumerate(qe):
            if addr != (be[i] if i < lb else b.stream.edge_at(n + i - lb + 1)):
                return None
        return _canonical(g, b.stream, pe + be[len(qe):], n + max(0, len(qe) - lb))

    return _act(ctx, x, vec, step, ChenBasisElement)


def sv_act(ctx: AlgebraContext, v: str, x: AlgebraElement, vec: dict) -> dict:
    """Act with x on a vector over the finite paths ending at the infinite
    emitter ``v``; ghost edges additionally kill the length-0 path."""
    g = _require_context(ctx).graph
    if not g.is_infinite_emitter(g.require_vertex(v)):
        raise NotSupportedError(f"{v!r} is not an infinite emitter")

    def step(b: Path, pe, qb, qe) -> Path | None:
        if path_range(g, b) != v:
            raise NotSupportedError(f"basis path does not end at {v!r}")
        # a ghost edge past the end of b meets the bare vertex: zero
        if b.edges[: len(qe)] != qe or not qe and qb != b.base:
            return None
        edges = pe + b.edges[len(qe):]
        return Path(g.src_of(edges[0]), edges) if edges else Path(v)

    return _act(ctx, x, vec, step, Path)


def singleton_vector(ctx: AlgebraContext, key, coeff=1) -> dict:
    return {key: ctx.field.coerce(coeff)}


# ---------------------------------------------------------------------------
# Bifurcation kernel data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelData:
    """Bifurcating positions along a stream with the kernel generators they
    contribute and the matching path idempotents."""

    bifurcating_integers: tuple[int, ...]
    generators: tuple[tuple[int, tuple[AlgebraElement, ...]], ...]
    mu: tuple[tuple[int, AlgebraElement], ...]

    def generators_at(self, n: int) -> tuple[AlgebraElement, ...]:
        return _at_position(self.generators, n)

    def mu_at(self, n: int) -> AlgebraElement:
        return _at_position(self.mu, n)


def _at_position(pairs, n: int):
    for k, value in pairs:
        if k == n:
            return value
    raise NotSupportedError(f"position {n!r} does not bifurcate")


def bifurcation_data(ctx: AlgebraContext, stream: StreamDescriptor, depth: int) -> KernelData:
    """Scan the first ``depth`` edges of the stream for bifurcations.

    At each bifurcating position n the off-stream edges f at the source of the
    n-th edge give generators f* (prefix of length n-1)*, and the idempotent
    mu_n is (prefix of length n-1)(prefix of length n-1)*.
    """
    g = _require_context(ctx).graph
    _require_stream(stream)
    if _require_int(depth, "depth") < 1:
        raise NotSupportedError("depth must be >= 1")
    integers = []
    gens = []
    mus = []
    for n in range(1, depth + 1):
        addr = stream.edge_at(n)
        vn = g.src_of(addr)
        d = g.out_degree(vn)
        if d is OMEGA:
            raise ResourceCapError(
                f"vertex {vn!r} emits infinitely many edges; generator list is infinite"
            )
        if d < 2:
            continue
        integers.append(n)
        # the stream's first n - 1 edges form a path
        head_path = Path(stream_source(g, stream), stream_prefix(stream, n - 1))
        gen_list = []
        for f in g.concrete_out(vn):
            if f == addr:
                continue
            q = Path(head_path.base, head_path.edges + (f,))
            gen_list.append(ctx.monomial(Path(g.dst_of(f)), q))
        gens.append((n, tuple(gen_list)))
        mus.append((n, ctx.monomial(head_path, head_path)))
    return KernelData(tuple(integers), tuple(gens), tuple(mus))


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def stream_to_obj(stream: StreamDescriptor) -> dict:
    if isinstance(_require_stream(stream), PeriodicPath):
        return {
            "kind": "periodic",
            "prefix": list(stream.prefix.edges),
            "period": list(stream.period.edges),
        }
    return {"kind": "ghstream", "g": " ".join(stream.g), "h": " ".join(stream.h)}


def stream_from_obj(g: Graph, obj) -> StreamDescriptor:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise NotSupportedError("stream descriptor must be an object with a \"kind\"")
    if obj["kind"] == "periodic":
        period, prefix = obj.get("period", []), obj.get("prefix", [])
        for key, value in (("period", period), ("prefix", prefix)):
            if not (isinstance(value, list) and all(isinstance(a, str) for a in value)):
                raise NotSupportedError(f"the stream's \"{key}\" must be a list of edge addresses")
        return periodic_stream(g, period, prefix)
    if obj["kind"] == "ghstream":
        if "g" not in obj or "h" not in obj:
            raise NotSupportedError("a ghstream descriptor needs the cycles \"g\" and \"h\"")
        first = canonical_cycle(g, str(obj["g"]).replace(",", " ").split())
        second = canonical_cycle(g, str(obj["h"]).replace(",", " ").split())
        return generated_stream(g, first, second)
    raise NotSupportedError(f"unknown stream kind {obj['kind']!r}")
