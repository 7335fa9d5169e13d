"""Directed graph model with path/cycle/tree machinery and vertex classification.

Vertices are opaque string ids.  Parallel edges are modelled as bundles: an
edge record with multiplicity ``k`` stands for the k concrete edges
``id[0] .. id[k-1]``, and multiplicity ``OMEGA`` for countably many concrete
edges ``id[0], id[1], ...``.  A multiplicity-1 bundle is addressed by its bare
id.  All values are immutable after construction and every operation here is
a pure function.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field
from functools import partial
from itertools import product
from math import prod
from operator import attrgetter
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

from .errors import (
    InfinitelyManyCyclesError,
    NotSupportedError,
    ResourceCapError,
    SchemaError,
    UnknownEdgeError,
    UnknownVertexError,
)

MAX_CYCLES_DEFAULT = 100_000


class _Omega:
    """Sentinel for a countably infinite edge multiplicity."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "omega"

    def __reduce__(self):
        return (_Omega, ())


OMEGA = _Omega()

Mult = Union[int, _Omega]

_ADDRESS_RE = re.compile(r"^(.*?)\[(\d+)\]$")


class Edge(NamedTuple):
    """An edge bundle: ``mult`` parallel edges from ``src`` to ``dst``."""

    id: str
    src: str
    dst: str
    mult: Mult = 1


# an Edge from its four fields, as Edge(...) builds it but without the call
# of the Python-level Edge.__new__: graph_from_obj builds one per edge object
_new_edge = partial(tuple.__new__, Edge)


class Graph:
    """A finite directed graph with multiplicity-labelled edge bundles."""

    __slots__ = ("vertices", "edges", "_out", "_in", "_by_id", "_succ", "_degree", "_infinite", "_scc")

    def __init__(self, vertices: Iterable[str], edges: Iterable[Edge | tuple]):
        # a string is an iterable of letters, not of vertex ids
        if isinstance(vertices, str):
            raise SchemaError(f'"vertices" must be a list of strings, not the string {vertices!r}')
        try:
            vs = tuple(vertices)
        except TypeError:
            raise SchemaError('"vertices" must be a list of strings') from None
        if not all(isinstance(v, str) for v in vs):
            raise SchemaError('"vertices" must be a list of strings')
        vs = _distinct_sorted(vs)
        try:
            items = iter(edges)
        except TypeError:
            raise SchemaError('"edges" must be a list') from None
        norm = []
        for e in items:
            if not isinstance(e, Edge):
                try:
                    e = Edge(*e)
                except TypeError:
                    raise SchemaError("each edge must be an Edge or an (id, src, dst[, mult]) tuple") from None
            if not (isinstance(e.id, str) and isinstance(e.src, str) and isinstance(e.dst, str)):
                raise SchemaError("edge id/src/dst must be strings")
            m = e.mult
            if not (m is OMEGA or (isinstance(m, int) and not isinstance(m, bool) and m >= 1)):
                raise SchemaError(f"edge {e.id!r}: multiplicity must be a positive integer or omega")
            norm.append(e)
        self._index(vs, norm)

    def _index(self, vs: tuple[str, ...], edges: list[Edge]) -> None:
        """Make the graph-level checks and build each lookup table once.
        ``vs`` are the sorted distinct vertex ids and ``edges`` are records
        whose fields have been checked; they are sorted in place."""
        edges.sort(key=attrgetter("id"))
        es = tuple(edges)
        by_id = {e.id: e for e in es}
        if len(by_id) != len(es):
            raise SchemaError("duplicate edge ids")
        if not by_id.keys().isdisjoint(vs):
            raise SchemaError("vertex and edge ids must be distinct")
        # one pass in id order: the first edge with an undeclared endpoint
        # raises, and the first infinite bundle has the least id
        out: dict = {v: [] for v in vs}
        inc: dict = {v: [] for v in vs}
        infinite = None
        for e in es:
            try:
                out[e.src].append(e)
                inc[e.dst].append(e)
            except KeyError:
                raise SchemaError(f"edge {e.id!r} has undeclared endpoint") from None
            if e.mult is OMEGA and infinite is None:
                infinite = e.id
        # every concrete edge has one address: no edge or vertex id may also
        # be the address of an edge of another bundle
        for kind, xids in (("edge", by_id), ("vertex", vs)):
            for xid in xids:
                owner = _addressed_bundle(xid, by_id) if "]" in xid else None
                if owner is not None:
                    raise SchemaError(f"{kind} id {xid!r} is the address of an edge of bundle {owner!r}")
        # successors in sorted order and the out-degree; a vertex with one
        # bundle needs no set, no sort and no sum
        succ = {}
        degree: dict = {}
        for v, bs in out.items():
            out[v] = bs = tuple(bs)
            if len(bs) == 1:
                succ[v] = (bs[0].dst,)
                degree[v] = bs[0].mult
            else:  # none, or two or more
                dsts, d = set(), 0
                for e in bs:
                    dsts.add(e.dst)
                    d = OMEGA if d is OMEGA or e.mult is OMEGA else d + e.mult
                succ[v], degree[v] = tuple(sorted(dsts)), d
        for v, bs in inc.items():
            inc[v] = tuple(bs)
        # __setattr__ refuses every write, so the slots are written past it
        setattr_ = object.__setattr__
        setattr_(self, "vertices", vs)
        setattr_(self, "edges", es)
        setattr_(self, "_out", out)
        setattr_(self, "_in", inc)
        setattr_(self, "_by_id", by_id)
        setattr_(self, "_succ", succ)
        setattr_(self, "_degree", degree)
        setattr_(self, "_infinite", infinite)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __delattr__(self, name):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        # pickle and copy rebuild a graph from its vertices and bundles, as
        # they could not write its slots; the condensation is found again
        return (Graph, (self.vertices, self.edges))

    def __eq__(self, other):
        return isinstance(other, Graph) and self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edge bundles)"

    # -- vertex/edge lookups -------------------------------------------------

    def has_vertex(self, v: str) -> bool:
        return v in self._out

    def require_vertex(self, v: str) -> str:
        if not (isinstance(v, str) and v in self._out):
            raise _unknown_vertex(v)
        return v

    def bundle(self, edge_id: str) -> Edge:
        try:
            return self._by_id[edge_id]
        except KeyError:
            raise UnknownEdgeError(f"unknown edge id {edge_id!r}") from None

    def out_bundles(self, v: str) -> tuple[Edge, ...]:
        self.require_vertex(v)
        return self._out[v]

    def in_bundles(self, v: str) -> tuple[Edge, ...]:
        self.require_vertex(v)
        return self._in[v]

    def successors(self, v: str) -> tuple[str, ...]:
        self.require_vertex(v)
        return self._succ[v]

    def out_degree(self, v: str) -> Mult:
        """Number of concrete edges emitted by ``v`` (``OMEGA`` if infinite),
        as counted once when the graph was built."""
        d = self._degree.get(v) if isinstance(v, str) else None
        if d is None:
            raise _unknown_vertex(v)
        return d

    def is_infinite_emitter(self, v: str) -> bool:
        return self.out_degree(v) is OMEGA

    def is_row_finite(self) -> bool:
        """Whether no bundle is infinite; the least infinite bundle's id is stored at build."""
        return self._infinite is None

    # -- concrete edge addresses ----------------------------------------------

    def resolve(self, address: str) -> Edge:
        """Resolve a concrete edge address (``e`` or ``b[i]``) to its bundle.

        A declared id always wins over the indexed interpretation, so ids
        containing brackets stay addressable; no declared id is the address
        of another bundle's edge (see ``Graph``).  The index is written
        without leading zeros, so each concrete edge has exactly one address.
        """
        if not isinstance(address, str):
            raise SchemaError(f"an edge address must be a string, not {address!r}")
        e = self._by_id.get(address)
        if e is not None:
            if e.mult is OMEGA or e.mult > 1:
                raise UnknownEdgeError(f"{address!r} is a bundle; use an indexed address")
            return e
        m = _ADDRESS_RE.match(address)
        if m:
            e = self.bundle(m.group(1))
            if e.mult == 1:
                raise UnknownEdgeError(f"{address!r}: edge {e.id!r} is not a bundle")
            if not _indexes(e, m.group(2)):
                raise UnknownEdgeError(
                    f"{address!r}: not an index of bundle {e.id!r} (mult {e.mult}) in decimal digits without leading zeros"
                )
            return e
        raise UnknownEdgeError(f"unknown edge address {address!r}")

    def src_of(self, address: str) -> str:
        return self.resolve(address).src

    def dst_of(self, address: str) -> str:
        return self.resolve(address).dst

    def concrete_out(self, v: str) -> tuple[str, ...]:
        """All concrete outgoing edge addresses of ``v``; fails on infinite emitters."""
        if self.out_degree(v) is OMEGA:
            raise NotSupportedError(f"vertex {v!r} emits infinitely many edges")
        return tuple(sorted(a for e in self._out[v] for a in _addresses(e)))

    # -- reachability ----------------------------------------------------------

    def reachable(self, start: Iterable[str]) -> frozenset[str]:
        seen = set()
        todo = [self.require_vertex(v) for v in start]
        while todo:
            v = todo.pop()
            if v in seen:
                continue
            seen.add(v)
            todo.extend(w for w in self._succ[v] if w not in seen)
        return frozenset(seen)


def _unknown_vertex(v) -> UnknownVertexError:
    return UnknownVertexError(f"unknown vertex {v!r}")


def _distinct_sorted(vs) -> tuple[str, ...]:
    """The vertex ids ``vs`` in sorted order, which must be distinct."""
    vs = tuple(sorted(vs))
    if len(set(vs)) != len(vs):
        raise SchemaError("duplicate vertex ids")
    return vs


def _indexes(e: Edge, index: str) -> bool:
    """Whether ``e.id[index]`` is the address of an edge of the bundle ``e``:
    ASCII digits, no leading zero, below the multiplicity."""
    if e.mult == 1 or not index.isascii() or (index.startswith("0") and index != "0"):
        return False
    return e.mult is OMEGA or (len(index) <= len(str(e.mult)) and int(index) < e.mult)


def _addressed_bundle(xid: str, by_id: dict[str, Edge]) -> str | None:
    """The id of the bundle in ``by_id`` of which ``xid`` is the address of
    an edge, or None."""
    m = _ADDRESS_RE.match(xid)
    if m and m.group(1) in by_id and _indexes(by_id[m.group(1)], m.group(2)):
        return m.group(1)
    return None


def _address(e: Edge, k: int) -> str:
    """The concrete address of edge ``k`` of the bundle ``e``."""
    return e.id if e.mult == 1 else f"{e.id}[{k}]"


def _addresses(e: Edge) -> list[str]:
    """The concrete addresses of the finite bundle ``e``, in index order."""
    eid, mult = e.id, e.mult
    if mult is OMEGA:
        raise NotSupportedError(f"bundle {eid!r} has infinitely many edges")
    if mult == 1:
        return [eid]
    return [f"{eid}[{k}]" for k in range(mult)]


def bundle_addresses(g: Graph, edge_id: str, limit: int | None = None) -> list[str]:
    """Concrete addresses of one bundle; ``limit`` truncates an infinite bundle."""
    e = g.bundle(edge_id)
    if e.mult is OMEGA and limit is not None:
        return [_address(e, k) for k in range(limit)]
    return _addresses(e)


def _require_int(x, what: str) -> int:
    """``x``, which must be an integer (bounds, caps and indexes)."""
    if not isinstance(x, int):
        raise NotSupportedError(f"{what} must be an integer, not {x!r}")
    return x


def _require_graph(x) -> Graph:
    """``x``, which must be a :class:`Graph`."""
    if not isinstance(x, Graph):
        raise NotSupportedError(f"expected a Graph, not {x!r}")
    return x


def _require_cycle(x) -> Cycle:
    """``x``, which must be a :class:`Cycle`."""
    if not isinstance(x, Cycle):
        raise NotSupportedError(f"expected a Cycle, not {x!r}")
    return x


# ---------------------------------------------------------------------------
# Paths and cycles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Path:
    """A finite path: ``base`` vertex plus a chain of concrete edge addresses.

    A length-0 path is a vertex.
    """

    base: str
    edges: tuple[str, ...] = ()

    def __len__(self):
        return len(self.edges)

    def sort_key(self):
        return (len(self.edges), self.edges, self.base)


def make_path(g: Graph, edges: Iterable[str], base: str | None = None) -> Path:
    """Build a validated path from concrete edge addresses (vertex path if empty)."""
    edges = _as_addresses(edges, "a path")
    if not edges:
        if base is None:
            raise NotSupportedError("a length-0 path needs a base vertex")
        return Path(g.require_vertex(base), ())
    start = at = g.src_of(edges[0])
    if base is not None and base != at:
        raise NotSupportedError(f"path base {base!r} is not the source of {edges[0]!r}")
    for a in edges:
        e = g.resolve(a)
        if e.src != at:
            raise NotSupportedError(f"edges {list(edges)!r} do not form a chain at {a!r}")
        at = e.dst
    return Path(start, edges)


def _as_addresses(x, what: str) -> tuple:
    """The items of ``x``, a collection of edge addresses that ``what`` names."""
    # a string is an iterable of letters, not of addresses
    if isinstance(x, str):
        raise SchemaError(f"{what} is a list of edge addresses, not the string {x!r}")
    try:
        return tuple(x)
    except TypeError:
        raise SchemaError(f"{what} is a list of edge addresses, not {x!r}") from None


def path_range(g: Graph, p: Path) -> str:
    return g.dst_of(p.edges[-1]) if p.edges else p.base


@dataclass(frozen=True)
class Cycle:
    """A simple cycle in canonical rotation (smallest edge address first)."""

    edges: tuple[str, ...]

    def __len__(self):
        return len(self.edges)

    def sort_key(self):
        return (len(self.edges), self.edges)


def canonical_cycle(g: Graph, edges: Sequence[str]) -> Cycle:
    """Canonicalize a closed simple edge sequence into a :class:`Cycle`."""
    p = make_path(g, edges)
    if path_range(g, p) != p.base:
        raise NotSupportedError("edge sequence is not closed")
    srcs = [g.src_of(a) for a in p.edges]
    if len(set(srcs)) != len(srcs):
        raise NotSupportedError("closed path is not a simple cycle")
    return _rotated(p.edges)


def _rotated(edges: Sequence[str]) -> Cycle:
    """The cycle of the closed simple walk ``edges``, in canonical rotation
    (smallest address first)."""
    edges = tuple(edges)
    k = edges.index(min(edges))
    return Cycle(edges[k:] + edges[:k])


def cycle_base(g: Graph, c: Cycle) -> str:
    if not _require_cycle(c).edges:
        raise NotSupportedError("a cycle has at least one edge")
    return g.src_of(c.edges[0])


def cycle_vertices(g: Graph, c: Cycle) -> frozenset[str]:
    return frozenset(g.src_of(a) for a in _require_cycle(c).edges)


def cycle_has_exit(g: Graph, c: Cycle) -> bool:
    """A cycle visits each of its vertices once, so an exit exists exactly
    when some cycle vertex emits more than one concrete edge."""
    for v in cycle_vertices(g, c):
        d = g.out_degree(v)
        if d is OMEGA or d >= 2:
            return True
    return False


# ---------------------------------------------------------------------------
# Vertex classification
# ---------------------------------------------------------------------------

SINK = "sink"
REGULAR = "regular"
INFINITE_EMITTER = "infinite_emitter"


@dataclass(frozen=True)
class VertexClass:
    kind: str
    out_degree: int | None = None


def classify_vertex(g: Graph, v: str) -> VertexClass:
    """Classify ``v`` as a sink, a regular vertex, or an infinite emitter."""
    d = g.out_degree(v)
    if d is OMEGA:
        return VertexClass(INFINITE_EMITTER)
    if d == 0:
        return VertexClass(SINK)
    return VertexClass(REGULAR, d)


def is_regular(g: Graph, v: str) -> bool:
    """Whether ``v`` emits finitely many edges, and at least one: its
    out-degree is neither 0 nor ``OMEGA``."""
    d = g.out_degree(v)
    return d != 0 and d is not OMEGA


# ---------------------------------------------------------------------------
# Trees, line points, cycles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TreeView:
    """The forward reachability closure of a vertex with its induced edges."""

    root: str
    vertices: frozenset[str]
    induced_edges: tuple[Edge, ...]

    def as_graph(self) -> Graph:
        return Graph(self.vertices, self.induced_edges)


def tree(g: Graph, v: str) -> TreeView:
    """All vertices reachable from ``v``, as a complete subgraph."""
    verts = g.reachable([v])
    induced = tuple(e for e in g.edges if e.src in verts)
    return TreeView(v, verts, induced)


# a derived field of Condensation: ``init=False`` tells it from the six base
# ones, and it takes no part in equality or the repr
_derived = partial(field, init=False, compare=False, repr=False)


@dataclass(frozen=True, init=False)
class Condensation:
    """The strongly connected components (SCCs) of a graph, and every
    structural answer read off them.

    SCCs are numbered in topological order: every edge between two SCCs
    runs from a lower number to a higher one.  ``inner_edges[i]`` counts the
    concrete edges with both ends in SCC ``i`` (``OMEGA`` when an infinite
    bundle lies inside it); an SCC lies on a closed path exactly when that
    count is not 0.  ``infinite_bundle[i]`` is the least id of an infinite
    bundle inside SCC ``i`` (None if there is none), and ``branching[i]``
    tells whether a vertex of SCC ``i`` emits two or more concrete edges.

    The derived answers are plain fields that take no part in equality.
    The class has no constructor: :func:`_tarjan` writes every field, the
    derived ones in O(V + E) by one pass over the SCCs in reverse
    topological order, so each SCC comes after every SCC it reaches.  Those
    about cycles are read only once :func:`_require_finitely_many_cycles` passes.
    """

    component: Mapping[str, int]
    members: tuple[tuple[str, ...], ...]
    inner_edges: tuple[Mult, ...]
    successors: tuple[tuple[int, ...], ...]
    infinite_bundle: tuple[str | None, ...]
    branching: tuple[bool, ...]

    cyclic: tuple[bool, ...] = _derived()  # per SCC: it lies on a closed path
    single_cycle: tuple[bool, ...] = _derived()  # per SCC: it is one simple cycle (one inner edge per vertex)
    no_exit: tuple[bool, ...] = _derived()  # per SCC: it is a single cycle that no edge leaves
    # per SCC: it reaches (or is) an SCC with that flag
    reaches_cyclic: tuple[bool, ...] = _derived()
    reaches_single_cycle: tuple[bool, ...] = _derived()
    reaches_no_exit: tuple[bool, ...] = _derived()
    # per SCC: the least id of an infinite bundle inside an SCC that it reaches (or is), or None
    infinite_reached: tuple[str | None, ...] = _derived()
    minimal: tuple[bool, ...] = _derived()  # per SCC: it is cyclic and reaches no other cyclic SCC
    antisymmetric: bool = _derived()  # the cycle pre-order is antisymmetric: every cyclic SCC is a single cycle
    # the number of cycles in a longest strictly descending chain: the longest
    # path of the DAG, counting cyclic SCCs (None unless antisymmetric)
    longest_chain: int | None = _derived()
    # the vertices of the SCCs that reach no SCC on a closed path or with a vertex emitting two or more edges
    line_points: frozenset[str] = _derived()


def condensation(g: Graph) -> Condensation:
    """The SCCs of ``g``, found once per graph (graphs are immutable) and
    then shared by every question asked about it."""
    try:
        return g._scc
    except AttributeError:
        scc = _tarjan(g)
        # a cache, not a change to the graph: a second writer stores an equal value
        object.__setattr__(g, "_scc", scc)
        return scc


def _tarjan(g: Graph) -> Condensation:
    """Tarjan's SCC algorithm with an explicit stack: O(V + E).

    A vertex is on the stack while it has an index and no SCC yet.  When
    its SCC is popped its index becomes ``done``, which is above every
    low-link, so an edge into a finished SCC lowers nothing.
    """
    succ_of, out = g._succ, g._out
    done = len(g.vertices)
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    found: list[list[str]] = []  # SCCs, each after every SCC it reaches
    for root in g.vertices:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        # a frame: the vertex, its unread successors, its place on the stack
        work = [(root, iter(succ_of[root]), len(stack))]
        stack.append(root)
        while work:
            v, succ, at = work[-1]
            for w in succ:
                i = index.get(w)
                if i is None:
                    index[w] = low[w] = len(index)
                    work.append((w, iter(succ_of[w]), len(stack)))
                    stack.append(w)
                    break
                if i < low[v]:
                    low[v] = i
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == index[v]:
                    scc = stack[at:]
                    del stack[at:]
                    for w in scc:
                        index[w] = done
                    found.append(scc)
    found.reverse()  # now each SCC comes before every SCC it reaches
    n = len(found)
    component = {v: i for i, scc in enumerate(found) for v in scc}
    members = tuple(tuple(scc) if len(scc) == 1 else tuple(sorted(scc)) for scc in found)
    inner: list[Mult] = [0] * n
    infinite: list[str | None] = [None] * n
    branching = [False] * n
    successors: list[list[int]] = [[] for _ in range(n)]
    for eid, src, dst, mult in g.edges:  # in id order, so an SCC's first infinite bundle is its least
        i, j = component[src], component[dst]
        # two or more concrete edges leave src (an infinite bundle counts)
        if mult != 1 or len(out[src]) > 1:
            branching[i] = True
        if i != j:
            successors[i].append(j)
        elif mult is OMEGA:
            inner[i] = OMEGA
            if infinite[i] is None:
                infinite[i] = eid
        elif inner[i] is not OMEGA:
            inner[i] += mult
    succs = tuple(tuple(sorted(set(s))) if len(s) > 1 else tuple(s) for s in successors)
    # the derived fields, each SCC after every SCC it reaches
    cyclic, single, no_exit, minimal = [False] * n, [False] * n, [False] * n, [False] * n
    r_cyclic, r_single, r_no_exit = [False] * n, [False] * n, [False] * n
    reached = infinite.copy()
    bad = [False] * n  # reaches (or is) an SCC that is cyclic or branching
    depth = [0] * n  # the cyclic SCCs on a longest path from the SCC
    antisymmetric = True
    for i in reversed(range(n)):
        k, succ = inner[i], succs[i]
        cyclic[i] = c = k != 0
        single[i] = s = k == len(members[i])
        no_exit[i] = x = s and not succ
        # what the successors reach: each is done, as it comes later
        rc = rs = rx = rb = False
        least, d = reached[i], 0
        for j in succ:
            rc |= r_cyclic[j]
            rs |= r_single[j]
            rx |= r_no_exit[j]
            rb |= bad[j]
            if depth[j] > d:
                d = depth[j]
            b = reached[j]
            if b is not None and (least is None or b < least):
                least = b
        minimal[i] = c and not rc
        r_cyclic[i], r_single[i], r_no_exit[i] = c or rc, s or rs, x or rx
        bad[i] = c or branching[i] or rb
        reached[i] = least
        depth[i] = c + d
        if c and not s:
            antisymmetric = False
    record = object.__new__(Condensation)  # no constructor: every field is written here, past __setattr__
    vars(record).update(
        component=component, members=members, inner_edges=tuple(inner), successors=succs,
        infinite_bundle=tuple(infinite), branching=tuple(branching), cyclic=tuple(cyclic),
        single_cycle=tuple(single), no_exit=tuple(no_exit), minimal=tuple(minimal),
        reaches_cyclic=tuple(r_cyclic), reaches_single_cycle=tuple(r_single), reaches_no_exit=tuple(r_no_exit),
        infinite_reached=tuple(reached), antisymmetric=antisymmetric,
        longest_chain=max(depth, default=0) if antisymmetric else None,
        line_points=frozenset(v for i, b in enumerate(bad) if not b for v in members[i]),
    )
    return record


def _require_finitely_many_cycles(g: Graph) -> None:
    """Raise as cycle enumeration would if an infinite bundle lies on a
    closed path."""
    found = [b for b in condensation(g).infinite_bundle if b is not None]
    if found:
        raise InfinitelyManyCyclesError(f"infinite bundle {min(found)!r} lies on a closed path")


def vertices_on_closed_paths(g: Graph) -> frozenset[str]:
    """Vertices that lie on at least one closed path."""
    scc = condensation(g)
    return frozenset(v for i, c in enumerate(scc.cyclic) if c for v in scc.members[i])


def line_points(g: Graph) -> frozenset[str]:
    """Vertices whose tree contains no bifurcation and no cycle.

    An infinite bundle counts as a bifurcation.  A vertex reaches every
    vertex of its SCC, so the line points are the SCCs that reach no SCC on
    a closed path or with a vertex emitting two or more edges.
    """
    return condensation(g).line_points


def enumerate_cycles(g: Graph, max_cycles: int = MAX_CYCLES_DEFAULT) -> list[Cycle]:
    """All simple cycles, canonicalized, in a deterministic order.

    Bundles of multiplicity k contribute k parallel edges (hence k distinct
    cycles per vertex itinerary and slot).  An infinite bundle on a closed
    vertex itinerary makes the cycle set infinite and raises
    :class:`InfinitelyManyCyclesError`.  The cycles of an itinerary are
    counted before any is listed, so the cap costs nothing per edge.
    """
    return list(_cycles(g, max_cycles)[0])


def _cycles(g: Graph, max_cycles: int) -> tuple[tuple[Cycle, ...], tuple[int, ...]]:
    """The cycles of :func:`enumerate_cycles`, and the SCC of each."""
    _require_int(max_cycles, "the cycle cap")
    found: list[tuple[int, tuple[str, ...], int]] = []  # (length, canonical edges, SCC) per cycle

    def expand(steps: list[tuple[str, str]], home: int) -> None:
        # one concrete-address choice per step; multiplicities multiply out
        bundles = [[e for e in g._out[u] if e.dst == w] for u, w in steps]
        for e in (e for step in bundles for e in step):
            if e.mult is OMEGA:
                raise InfinitelyManyCyclesError(f"infinite bundle {e.id!r} lies on a closed path")
        if len(found) + prod(sum(e.mult for e in step) for step in bundles) > max_cycles:
            raise ResourceCapError(f"more than {max_cycles} simple cycles")
        choices = [sorted(a for e in step for a in _addresses(e)) for step in bundles]
        for edges in product(*choices):
            k = edges.index(min(edges))  # the canonical rotation starts at the least address
            found.append((len(edges), edges[k:] + edges[:k], home))

    # depth-first from each root through greater vertex ids of its own SCC
    # only (a cycle through root never leaves it), so each vertex itinerary
    # is found once, from its least vertex, and no cycle twice
    component = condensation(g).component
    for root in g.vertices:
        home = component[root]
        # the walk closes only along an edge into root from root itself or
        # from a greater vertex of its SCC
        if not any(e.src >= root and component[e.src] == home for e in g._in[root]):
            continue
        visited = {root}
        steps: list[tuple[str, str]] = []  # the current path, one step per frame below root
        work = [(root, iter(g._succ[root]))]
        while work:
            v, succ = work[-1]
            for w in succ:
                if w == root:
                    steps.append((v, w))
                    expand(steps, home)
                    steps.pop()
                elif w > root and component[w] == home and w not in visited:
                    visited.add(w)
                    steps.append((v, w))
                    work.append((w, iter(g._succ[w])))
                    break
            else:
                work.pop()
                if work:
                    visited.discard(v)
                    steps.pop()
    # no two cycles have the same edges, so the SCC never decides the order
    found.sort()
    return tuple(Cycle(edges) for _, edges, _ in found), tuple(home for _, _, home in found)


def condition_L(g: Graph) -> bool:
    """Every simple cycle has an exit: no SCC is a single cycle that no edge
    leaves."""
    _require_finitely_many_cycles(g)
    return not any(condensation(g).no_exit)


def condition_K(g: Graph) -> bool:
    """Every vertex on a simple closed path is the base of at least two
    distinct simple closed paths.

    A simple closed path based at v is a first-return path: it touches v only
    at its two ends, with no constraint on the other vertices.  It holds
    exactly when no SCC is a single cycle.
    """
    _require_finitely_many_cycles(g)
    return not any(condensation(g).single_cycle)


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------


def graph_to_obj(g: Graph) -> dict:
    """Serialize to the canonical JSON schema (multiplicity 1 is omitted)."""
    edges = []
    for e in g.edges:
        d: dict = {"id": e.id, "src": e.src, "dst": e.dst}
        if e.mult is OMEGA:
            d["mult"] = "omega"
        elif e.mult != 1:
            d["mult"] = e.mult
        edges.append(d)
    return {"vertices": list(g.vertices), "edges": edges}


_EDGE_KEYS = frozenset(("id", "src", "dst", "mult"))


def graph_from_obj(obj) -> Graph:
    """Validate a JSON object against the graph schema and build the graph.

    Each edge object is checked once, here, and becomes an :class:`Edge`;
    the graph-level checks are those of :class:`Graph`.
    """
    if not isinstance(obj, dict):
        raise SchemaError("graph document must be a JSON object")
    extra = set(obj) - {"vertices", "edges"}
    if extra:
        raise SchemaError(f"unexpected keys: {sorted(extra)}")
    verts = obj.get("vertices")
    edges = obj.get("edges", [])
    if not isinstance(verts, list) or not all(isinstance(v, str) for v in verts):
        raise SchemaError('"vertices" must be a list of strings')
    if not isinstance(edges, list):
        raise SchemaError('"edges" must be a list')
    built = []
    for item in edges:
        if not isinstance(item, dict):
            raise SchemaError("each edge must be an object")
        if not item.keys() <= _EDGE_KEYS:
            raise SchemaError(f"edge has unexpected keys: {sorted(item.keys() - _EDGE_KEYS)}")
        try:
            eid, src, dst = item["id"], item["src"], item["dst"]
        except KeyError as k:
            raise SchemaError(f"edge missing key {k}") from None
        if not (isinstance(eid, str) and isinstance(src, str) and isinstance(dst, str)):
            raise SchemaError("edge id/src/dst must be strings")
        mult = item.get("mult", 1)
        if mult == "omega":
            mult = OMEGA
        elif not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
            raise SchemaError(f"edge {eid!r}: mult must be a positive integer or \"omega\"")
        built.append(_new_edge((eid, src, dst, mult)))
    g = object.__new__(Graph)
    g._index(_distinct_sorted(verts), built)
    return g


def graph_to_json(g: Graph) -> str:
    # a fresh tree from graph_to_obj has no cycle to look for
    return json.dumps(graph_to_obj(g), sort_keys=True, check_circular=False)


def graph_from_json(text: str) -> Graph:
    if not isinstance(text, (str, bytes, bytearray)):
        raise SchemaError(f"a graph document must be JSON text, not {type(text).__name__}")
    return graph_from_obj(_json_value(text, "JSON"))


def _json_value(text: str | bytes | bytearray, what: str):
    """The value of the JSON document ``text``, which ``what`` names in the
    error for text that is not JSON.  A document nested too deeply for the
    decoder, or with an integer too long to convert, raises
    :class:`SchemaError` too."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"malformed {what}: {exc}") from None
    except RecursionError:
        raise SchemaError("the document nests deeper than the JSON decoder allows") from None
    except ValueError:  # int() converts at most sys.get_int_max_str_digits() digits
        limit = sys.get_int_max_str_digits()
        raise SchemaError(f"the document has an integer of more than {limit} digits") from None
