"""Hereditary saturated vertex sets and the graph constructions derived from
them: quotient graphs, hedgehog graphs for graded ideals, and the subalgebra
graph spanned by a finite edge set.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import NotSupportedError, ResourceCapError
from .graph import (
    OMEGA,
    Edge,
    Graph,
    Path,
    _address,
    _addressed_bundle,
    _as_addresses,
    _require_graph,
    _require_int,
    _vertex_ids,
    classify_vertex,
    condensation,
    is_regular,
    path_range,
)

MAX_VERTICES_HS_DEFAULT = 20


@dataclass(frozen=True)
class HSSet:
    """A hereditary saturated vertex set with its generating seed."""

    vertices: frozenset[str]
    generated_from: frozenset[str]

    def sort_key(self):
        return (len(self.vertices), tuple(sorted(self.vertices)))


def _as_vertex_set(x) -> frozenset[str]:
    return x.vertices if isinstance(x, HSSet) else _vertex_ids(x)


def hereditary_closure(g: Graph, seed: Iterable[str]) -> frozenset[str]:
    """Smallest forward-closed superset of ``seed``."""
    return _require_graph(g).reachable(_as_vertex_set(seed))


def saturated_closure(g: Graph, seed: Iterable[str]) -> HSSet:
    """Smallest hereditary saturated superset of ``seed``.

    Saturation repeatedly adds any regular vertex all of whose edge ranges
    already lie in the set; it preserves hereditariness, so the closure is
    the least set closed under both rules.  One worklist finds it in
    O(V + E): every vertex that joins lowers, for each regular vertex with
    an edge into it, the count of that vertex's edge bundles still ending
    outside the set, and a regular vertex joins when its count reaches 0.
    """
    _require_graph(g)
    seed_set = frozenset(g.require_vertex(v) for v in _as_vertex_set(seed))
    outside = {v: len(g._out[v]) for v, d in g._degree.items() if d != 0 and d is not OMEGA}
    closed: set[str] = set()
    todo = list(seed_set)
    while todo:
        v = todo.pop()
        if v in closed:
            continue
        closed.add(v)
        todo.extend(g._succ[v])
        for e in g._in[v]:
            u = e.src
            if u in outside:
                outside[u] -= 1
                if outside[u] == 0:
                    todo.append(u)
    return HSSet(frozenset(closed), seed_set)


def is_hereditary(g: Graph, vs: Iterable[str]) -> bool:
    _require_graph(g)
    vset = _as_vertex_set(vs)
    return all(e.dst in vset for e in g.edges if e.src in vset)


def is_saturated(g: Graph, vs: Iterable[str]) -> bool:
    _require_graph(g)
    vset = _as_vertex_set(vs)
    for v in g.vertices:
        if v in vset or not is_regular(g, v):
            continue
        if all(e.dst in vset for e in g.out_bundles(v)):
            return False
    return True


def enumerate_hs_sets(g: Graph, max_vertices: int = MAX_VERTICES_HS_DEFAULT) -> list[HSSet]:
    """All hereditary saturated subsets (including the empty and full sets).

    A hereditary set is a union of strongly connected components (SCCs)
    closed under successors, so the sets are found by deciding each SCC of
    the condensation in reverse topological order, after every SCC it
    reaches.  An SCC with a successor outside the set stays out (heredity);
    otherwise a single regular vertex with no inner edge comes in
    (saturation); any other SCC (a sink, an infinite emitter, or a cyclic
    SCC, whose vertices all keep an edge inside it) is a free choice.
    Every branch ends in exactly one set, so the cost is O(V + E) per set.
    ``max_vertices`` caps the graph size and so the up to 2^V sets returned.
    """
    vs = _require_graph(g).vertices
    if len(vs) > _require_int(max_vertices, "the vertex cap"):
        raise ResourceCapError(
            f"{len(vs)} vertices exceeds the subset-enumeration cap {max_vertices}"
        )
    scc = condensation(g)
    n = len(scc.members)
    forced_in = [
        len(m) == 1 and scc.inner_edges[i] == 0 and is_regular(g, m[0])
        for i, m in enumerate(scc.members)
    ]
    inside = [False] * n
    free: list[int] = []  # free SCCs taken in, whose "out" branch is still to come
    out = []
    start = n  # decide the SCCs below start; those at or above it stay
    while True:
        for i in range(start - 1, -1, -1):
            inside[i] = all(inside[j] for j in scc.successors[i])
            if inside[i] and not forced_in[i]:
                free.append(i)
        h = frozenset(v for i in range(n) if inside[i] for v in scc.members[i])
        out.append(HSSet(h, h))
        if not free:
            break
        start = free.pop()
        inside[start] = False
    return sorted(out, key=HSSet.sort_key)


def breaking_vertices(g: Graph, h: Iterable[str]) -> frozenset[str]:
    """Infinite emitters with finitely many, but at least one, edges into the
    complement of ``h``."""
    _require_graph(g)
    hset = _as_vertex_set(h)
    out = set()
    for v in g.vertices:
        if not g.is_infinite_emitter(v):
            continue
        count = 0
        infinite = False
        for e in g.out_bundles(v):
            if e.dst in hset:
                continue
            if e.mult is OMEGA:
                infinite = True
                break
            count += e.mult
        if not infinite and 0 < count:
            out.add(v)
    return frozenset(out)


def _validate_hs(g: Graph, h: Iterable[str]) -> frozenset[str]:
    _require_graph(g)
    hset = frozenset(g.require_vertex(v) for v in _as_vertex_set(h))
    if not is_hereditary(g, hset):
        raise NotSupportedError("vertex set is not hereditary")
    if not is_saturated(g, hset):
        raise NotSupportedError("vertex set is not saturated")
    return hset


def _fresh(name: str, taken: set[str]) -> str:
    while name in taken:
        name += "'"
    taken.add(name)
    return name


def quotient(g: Graph, h: Iterable[str], s: Iterable[str] = ()) -> Graph:
    """The quotient graph of ``g`` by the hereditary saturated set ``h`` and a
    subset ``s`` of its breaking vertices.

    Vertices are E0 \\ H plus a fresh sink u' for every breaking vertex u not
    in S.  Edges into H disappear; every edge into such a u gains a primed
    copy ending at u'.
    """
    hset = _validate_hs(g, h)
    sset = _as_vertex_set(s)
    bh = breaking_vertices(g, hset)
    if not sset <= bh:
        raise NotSupportedError("s must be a subset of the breaking vertices of h")
    keep = [v for v in g.vertices if v not in hset]
    taken = set(keep) | {e.id for e in g.edges}
    primed = {u: _fresh(u + "'", taken) for u in sorted(bh - sset)}
    edges = []
    for e in g.edges:
        if e.dst in hset:
            continue
        edges.append(e)
        if e.dst in primed:
            edges.append(Edge(_fresh(e.id + "'", taken), e.src, primed[e.dst], e.mult))
    return Graph(keep + sorted(primed.values()), edges)


# ---------------------------------------------------------------------------
# Hedgehog graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HedgehogResult:
    """The graph realizing a graded ideal, with truncation metadata.

    ``complete`` is True when the defining path sets are finite and fully
    materialized; otherwise the graph contains exactly the qualifying paths of
    length <= ``depth_bound``.  ``path_vertices`` maps the freshly created
    vertex ids back to the paths they stand for.
    """

    graph: Graph
    complete: bool
    depth_bound: int
    path_vertices: tuple[tuple[str, Path], ...]


def _relevant_vertices(g: Graph, h: frozenset[str], targets: frozenset[str]) -> frozenset[str]:
    """Vertices outside ``h`` from which ``targets`` can be reached without
    passing through ``h`` on the way."""
    relevant = set(targets - h)
    todo = list(targets)
    while todo:
        for e in g.in_bundles(todo.pop()):
            if e.src not in h and e.src not in relevant:
                relevant.add(e.src)
                todo.append(e.src)
    return frozenset(relevant)


def _entering_paths_finite(
    g: Graph, h: frozenset[str], targets: frozenset[str], relevant: frozenset[str]
) -> bool:
    """Whether finitely many paths start outside ``h`` and end in ``targets``;
    ``relevant`` is ``_relevant_vertices(g, h, targets)``.

    Infinite exactly when a cycle outside ``h``, or an infinite bundle with
    source outside ``h``, can feed ``targets`` without entering ``h`` first.
    """
    scc = condensation(g)
    if any(scc.cyclic[scc.component[v]] for v in relevant):
        return False
    for e in g.edges:
        if e.mult is OMEGA and e.src not in h and (e.dst in targets or e.dst in relevant):
            return False
    return True


def _enumerate_entering_paths(
    g: Graph,
    h: frozenset[str],
    s: frozenset[str],
    relevant: frozenset[str],
    depth_bound: int,
    complete: bool,
) -> tuple[list[Path], list[Path]]:
    """Qualifying paths: (into h with interior outside h) and (ending in s);
    ``relevant`` is ``_relevant_vertices(g, h, h | s)``.

    When the sets are infinite only paths of length <= depth_bound are
    produced, and an infinite bundle contributes its index-0 representative.
    """
    targets = h | s
    f1: list[Path] = []
    f2: list[Path] = []

    # moves[u] = the bundles from u that can still reach targets; a bundle's
    # addresses are listed only as the walk takes them
    moves = {u: [e for e in g.out_bundles(u) if e.dst in targets or e.dst in relevant] for u in relevant}

    def steps(u: str, last: bool):
        """The concrete steps from u; at the depth bound only those into targets."""
        for e in moves[u]:
            if last and e.dst not in targets:
                continue
            for k in range(1 if e.mult is OMEGA else e.mult):
                yield _address(e, k), e.dst

    # depth-first with an explicit stack; chain is the path to the top frame,
    # a valid chain by construction, so each found path is built directly
    for v in sorted(relevant):
        chain: list[str] = []
        work = [steps(v, not complete and depth_bound == 1)]
        while work:
            for addr, dst in work[-1]:
                chain.append(addr)
                if dst in h:
                    f1.append(Path(v, tuple(chain)))
                else:
                    if dst in s:
                        f2.append(Path(v, tuple(chain)))
                    if complete or len(chain) < depth_bound:
                        work.append(steps(dst, not complete and len(chain) + 1 == depth_bound))
                        break
                chain.pop()
            else:
                work.pop()
                if work:
                    chain.pop()
    return f1, f2


def hedgehog(
    g: Graph,
    h: Iterable[str],
    s: Iterable[str] = (),
    depth_bound: int = 8,
) -> HedgehogResult:
    """Build the graph whose Leavitt path algebra realizes the graded ideal
    generated by ``h`` (and the breaking-vertex idempotents for ``s``).

    New vertices stand for the paths entering ``h`` (and, for non-empty
    ``s``, the paths ending at ``s``); each carries one edge to the range of
    its path.  If infinitely many such paths exist the result is truncated at
    ``depth_bound`` and flagged incomplete.
    """
    _require_graph(g)
    if _require_int(depth_bound, "depth_bound") < 1:
        raise NotSupportedError("depth_bound must be >= 1")
    hset = frozenset(g.require_vertex(v) for v in _as_vertex_set(h))
    if not is_hereditary(g, hset):
        raise NotSupportedError("vertex set is not hereditary")
    sset = _as_vertex_set(s)
    if not sset <= breaking_vertices(g, hset):
        raise NotSupportedError("s must be a subset of the breaking vertices of h")

    targets = hset | sset
    relevant = _relevant_vertices(g, hset, targets)
    complete = _entering_paths_finite(g, hset, targets, relevant)
    f1, f2 = _enumerate_entering_paths(g, hset, sset, relevant, depth_bound, complete)

    base_vertices = sorted(targets)
    edges: list[Edge] = []
    for e in g.edges:
        if e.src in hset or (e.src in sset and e.dst in hset):
            edges.append(e)

    kept = {e.id: e for e in edges}
    taken = set(base_vertices) | set(kept)
    vertices = list(base_vertices)
    mapping: list[tuple[str, Path]] = []
    for p in sorted(set(f1 + f2), key=Path.sort_key):
        name = "~".join(p.edges)
        # a vertex may not be named like an edge of a kept bundle (see Graph)
        if _addressed_bundle(name, kept) is not None:
            name += "'"
        vid = _fresh(name, taken)
        vertices.append(vid)
        mapping.append((vid, p))
        edges.append(Edge(_fresh("~" + vid, taken), vid, path_range(g, p)))

    return HedgehogResult(Graph(vertices, edges), complete, depth_bound, tuple(mapping))


# ---------------------------------------------------------------------------
# Subalgebra graph from a finite edge set
# ---------------------------------------------------------------------------


def subalgebra_graph(g: Graph, addresses: Iterable[str]) -> Graph:
    """The finite graph whose Leavitt path algebra embeds as the subalgebra
    spanned by the given concrete edges.

    Vertices are the chosen edges, the vertices that are ranges and sources of
    chosen edges but still emit an unchosen edge, and the ranges that are not
    sources.  There is an edge (e, y) whenever e ends where y starts (a vertex
    y starts at itself).
    """
    _require_graph(g)
    edge_of = {a: g.resolve(a) for a in _as_addresses(addresses, "an edge set")}
    f = sorted(edge_of)
    chosen = Counter(e.id for e in edge_of.values())  # each concrete edge has one address
    rf = {e.dst for e in edge_of.values()}
    sf = {e.src for e in edge_of.values()}
    middle = sorted(
        v
        for v in rf & sf
        if any(e.mult is OMEGA or chosen[e.id] < e.mult for e in g.out_bundles(v))
    )
    terminal = sorted(rf - sf)

    taken: set[str] = set()
    vid_of_edge = {a: _fresh(a, taken) for a in f}
    vid_of_vertex = {v: _fresh(v, taken) for v in middle + terminal}

    starts: list[tuple[str, str]] = [(edge_of[a].src, vid_of_edge[a]) for a in f]
    starts += [(v, vid_of_vertex[v]) for v in middle + terminal]

    edges = []
    for a in f:
        for start_vertex, vid in starts:
            if edge_of[a].dst == start_vertex:
                edges.append(Edge(_fresh(f"({a},{vid})", taken), vid_of_edge[a], vid))
    return Graph(list(vid_of_edge.values()) + list(vid_of_vertex.values()), edges)
