"""Decision procedures over the cycle structure of a graph.

The pre-order on cycles (c >= c' when a path runs from c to c') governs both
questions answered here: whether every irreducible representation of the path
algebra is finitely presented, and whether the algebra's growth is
polynomially bounded.  Filtration builders produce the witnessing chains of
hereditary saturated sets with a layer descriptor per step.

Every answer is read off the strongly connected components (SCCs) of the
graph, in time linear in the size of the graph: the
:class:`~leavitt.graph.Condensation` that :func:`~leavitt.graph.condensation`
keeps with each graph holds the per-SCC facts, derived in one pass when it
is built, so asking many questions about one graph costs one analysis.  Two
cycles reach each other exactly when they lie in the same SCC, so the
pre-order is antisymmetric exactly when every SCC on a closed path is a
single simple cycle, that is, has as many inner edges as vertices.  Only
:func:`cycle_poset` lists cycles, and only it is capped; it builds the
reachability bitsets of the pre-order itself, as they take O(S²) bits for S
SCCs where the condensation holds O(V + E) facts.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Union

from .closures import HSSet
from .errors import InfinitelyManyCyclesError, NotSupportedError
from .graph import (
    MAX_CYCLES_DEFAULT,
    OMEGA,
    Condensation,
    Cycle,
    Graph,
    _address,
    _cycles,
    _require_cycle,
    _require_finitely_many_cycles,
    _require_graph,
    _rotated,
    canonical_cycle,
    condensation,
    cycle_base,
    cycle_vertices,
)

# reason codes for finite-presentation verdicts
NOT_ROW_FINITE = "NOT_ROW_FINITE"
GEQ_NOT_ANTISYMMETRIC = "GEQ_NOT_ANTISYMMETRIC"
OK_ACYCLIC = "OK_ACYCLIC"
OK_CYCLIC = "OK_CYCLIC"


# ---------------------------------------------------------------------------
# Cycle poset
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CyclePoset:
    """All simple cycles with the reachability pre-order ``>=``.

    ``longest_chain`` counts the cycles in a maximal strictly descending
    chain; it is None when the pre-order fails antisymmetry (strict chains
    then have no maximum) and 0 for an acyclic graph.

    The pre-order is kept per SCC, not per pair of cycles: ``components[i]``
    is the SCC of ``cycles[i]``, and bit ``j`` of ``reach[k]`` is set when
    SCC ``k`` reaches SCC ``j``.
    """

    cycles: tuple[Cycle, ...]
    antisymmetric: bool
    longest_chain: int | None
    minimal_cycles: tuple[Cycle, ...]
    no_exit_cycles: tuple[Cycle, ...]
    components: tuple[int, ...]
    reach: tuple[int, ...]

    def index(self, c: Cycle) -> int:
        try:
            return self.cycles.index(c)
        except ValueError:
            raise NotSupportedError(f"{c!r} is not a cycle of this poset") from None

    def holds(self, c: Cycle, d: Cycle) -> bool:
        """Whether ``c >= d``: a path runs from ``c`` to ``d``."""
        at = self.components
        return bool(self.reach[at[self.index(c)]] >> at[self.index(d)] & 1)


def cycle_poset(g: Graph, max_cycles: int = MAX_CYCLES_DEFAULT) -> CyclePoset:
    """The enumerated cycles, with the pre-order kept as per-SCC
    reachability bitsets."""
    cycles, at = _cycles(g, max_cycles)
    scc = condensation(g)
    # bit j of reach[i]: SCC i reaches SCC j (or is it)
    reach = [0] * len(scc.successors)
    for i in reversed(range(len(reach))):
        bits = 1 << i
        for j in scc.successors[i]:
            bits |= reach[j]
        reach[i] = bits
    return CyclePoset(
        cycles,
        scc.antisymmetric,
        scc.longest_chain,
        tuple(c for c, i in zip(cycles, at) if scc.minimal[i]),
        tuple(c for c, i in zip(cycles, at) if scc.no_exit[i]),
        at,
        tuple(reach),
    )


# ---------------------------------------------------------------------------
# Finite-presentation verdict
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FpVerdict:
    all_finitely_presented: bool
    reasons: tuple[dict, ...]
    notes: tuple[str, ...] = ()

    def codes(self) -> tuple[str, ...]:
        return tuple(r["code"] for r in self.reasons)

    def to_obj(self) -> dict:
        return {
            "allFinitelyPresented": self.all_finitely_presented,
            "reasons": list(self.reasons),
            "notes": list(self.notes),
        }


def decide_fp(g: Graph) -> FpVerdict:
    """Decide whether every simple one-sided module over the path algebra is
    finitely presented.

    Not-row-finite graphs fail outright.  On a finite row-finite graph the
    verdict holds exactly when the cycle pre-order is antisymmetric (it is
    then artinian, and the socle and quotient conditions hold).
    """
    if _require_graph(g)._infinite is not None:
        return FpVerdict(False, ({"code": NOT_ROW_FINITE, "witness": g._infinite},))
    scc = condensation(g)
    if not any(scc.cyclic):
        return FpVerdict(True, ({"code": OK_ACYCLIC, "witness": None},))
    notes = (
        "the cycle pre-order on a finite graph is artinian once antisymmetric",
        "every infinite path in a finite graph eventually winds around a cycle "
        "or reaches a line point, so the infinite-path condition holds",
    )
    if not scc.antisymmetric:
        return FpVerdict(False, ({"code": GEQ_NOT_ANTISYMMETRIC, "witness": _witness(g, scc)},), notes)
    return FpVerdict(True, ({"code": OK_CYCLIC, "witness": None},), notes)


def disjoint_cycles_criterion(g: Graph) -> bool:
    """No vertex lies on two distinct cycles (the finite-graph criterion):
    an alias of the antisymmetry of the cycle pre-order, since cycles that
    share a vertex reach each other."""
    _require_finitely_many_cycles(g)
    return condensation(g).antisymmetric


# ---------------------------------------------------------------------------
# Growth verdict
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GkVerdict:
    finite: bool
    longest_chain: int | None
    lower_bound: int | None
    witness: object = None
    notes: tuple[str, ...] = ()

    def to_obj(self) -> dict:
        return {
            "finite": self.finite,
            "longestChain": self.longest_chain,
            "lowerBound": self.lower_bound,
            "witness": self.witness,
            "notes": list(self.notes),
        }


def decide_gk(g: Graph) -> GkVerdict:
    """Growth is polynomially bounded iff distinct cycles never meet, i.e.
    the cycle pre-order is antisymmetric; the longest chain d gives the lower
    bound 2d - 1 for the growth exponent (0 when acyclic)."""
    notes = ()
    if not _require_graph(g).is_row_finite():
        notes = ("graph has infinite bundles; verdict covers the listed structure only",)
    _require_finitely_many_cycles(g)
    scc = condensation(g)
    if not scc.antisymmetric:
        return GkVerdict(False, None, None, _witness(g, scc), notes)
    d = scc.longest_chain
    return GkVerdict(True, d, 2 * d - 1 if d > 0 else 0, None, notes)


# ---------------------------------------------------------------------------
# Filtrations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SocleLayer:
    vertices: frozenset[str]

    def to_obj(self) -> dict:
        return {"kind": "socle", "vertices": sorted(self.vertices)}


@dataclass(frozen=True)
class VnrLayer:
    """Layer generated by acyclic vertices (a von Neumann regular ideal)."""

    vertices: frozenset[str]

    def to_obj(self) -> dict:
        return {"kind": "vnr", "vertices": sorted(self.vertices)}


@dataclass(frozen=True)
class LaurentMatrixLayer:
    """Layer generated by a cycle without exits: a matrix ring over Laurent
    polynomials, of size ``index_cardinality`` (OMEGA when another cycle
    feeds the base)."""

    cycle: Cycle
    index_cardinality: Union[int, object]

    def to_obj(self) -> dict:
        card = "omega" if self.index_cardinality is OMEGA else self.index_cardinality
        return {
            "kind": "laurentMatrix",
            "cycle": list(self.cycle.edges),
            "indexCardinality": card,
        }


@dataclass(frozen=True)
class MixedLayer:
    """Direct sum of an acyclic-vertex part and no-exit-cycle parts."""

    vnr_vertices: frozenset[str]
    laurent: tuple[LaurentMatrixLayer, ...]

    def to_obj(self) -> dict:
        return {
            "kind": "mixed",
            "vnr": sorted(self.vnr_vertices),
            "laurent": [l.to_obj() for l in self.laurent],
        }


Layer = Union[SocleLayer, VnrLayer, LaurentMatrixLayer, MixedLayer]


@dataclass(frozen=True)
class Filtration:
    chain: tuple[HSSet, ...]
    layers: tuple[Layer, ...]

    def to_obj(self) -> dict:
        return {
            "chain": [sorted(h.vertices) for h in self.chain],
            "layers": [layer.to_obj() for layer in self.layers],
        }


def laurent_index_cardinality(g: Graph, c: Cycle) -> Union[int, object]:
    """Size of the matrix ring realized by the ideal of a no-exit cycle.

    Counts the paths ending at the cycle's canonical base that touch the base
    only at their end (the length-0 path included); the count is OMEGA as
    soon as a cycle other than ``c`` reaches the base.  ``c`` is checked
    to be a closed simple edge sequence of ``g`` first.
    """
    base = cycle_base(g, canonical_cycle(g, _require_cycle(c).edges))
    return _entry_paths(g, condensation(g), base)


def fp_filtration(g: Graph) -> Filtration:
    """The ascending chain of hereditary saturated sets witnessing the
    finite-presentation property: the socle closure first, then one cycle
    without exits per step (lexicographically least in the current quotient).
    """
    verdict = decide_fp(g)
    if not verdict.all_finitely_presented:
        raise NotSupportedError(f"not every simple module is finitely presented: {verdict.codes()}")
    scc = condensation(g)
    q = _Quotient(g, scc)
    q.grow(scc.line_points)
    chain = [HSSet(frozenset(q.vertices), scc.line_points)]
    layers: list[Layer] = [SocleLayer(chain[0].vertices)]
    while len(q.vertices) < len(g.vertices):
        c = next(q.no_exit_cycles())
        card = _entry_paths(g, scc, cycle_base(g, c))
        cycle = cycle_vertices(g, c)
        q.grow(cycle)
        chain.append(HSSet(frozenset(q.vertices), chain[-1].vertices | cycle))
        layers.append(LaurentMatrixLayer(c, card))
    return Filtration(tuple(chain), tuple(layers))


def gk_filtration(g: Graph) -> Filtration:
    """The finite chain of hereditary saturated sets witnessing polynomially
    bounded growth: first the closure of the exit targets of minimal cycles,
    then, per step, all acyclic vertices and all no-exit cycles of the
    current quotient.
    """
    if not decide_gk(g).finite:
        raise NotSupportedError("growth is not polynomially bounded")
    if not g.is_row_finite():
        raise NotSupportedError("filtrations require a row-finite graph")
    scc = condensation(g)
    comp = scc.component
    exit_targets = frozenset(
        e.dst
        for i, vs in enumerate(scc.members)
        if scc.minimal[i]
        for v in vs
        for e in g.out_bundles(v)
        if comp[e.dst] != i
    )
    q = _Quotient(g, scc)
    q.grow(exit_targets)
    chain: list[HSSet] = []
    layers: list[Layer] = []
    if q.vertices:
        chain.append(HSSet(frozenset(q.vertices), exit_targets))
        layers.append(VnrLayer(chain[0].vertices))
    # H holds no cycle yet, so the first quotient's acyclic vertices are those
    # that reach no cycle; once they (and so every sink) are in H, saturation
    # has taken in each vertex reaching no cycle outside H, and later steps
    # add only no-exit cycles
    acyclic = frozenset(
        v for i, vs in enumerate(scc.members) if not q.in_h[i] and not scc.reaches_cyclic[i] for v in vs
    )
    while len(q.vertices) < len(g.vertices):
        no_exit = list(q.no_exit_cycles())
        added = set(acyclic)
        for c in no_exit:
            added |= cycle_vertices(g, c)
        laurent = tuple(LaurentMatrixLayer(c, _entry_paths(g, scc, cycle_base(g, c))) for c in no_exit)
        if acyclic and laurent:
            layer: Layer = MixedLayer(acyclic, laurent)
        elif laurent and len(laurent) == 1:
            layer = laurent[0]
        elif laurent:
            layer = MixedLayer(frozenset(), laurent)
        else:
            layer = VnrLayer(acyclic)
        seed = frozenset(q.vertices) | added
        q.grow(added)
        chain.append(HSSet(frozenset(q.vertices), seed))
        layers.append(layer)
        acyclic = frozenset()
    if not chain:
        # graph with no vertices at all
        chain = [HSSet(frozenset(), frozenset())]
        layers = [VnrLayer(frozenset())]
    return Filtration(tuple(chain), tuple(layers))


# ---------------------------------------------------------------------------
# Corner report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CornerReport:
    """Graph-side predicates of a vertex's tree and the ring-theoretic labels
    they certify for the corner of the algebra at that vertex."""

    vertex: str
    is_line_point: bool
    no_exit_cycle_tree: bool
    acyclic: bool
    condition_l: bool
    condition_k: bool

    @property
    def ring_labels(self) -> tuple[str, ...]:
        labels = []
        if self.is_line_point:
            labels.append("corner is the scalar field")
        if self.no_exit_cycle_tree:
            labels.append("corner is the Laurent polynomial ring")
        if self.acyclic:
            labels.append("von Neumann regular")
        if self.condition_l:
            labels.append("Zorn")
        if self.condition_k:
            labels.append("weakly regular")
        return tuple(labels)

    def to_obj(self) -> dict:
        return {
            "vertex": self.vertex,
            "flags": {
                "isLinePoint": self.is_line_point,
                "noExitCycleTree": self.no_exit_cycle_tree,
                "acyclic": self.acyclic,
                "conditionL": self.condition_l,
                "conditionK": self.condition_k,
            },
            "ringLabels": list(self.ring_labels),
        }


def corner_report(g: Graph, v: str) -> CornerReport:
    """Evaluate the tree of ``v`` as a complete subgraph and emit the ring
    labels its properties certify.

    The tree of ``v`` is the union of the SCCs reachable from v's SCC.
    """
    scc = condensation(g)
    i = scc.component[g.require_vertex(v)]
    bundle = scc.infinite_reached[i]
    if bundle is not None:
        raise InfinitelyManyCyclesError(f"infinite bundle {bundle!r} lies on a closed path")
    return CornerReport(
        v,
        v in scc.line_points,
        scc.no_exit[i],
        not scc.reaches_cyclic[i],
        not scc.reaches_no_exit[i],
        not scc.reaches_single_cycle[i],
    )


# ---------------------------------------------------------------------------
# Helpers over the condensation
# ---------------------------------------------------------------------------


def _scc_cycle(g: Graph, scc: Condensation, i: int) -> Cycle:
    """The cycle of an SCC that is a single cycle."""
    comp = scc.component
    start = v = scc.members[i][0]
    edges = []
    while True:
        (e,) = [b for b in g.out_bundles(v) if comp[b.dst] == i]
        edges.append(e.id)
        v = e.dst
        if v == start:
            return _rotated(edges)


def _witness(g: Graph, scc: Condensation) -> list[list[str]]:
    """Two distinct cycles of the first SCC (by least vertex) that is not a
    single cycle: at its least vertex u with two inner concrete out-edges,
    each of the first two of them (in bundle id, then index, order) closed
    by a shortest return path to u."""
    i = min(
        (k for k, c in enumerate(scc.cyclic) if c and not scc.single_cycle[k]),
        key=lambda k: scc.members[k][0],
    )
    for u in scc.members[i]:
        firsts = [
            (_address(e, k), e.dst)
            for e in g.out_bundles(u)
            if scc.component[e.dst] == i
            for k in range(min(e.mult, 2))
        ][:2]
        if len(firsts) == 2:
            break
    return [list(_closed_by_return(g, scc, u, a, w, i).edges) for a, w in firsts]


def _closed_by_return(g: Graph, scc: Condensation, u: str, address: str, w: str, i: int) -> Cycle:
    """The cycle made of edge ``address`` (u -> w) and a shortest path from
    w back to u inside SCC ``i``."""
    comp = scc.component
    via = {w: None}
    todo = deque([w])
    while u not in via:
        x = todo.popleft()
        for e in g.out_bundles(x):
            if e.dst not in via and comp[e.dst] == i:
                via[e.dst] = e
                todo.append(e.dst)
    back = []
    x = u
    while x != w:
        e = via[x]
        back.append(_address(e, 0))
        x = e.src
    return _rotated([address] + back[::-1])


def _entry_paths(g: Graph, scc: Condensation, base: str) -> Union[int, object]:
    """The paths that end at ``base`` and touch it only there, counted
    (OMEGA when there are infinitely many).

    One reverse search collects the vertices that reach the base, then the
    paths are counted in topological order; a closed path among those
    vertices, or an infinite bundle between them, makes the count OMEGA.
    """
    comp = scc.component
    home = comp[base]
    reach = {base}
    todo = [base]
    while todo:
        for e in g.in_bundles(todo.pop()):
            s = e.src
            if s in reach:
                continue
            if comp[s] != home and scc.cyclic[comp[s]]:
                return OMEGA  # another cycle feeds the base
            reach.add(s)
            todo.append(s)
    pending = {}  # per vertex: bundles into reach - {base} not yet counted
    for v in reach - {base}:
        pending[v] = 0
        for e in g.out_bundles(v):
            if e.dst in reach:
                if e.mult is OMEGA:
                    return OMEGA
                if e.dst != base:
                    pending[v] += 1
    ways = {base: 1}
    total = 1  # the length-0 path at the base
    ready = [v for v, k in pending.items() if k == 0]
    while ready:
        v = ready.pop()
        ways[v] = n = sum(e.mult * ways[e.dst] for e in g.out_bundles(v) if e.dst in reach)
        total += n
        for e in g.in_bundles(v):
            if e.src in pending:
                pending[e.src] -= 1
                if pending[e.src] == 0:
                    ready.append(e.src)
    if len(ways) < len(reach):
        return OMEGA  # a closed path avoiding the base feeds it
    return total


class _Quotient:
    """The quotient of a row-finite graph by a hereditary saturated set H
    that grows step by step.

    On a row-finite graph the quotient by H is the subgraph induced on
    V \\ H, and H is a union of whole SCCs, so H grows one SCC at a time and
    the SCCs of the quotient are those of the graph outside H.  Per SCC this
    keeps one count of the successor SCCs still outside H: when it reaches
    0, an SCC with no inner edge (one regular vertex) joins H by saturation,
    and a single cycle has become a no-exit cycle of the quotient.  A vertex
    of a cyclic SCC keeps an edge inside its SCC, so saturation never adds
    one.  A no-exit cycle is built once, when its SCC loses its last exit,
    and waits in a heap by ``Cycle.sort_key``.  The filtrations grow H only
    by vertices that reach no cycle outside H and by cycles taken from the
    heap, so no cycle joins H while it waits.
    Growing H from empty to everything costs O(V + E) plus O(C log C) for
    the C no-exit cycles.
    """

    def __init__(self, g: Graph, scc: Condensation):
        self.graph = g
        self.scc = scc
        n = len(scc.members)
        self.vertices: set[str] = set()  # H
        self.in_h = [False] * n
        self.outside = [len(s) for s in scc.successors]
        self.no_exit: list[tuple] = []  # heap of (sort key, cycle)
        for i in range(n):
            if scc.no_exit[i]:
                self._push(i)
        self.preds: list[list[int]] = [[] for _ in range(n)]
        for i, succ in enumerate(scc.successors):
            for j in succ:
                self.preds[j].append(i)

    def _push(self, i: int) -> None:
        c = _scc_cycle(self.graph, self.scc, i)
        heapq.heappush(self.no_exit, (c.sort_key(), c))

    def grow(self, seed) -> None:
        """Close H over ``seed``."""
        scc, in_h, outside = self.scc, self.in_h, self.outside
        comp = scc.component
        todo = [comp[v] for v in seed]
        while todo:
            i = todo.pop()
            if in_h[i]:
                continue
            in_h[i] = True
            self.vertices.update(scc.members[i])
            todo.extend(scc.successors[i])
            for p in self.preds[i]:
                outside[p] -= 1
                if not outside[p] and not in_h[p]:
                    if not scc.inner_edges[p]:
                        todo.append(p)
                    elif scc.single_cycle[p]:
                        self._push(p)

    def no_exit_cycles(self) -> Iterator[Cycle]:
        """The no-exit cycles of the quotient, least first; each one yielded
        leaves the heap."""
        while self.no_exit:
            yield heapq.heappop(self.no_exit)[1]
