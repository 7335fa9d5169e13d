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
is built, so asking many questions about one graph costs one analysis.  A
filtration adds one forward pass over the SCCs that counts every Laurent
index, so it costs O(V + E) plus the size of its chain.  Two cycles reach
each other exactly when they lie in the same SCC, so the pre-order is
antisymmetric exactly when every SCC on a closed path is a single simple
cycle, that is, has as many inner edges as vertices.  Only
:func:`cycle_poset` lists cycles, and only it is capped; it builds the
reachability bitsets of the pre-order itself, as they take O(S²) bits for S
SCCs where the condensation holds O(V + E) facts.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Union

from .closures import HSSet, saturated_closure
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
    _require_graph,
    _rotated,
    canonical_cycle,
    condensation,
    cycle_base,
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

    @cached_property
    def _positions(self) -> dict[Cycle, int]:
        return {c: i for i, c in enumerate(self.cycles)}

    def index(self, c: Cycle) -> int:
        try:
            return self._positions[c]
        except (KeyError, TypeError):  # TypeError: an unhashable c
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
        tuple(c for c, i in zip(cycles, at) if scc.depth[i] == 1),
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
    only at their end (the length-0 path included); the count is OMEGA when
    a cyclic SCC other than the base's, an ``omega`` bundle, or a closed
    path avoiding the base feeds the base.  ``c`` is checked to be a closed
    simple edge sequence of ``g`` first.
    """
    base = cycle_base(g, canonical_cycle(g, _require_cycle(c).edges))
    scc = condensation(g)
    return _laurent_index(g, scc, _entry_counts(g, scc), base)


def fp_filtration(g: Graph) -> Filtration:
    """The ascending chain of hereditary saturated sets witnessing the
    finite-presentation property: the socle closure first, then one cycle
    without exits per step (lexicographically least in the current quotient).

    The socle closure H0 is every SCC of depth 0: sinks are line points, and
    saturation takes in each vertex that reaches no cycle.  The steps are a
    least-first topological order of the cycles over the condensation.  Per
    SCC outside H this keeps one count of its successor SCCs still outside
    H; a cycle whose count is 0 has no exit in the quotient, and waits in a
    heap by ``Cycle.sort_key``.  Each step takes the least of them, and every
    acyclic SCC whose count then drops to 0 joins H with it by saturation.
    """
    verdict = decide_fp(g)
    if not verdict.all_finitely_presented:
        raise NotSupportedError(f"not every simple module is finitely presented: {verdict.codes()}")
    scc = condensation(g)
    depth, members, entry = scc.depth, scc.members, _entry_counts(g, scc)
    h = frozenset(v for i, d in enumerate(depth) if not d for v in members[i])
    chain = [HSSet(h, scc.line_points)]
    layers: list[Layer] = [SocleLayer(h)]
    outside = [0] * len(depth)
    preds: list[list[int]] = [[] for _ in depth]
    for i, succ in enumerate(scc.successors):
        for j in succ:
            if depth[j]:
                outside[i] += 1
                preds[j].append(i)
    ready = []  # heap of (sort key, SCC, cycle)

    def push(i: int) -> None:
        c = _scc_cycle(g, scc, i)
        heapq.heappush(ready, (c.sort_key(), i, c))

    for i, c in enumerate(scc.cyclic):
        if c and not outside[i]:
            push(i)
    while ready:
        _, i, c = heapq.heappop(ready)
        seed = h.union(members[i])
        joined = [i]
        for k in joined:  # grows as acyclic SCCs join by saturation
            for p in preds[k]:
                outside[p] -= 1
                if not outside[p]:
                    if scc.cyclic[p]:
                        push(p)
                    else:
                        joined.append(p)
        h = seed.union(v for k in joined[1:] for v in members[k])
        chain.append(HSSet(h, seed))
        layers.append(LaurentMatrixLayer(c, _laurent_index(g, scc, entry, cycle_base(g, c))))
    return Filtration(tuple(chain), tuple(layers))


def gk_filtration(g: Graph) -> Filtration:
    """The finite chain of hereditary saturated sets witnessing polynomially
    bounded growth, one step per level of the SCC ``depth``.

    The first set, H0, is the closure of the exit targets of the cycles of
    depth 1, and holds vertices of depth 0 only.  Step k adds the cycles of
    depth k, least ``Cycle.sort_key`` first, and step 1 also the vertices of
    depth 0 outside H0.  The set after step k is H0 with every SCC of depth
    at most k: the cycles of depth k are the no-exit cycles of the quotient
    by the set before, and saturation takes in each vertex of depth k that
    lies on no cycle.
    """
    if not decide_gk(g).finite:
        raise NotSupportedError("growth is not polynomially bounded")
    if not g.is_row_finite():
        raise NotSupportedError("filtrations require a row-finite graph")
    scc = condensation(g)
    comp, members, entry = scc.component, scc.members, _entry_counts(g, scc)
    # the SCCs per depth; an acyclic graph, or one with no vertices, takes one step
    by_depth: list[list[int]] = [[] for _ in range(max([1, *scc.depth]) + 1)]
    for i, d in enumerate(scc.depth):
        by_depth[d].append(i)
    exit_targets = (
        e.dst for i in by_depth[1] if scc.cyclic[i] for v in members[i] for e in g._out[v] if comp[e.dst] != i
    )
    h0 = saturated_closure(g, exit_targets)
    h = h0.vertices
    chain: list[HSSet] = [h0] if h else []
    layers: list[Layer] = [VnrLayer(h)] if h else []
    acyclic = frozenset(v for i in by_depth[0] for v in members[i] if v not in h)
    for level in by_depth[1:]:
        cyclic = [i for i in level if scc.cyclic[i]]
        cycles = sorted((_scc_cycle(g, scc, i) for i in cyclic), key=Cycle.sort_key)
        laurent = tuple(LaurentMatrixLayer(c, _laurent_index(g, scc, entry, cycle_base(g, c))) for c in cycles)
        if len(laurent) == 1 and not acyclic:
            layer: Layer = laurent[0]
        elif laurent:
            layer = MixedLayer(acyclic, laurent)
        else:
            layer = VnrLayer(acyclic)
        seed = h | acyclic | {v for i in cyclic for v in members[i]}
        h = seed.union(v for i in level for v in members[i])
        chain.append(HSSet(h, seed))
        layers.append(layer)
        acyclic = frozenset()
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
        not scc.depth[i],
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
    by a shortest return path to u.  An ``OMEGA`` bundle is read as two or
    more edges: its first two are ``id[0]`` and ``id[1]``."""
    i = min(
        (k for k, c in enumerate(scc.cyclic) if c and not scc.single_cycle[k]),
        key=lambda k: scc.members[k][0],
    )
    for u in scc.members[i]:
        firsts = [
            (_address(e, k), e.dst)
            for e in g.out_bundles(u)
            if scc.component[e.dst] == i
            for k in range(2 if e.mult is OMEGA else min(e.mult, 2))
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


def _entry_counts(g: Graph, scc: Condensation) -> dict[str, Union[int, object]]:
    """Per vertex v that reaches a cycle (no other feeds a base), the paths
    that end at v and meet its SCC only there, by one pass over the SCCs in
    topological order: 1 plus each bundle into v from outside its SCC times
    the paths ending at its source, and OMEGA if either factor is infinite."""
    comp = scc.component
    entry: dict[str, Union[int, object]] = {}
    for i, vs in enumerate(scc.members):
        for v in vs if scc.depth[i] else ():
            n = 1
            for e in g._in[v]:
                if comp[e.src] != i:
                    if e.mult is OMEGA or scc.cyclic[comp[e.src]] or entry[e.src] is OMEGA:
                        n = OMEGA
                        break
                    n += e.mult * entry[e.src]
            entry[v] = n
    return entry


def _laurent_index(g: Graph, scc: Condensation, entry: dict, base: str) -> Union[int, object]:
    """The paths that end at ``base`` and touch it only there, counted
    (OMEGA when there are infinitely many).  Such a path enters the base's
    SCC once, at w, and stays inside it: with the base's out-edges cut,
    ``entry[w]`` is carried through the SCC in topological order to the
    base, and a closed path that avoids the base leaves it unreached."""
    comp, home = scc.component, scc.component[base]
    ways = {w: entry[w] for w in scc.members[home]}
    if OMEGA in ways.values():
        return OMEGA
    pending = {w: sum(comp[e.src] == home and e.src != base for e in g._in[w]) for w in ways}
    ready = [w for w in ways if not pending[w]]
    while ready:
        w = ready.pop()
        for e in g._out[w] if w != base else ():
            if comp[e.dst] == home:
                if e.mult is OMEGA:
                    return OMEGA
                ways[e.dst] += e.mult * ways[w]
                pending[e.dst] -= 1
                if not pending[e.dst]:
                    ready.append(e.dst)
    return OMEGA if pending[base] else ways[base]
