"""The enumeration-based structure procedures, kept as oracles for the SCC core.

Everything between the markers below is the library's code from before
:class:`leavitt.structure.GraphAnalysis`, copied verbatim: it enumerates
simple cycles, builds quotient graphs and scans vertex subsets.  The tests
at the end compare it with the library on the corpus graphs of 1 to 6
vertices with parallel bundles and at most 20 cycles (none infinite): every
verdict, filtration, corner report and ``report`` document must match
exactly, except the non-antisymmetry witness, which must be two distinct
simple cycles that reach each other.
"""

from __future__ import annotations

import argparse
import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Union

import pytest

from leavitt import (
    OMEGA,
    Graph,
    InfinitelyManyCyclesError,
    LeavittError,
    ResourceCapError,
    __version__,
)
from leavitt import cli, graph as graph_mod, structure
from leavitt.closures import HSSet, hereditary_closure, quotient
from leavitt.graph import (
    MAX_CYCLES_DEFAULT,
    Cycle,
    _addresses,
    canonical_cycle,
    classify_vertex,
    cycle_base,
    cycle_has_exit,
    cycle_vertices,
    is_regular,
    tree,
)
from leavitt.structure import (
    CornerReport,
    Filtration,
    FpVerdict,
    GkVerdict,
    LaurentMatrixLayer,
    Layer,
    MixedLayer,
    SocleLayer,
    VnrLayer,
)
from leavitt.errors import NotSupportedError
from corpus import CLASSES, sized, tags
from test_hs_oracles import enumerate_hs_sets

NOT_ROW_FINITE = "NOT_ROW_FINITE"
GEQ_NOT_ANTISYMMETRIC = "GEQ_NOT_ANTISYMMETRIC"
COND_2D_FAIL = "COND_2D_FAIL"
ACYCLIC_SOCLE_FAIL = "ACYCLIC_SOCLE_FAIL"
OK_ACYCLIC = "OK_ACYCLIC"
OK_CYCLIC = "OK_CYCLIC"


# --- verbatim copy of the enumeration-based procedures ----------------------


@dataclass(frozen=True)
class CyclePoset:
    """All simple cycles with the reachability pre-order ``>=``.

    ``longest_chain`` counts the cycles in a maximal strictly descending
    chain; it is None when the pre-order fails antisymmetry (strict chains
    then have no maximum) and 0 for an acyclic graph.
    """

    cycles: tuple[Cycle, ...]
    geq: tuple[tuple[bool, ...], ...]
    antisymmetric: bool
    longest_chain: int | None
    minimal_cycles: tuple[Cycle, ...]
    no_exit_cycles: tuple[Cycle, ...]

    def index(self, c: Cycle) -> int:
        return self.cycles.index(c)

    def holds(self, c: Cycle, d: Cycle) -> bool:
        return self.geq[self.index(c)][self.index(d)]


def vertices_on_closed_paths(g: Graph) -> frozenset[str]:
    """Vertices that lie on at least one closed path."""
    out = set()
    for v in g.vertices:
        succ = g.successors(v)
        if succ and v in g.reachable(succ):
            out.add(v)
    return frozenset(out)


def line_points(g: Graph) -> frozenset[str]:
    """Vertices whose tree contains no bifurcation and no cycle.

    An infinite bundle counts as a bifurcation.
    """
    on_cycle = vertices_on_closed_paths(g)

    def bad(w: str) -> bool:
        d = g.out_degree(w)
        return w in on_cycle or d is OMEGA or d >= 2

    bad_set = {w for w in g.vertices if bad(w)}
    return frozenset(v for v in g.vertices if not (g.reachable([v]) & bad_set))


def enumerate_cycles(g: Graph, max_cycles: int = MAX_CYCLES_DEFAULT) -> list[Cycle]:
    """All simple cycles, canonicalized, in a deterministic order.

    Bundles of multiplicity k contribute k parallel edges (hence k distinct
    cycles per vertex itinerary and slot).  An infinite bundle on a closed
    vertex itinerary makes the cycle set infinite and raises
    :class:`InfinitelyManyCyclesError`.
    """
    order = {v: i for i, v in enumerate(g.vertices)}
    found: set[Cycle] = set()

    def expand(steps: list[tuple[str, str]]) -> None:
        # one concrete-address choice per step; multiplicities multiply out
        choices: list[list[str]] = []
        for u, w in steps:
            addrs: list[str] = []
            for e in g.out_bundles(u):
                if e.dst != w:
                    continue
                if e.mult is OMEGA:
                    raise InfinitelyManyCyclesError(
                        f"infinite bundle {e.id!r} lies on a closed path"
                    )
                addrs.extend(_addresses(e))
            choices.append(sorted(addrs))
        combos = [[]]
        for addrs in choices:
            combos = [c + [a] for c in combos for a in addrs]
            if len(found) + len(combos) > max_cycles:
                raise ResourceCapError(f"more than {max_cycles} simple cycles")
        for combo in combos:
            found.add(canonical_cycle(g, combo))
            if len(found) > max_cycles:
                raise ResourceCapError(f"more than {max_cycles} simple cycles")

    def walk(root: str, v: str, visited: set[str], steps: list[tuple[str, str]]) -> None:
        for w in g.successors(v):
            if w == root:
                expand(steps + [(v, w)])
            elif order[w] > order[root] and w not in visited:
                visited.add(w)
                walk(root, w, visited, steps + [(v, w)])
                visited.remove(w)

    for root in g.vertices:
        walk(root, root, {root}, [])
    return sorted(found, key=Cycle.sort_key)


def condition_L(g: Graph, max_cycles: int = MAX_CYCLES_DEFAULT) -> bool:
    """Every simple cycle has an exit."""
    return all(cycle_has_exit(g, c) for c in enumerate_cycles(g, max_cycles))


def condition_K(g: Graph, max_cycles: int = MAX_CYCLES_DEFAULT) -> bool:
    """Every vertex on a simple closed path is the base of at least two
    distinct simple closed paths.

    A simple closed path based at v is a first-return path: it touches v only
    at its two ends, with no constraint on the other vertices.
    """
    cyclic: set[str] = set()
    for c in enumerate_cycles(g, max_cycles):
        cyclic.update(cycle_vertices(g, c))
    return all(_two_first_returns(g, v) for v in sorted(cyclic))


def _two_first_returns(g: Graph, v: str) -> bool:
    # R = vertices (other than v) lying on some v -> v walk avoiding v inside
    fwd = set()
    todo = [w for w in g.successors(v)]
    while todo:
        w = todo.pop()
        if w in fwd or w == v:
            continue
        fwd.add(w)
        todo.extend(g.successors(w))
    bwd = set()
    todo = [e.src for e in g.in_bundles(v)]
    while todo:
        w = todo.pop()
        if w in bwd or w == v:
            continue
        bwd.add(w)
        todo.extend(e.src for e in g.in_bundles(w))
    r = fwd & bwd

    # a closed path inside R can be pumped: infinitely many first returns
    for w in r:
        seen: set[str] = set()
        todo = [x for x in g.successors(w) if x in r]
        while todo:
            x = todo.pop()
            if x == w:
                return True
            if x in seen or x not in r:
                continue
            seen.add(x)
            todo.extend(y for y in g.successors(x) if y in r)

    # otherwise R induces a DAG: count v -> v paths exactly, capped at 2
    memo: dict[str, int] = {}

    def ways(w: str) -> int:
        # number of paths from w to v staying in R until the final step
        if w in memo:
            return memo[w]
        total = 0
        for e in g.out_bundles(w):
            m = 2 if e.mult is OMEGA else e.mult
            if e.dst == v:
                total += m
            elif e.dst in r:
                total += m * ways(e.dst)
            if total >= 2:
                break
        memo[w] = min(total, 2)
        return memo[w]

    count = 0
    for e in g.out_bundles(v):
        m = 2 if e.mult is OMEGA else e.mult
        if e.dst == v:
            count += m
        elif e.dst in r:
            count += m * ways(e.dst)
        if count >= 2:
            return True
    return count >= 2


def saturated_closure(g: Graph, seed: Iterable[str]) -> HSSet:
    """Smallest hereditary saturated superset of ``seed``.

    Saturation repeatedly adds any regular vertex all of whose edge ranges
    already lie in the set; this preserves hereditariness, so one hereditary
    pass followed by a saturation fixpoint reaches the closure.
    """
    seed_set = frozenset(g.require_vertex(v) for v in seed)
    closed = set(hereditary_closure(g, seed_set))
    changed = True
    while changed:
        changed = False
        for v in g.vertices:
            if v in closed or not is_regular(g, v):
                continue
            if all(e.dst in closed for e in g.out_bundles(v)):
                closed.add(v)
                changed = True
    return HSSet(frozenset(closed), seed_set)


def cycle_poset(g: Graph, max_cycles: int = MAX_CYCLES_DEFAULT) -> CyclePoset:
    cycles = tuple(enumerate_cycles(g, max_cycles))
    reach = {v: g.reachable([v]) for v in g.vertices}
    vsets = [cycle_vertices(g, c) for c in cycles]
    n = len(cycles)
    geq = tuple(
        tuple(bool(set().union(*(reach[v] for v in vsets[i])) & vsets[j]) for j in range(n))
        for i in range(n)
    )
    antisymmetric = all(
        not (geq[i][j] and geq[j][i]) for i in range(n) for j in range(n) if i != j
    )
    minimal = tuple(
        cycles[i]
        for i in range(n)
        if not any(geq[i][j] and not geq[j][i] for j in range(n) if j != i)
    )
    no_exit = tuple(c for c in cycles if not cycle_has_exit(g, c))
    longest: int | None
    if not antisymmetric:
        longest = None
    elif n == 0:
        longest = 0
    else:
        memo: dict[int, int] = {}

        def depth(i: int) -> int:
            if i in memo:
                return memo[i]
            below = [depth(j) for j in range(n) if j != i and geq[i][j]]
            memo[i] = 1 + max(below, default=0)
            return memo[i]

        longest = max(depth(i) for i in range(n))
    return CyclePoset(cycles, geq, antisymmetric, longest, minimal, no_exit)


def decide_fp(
    g: Graph,
    max_cycles: int = MAX_CYCLES_DEFAULT,
    max_vertices_hs: int = 20,
) -> FpVerdict:
    """Decide whether every simple one-sided module over the path algebra is
    finitely presented.

    Not-row-finite graphs fail outright.  Acyclic graphs pass exactly when
    the whole vertex set is the saturated closure of the line points.  Cyclic
    graphs need an antisymmetric cycle pre-order and, for every proper
    hereditary saturated set containing all line points, a quotient with a
    cycle without exits and no line points.
    """
    for e in g.edges:
        if e.mult is OMEGA:
            return FpVerdict(
                False, ({"code": NOT_ROW_FINITE, "witness": e.id},)
            )
    lp = line_points(g)
    cycles = enumerate_cycles(g, max_cycles)
    if not cycles:
        closure = saturated_closure(g, lp)
        if closure.vertices == frozenset(g.vertices):
            return FpVerdict(True, ({"code": OK_ACYCLIC, "witness": None},))
        missing = sorted(set(g.vertices) - closure.vertices)
        return FpVerdict(
            False, ({"code": ACYCLIC_SOCLE_FAIL, "witness": missing},)
        )

    cp = cycle_poset(g, max_cycles)
    notes = (
        "the cycle pre-order on a finite graph is artinian once antisymmetric",
        "every infinite path in a finite graph eventually winds around a cycle "
        "or reaches a line point, so the infinite-path condition holds",
    )
    if not cp.antisymmetric:
        witness = None
        for i, c in enumerate(cp.cycles):
            for j, d in enumerate(cp.cycles):
                if i != j and cp.geq[i][j] and cp.geq[j][i]:
                    witness = [list(c.edges), list(d.edges)]
                    break
            if witness:
                break
        return FpVerdict(
            False, ({"code": GEQ_NOT_ANTISYMMETRIC, "witness": witness},), notes
        )

    full = frozenset(g.vertices)
    for h in enumerate_hs_sets(g, max_vertices_hs):
        if h.vertices == full or not lp <= h.vertices:
            continue
        q = quotient(g, h.vertices)
        q_cycles = enumerate_cycles(q, max_cycles)
        has_no_exit = any(not cycle_has_exit(q, c) for c in q_cycles)
        q_lp = line_points(q)
        if not has_no_exit or q_lp:
            return FpVerdict(
                False,
                (
                    {
                        "code": COND_2D_FAIL,
                        "witness": {
                            "h": sorted(h.vertices),
                            "quotientHasNoExitCycle": has_no_exit,
                            "quotientLinePoints": sorted(q_lp),
                        },
                    },
                ),
                notes,
            )
    return FpVerdict(True, ({"code": OK_CYCLIC, "witness": None},), notes)


def disjoint_cycles_criterion(g: Graph, max_cycles: int = MAX_CYCLES_DEFAULT) -> bool:
    """No vertex lies on two distinct cycles (the finite-graph criterion)."""
    seen: set[str] = set()
    for c in enumerate_cycles(g, max_cycles):
        vs = cycle_vertices(g, c)
        if vs & seen:
            return False
        seen |= vs
    return True


def decide_gk(g: Graph, max_cycles: int = MAX_CYCLES_DEFAULT) -> GkVerdict:
    """Growth is polynomially bounded iff distinct cycles never meet, i.e.
    the cycle pre-order is antisymmetric; the longest chain d gives the lower
    bound 2d - 1 for the growth exponent (0 when acyclic)."""
    notes = ()
    if not g.is_row_finite():
        notes = ("graph has infinite bundles; verdict covers the listed structure only",)
    cp = cycle_poset(g, max_cycles)
    if not cp.antisymmetric:
        witness = None
        for i, c in enumerate(cp.cycles):
            for j, d in enumerate(cp.cycles):
                if i != j and cp.geq[i][j] and cp.geq[j][i]:
                    witness = [list(c.edges), list(d.edges)]
                    break
            if witness:
                break
        return GkVerdict(False, None, None, witness, notes)
    d = cp.longest_chain or 0
    return GkVerdict(True, d, 2 * d - 1 if d > 0 else 0, None, notes)


def laurent_index_cardinality(g: Graph, c: Cycle) -> Union[int, object]:
    """Size of the matrix ring realized by the ideal of a no-exit cycle.

    Counts the paths ending at the cycle's canonical base that touch the base
    only at their end (the length-0 path included); the count is OMEGA when
    a cyclic SCC other than the base's, an ``omega`` bundle, or a closed
    path avoiding the base feeds the base.
    """
    base = cycle_base(g, c)
    # paths visiting base once = paths ending at base avoiding base's out-edges
    on_cycle_sans_base: set[str] = set()
    for v in g.vertices:
        if v == base:
            continue
        seen: set[str] = set()
        todo = [e.dst for e in g.out_bundles(v) if e.src != base and e.dst != base]
        while todo:
            w = todo.pop()
            if w == v:
                on_cycle_sans_base.add(v)
                break
            if w in seen or w == base:
                continue
            seen.add(w)
            todo.extend(e.dst for e in g.out_bundles(w))
        # note: edges out of base are unusable, so walks through base stop there
    reaches_base = {base}
    changed = True
    while changed:
        changed = False
        for e in g.edges:
            if e.src != base and e.src not in reaches_base and e.dst in reaches_base:
                reaches_base.add(e.src)
                changed = True
    if on_cycle_sans_base & reaches_base:
        return OMEGA

    memo: dict[str, Union[int, object]] = {base: 1}

    def count_from(v: str) -> Union[int, object]:
        if v in memo:
            return memo[v]
        total = 0
        for e in g.out_bundles(v):
            if e.dst not in reaches_base:
                continue
            sub = 1 if e.dst == base else count_from(e.dst)
            if e.mult is OMEGA or sub is OMEGA:
                total = OMEGA
                break
            total += e.mult * sub
        memo[v] = total
        return total

    total: Union[int, object] = 1  # the length-0 path at the base
    for v in sorted(reaches_base - {base}):
        sub = count_from(v)
        if sub is OMEGA:
            return OMEGA
        total += sub
    return total


def fp_filtration(
    g: Graph,
    max_cycles: int = MAX_CYCLES_DEFAULT,
    max_vertices_hs: int = 20,
) -> Filtration:
    """The ascending chain of hereditary saturated sets witnessing the
    finite-presentation property: the socle closure first, then one cycle
    without exits per step (lexicographically least in the current quotient).
    """
    verdict = decide_fp(g, max_cycles, max_vertices_hs)
    if not verdict.all_finitely_presented:
        raise NotSupportedError(
            f"not every simple module is finitely presented: {verdict.codes()}"
        )
    full = frozenset(g.vertices)
    h = saturated_closure(g, line_points(g))
    chain = [h]
    layers: list[Layer] = [SocleLayer(h.vertices)]
    while h.vertices != full:
        q = quotient(g, h.vertices)
        no_exit = [c for c in enumerate_cycles(q, max_cycles) if not cycle_has_exit(q, c)]
        c = min(no_exit, key=Cycle.sort_key)
        card = laurent_index_cardinality(q, c)
        h = saturated_closure(g, h.vertices | cycle_vertices(q, c))
        chain.append(h)
        layers.append(LaurentMatrixLayer(c, card))
    return Filtration(tuple(chain), tuple(layers))


def _acyclic_vertices(g: Graph) -> frozenset[str]:
    on_cycle = vertices_on_closed_paths(g)
    return frozenset(v for v in g.vertices if not (g.reachable([v]) & on_cycle))


def gk_filtration(g: Graph, max_cycles: int = MAX_CYCLES_DEFAULT) -> Filtration:
    """The finite chain of hereditary saturated sets witnessing polynomially
    bounded growth: first the closure of the exit targets of minimal cycles,
    then, per step, all acyclic vertices and all no-exit cycles of the
    current quotient.
    """
    verdict = decide_gk(g, max_cycles)
    if not verdict.finite:
        raise NotSupportedError("growth is not polynomially bounded")
    if not g.is_row_finite():
        raise NotSupportedError("filtrations require a row-finite graph")
    full = frozenset(g.vertices)
    cp = cycle_poset(g, max_cycles)
    exit_targets: set[str] = set()
    for c in cp.minimal_cycles:
        cvs = cycle_vertices(g, c)
        on_cycle = set(c.edges)
        for v in cvs:
            for addr in g.concrete_out(v):
                if addr not in on_cycle:
                    exit_targets.add(g.dst_of(addr))
    h = saturated_closure(g, exit_targets)
    chain: list[HSSet] = []
    layers: list[Layer] = []
    if h.vertices:
        chain.append(h)
        layers.append(VnrLayer(h.vertices))
    while h.vertices != full:
        q = quotient(g, h.vertices)
        acyclic = _acyclic_vertices(q)
        no_exit = sorted(
            (c for c in enumerate_cycles(q, max_cycles) if not cycle_has_exit(q, c)),
            key=Cycle.sort_key,
        )
        added = set(acyclic)
        for c in no_exit:
            added |= cycle_vertices(q, c)
        laurent = tuple(LaurentMatrixLayer(c, laurent_index_cardinality(q, c)) for c in no_exit)
        if acyclic and laurent:
            layer: Layer = MixedLayer(acyclic, laurent)
        elif laurent and len(laurent) == 1:
            layer = laurent[0]
        elif laurent:
            layer = MixedLayer(frozenset(), laurent)
        else:
            layer = VnrLayer(acyclic)
        h = saturated_closure(g, h.vertices | added)
        chain.append(h)
        layers.append(layer)
    if not chain:
        # graph with no vertices at all
        chain = [saturated_closure(g, ())]
        layers = [VnrLayer(frozenset())]
    return Filtration(tuple(chain), tuple(layers))


def corner_report(g: Graph, v: str, max_cycles: int = MAX_CYCLES_DEFAULT) -> CornerReport:
    """Evaluate the tree of ``v`` as a complete subgraph and emit the ring
    labels its properties certify."""
    t = tree(g, g.require_vertex(v)).as_graph()
    on_cycle = vertices_on_closed_paths(t)
    acyclic = not on_cycle
    is_lp = v in line_points(g)
    no_exit_tree = _tree_is_no_exit_cycle(t, v)
    cond_l = condition_L(t, max_cycles)
    cond_k = condition_K(t, max_cycles)
    return CornerReport(v, is_lp, no_exit_tree, acyclic, cond_l, cond_k)


def _tree_is_no_exit_cycle(t: Graph, v: str) -> bool:
    # the tree is a single cycle without exits iff every vertex emits exactly
    # one edge and the unique walk from v returns to v through all vertices
    for w in t.vertices:
        if t.out_degree(w) != 1:
            return False
    seen = []
    at = v
    while True:
        seen.append(at)
        (e,) = t.out_bundles(at)
        at = e.dst
        if at == v:
            break
        if at in seen:
            return False
    return len(seen) == len(t.vertices)


def _report(g: Graph, args) -> dict:
    cp = cycle_poset(g, args.max_cycles)
    classes = {}
    for v in g.vertices:
        c = classify_vertex(g, v)
        classes[v] = {"class": c.kind, "outDegree": c.out_degree}
    lp = sorted(line_points(g))
    socle = sorted(saturated_closure(g, lp).vertices)
    return {
        "version": __version__,
        "summary": {
            "vertices": len(g.vertices),
            "edgeBundles": len(g.edges),
            "rowFinite": g.is_row_finite(),
            "conditionL": condition_L(g, args.max_cycles),
            "conditionK": condition_K(g, args.max_cycles),
        },
        "vertexClasses": classes,
        "linePoints": lp,
        "socleVertices": socle,
        "cyclePoset": {
            "cycles": [list(c.edges) for c in cp.cycles],
            "antisymmetric": cp.antisymmetric,
            "longestChain": cp.longest_chain,
            "minimalCycles": [list(c.edges) for c in cp.minimal_cycles],
            "noExitCycles": [list(c.edges) for c in cp.no_exit_cycles],
        },
        "fp": decide_fp(g, args.max_cycles, args.max_vertices_hs).to_obj(),
        "gk": decide_gk(g, args.max_cycles).to_obj(),
        "corners": {v: corner_report(g, v, args.max_cycles).to_obj() for v in g.vertices},
    }


# --- end of the verbatim copy -----------------------------------------------


def _outcome(fn, *args):
    """The result of a call, or the class of the LeavittError it raised."""
    try:
        return fn(*args)
    except LeavittError as exc:
        return type(exc)


def _to_obj(x):
    return x if isinstance(x, type) else x.to_obj()


def _same_poset(new, old) -> bool:
    """Equal outcomes: the five listed fields agree, and ``holds`` reads the
    old ``geq`` matrix on every pair of cycles."""
    if isinstance(new, type) or isinstance(old, type):
        return new is old
    fields = ("cycles", "antisymmetric", "longest_chain", "minimal_cycles", "no_exit_cycles")
    return all(getattr(new, f) == getattr(old, f) for f in fields) and all(
        new.holds(c, d) == old.geq[i][j]
        for i, c in enumerate(old.cycles)
        for j, d in enumerate(old.cycles)
    )


def _valid_witness(g: Graph, witness) -> bool:
    """Two distinct canonical simple cycles that reach each other."""
    cycles = [canonical_cycle(g, w) for w in witness]
    if len(cycles) != 2 or cycles[0] == cycles[1]:
        return False
    if any(list(c.edges) != w for c, w in zip(cycles, witness)):
        return False
    a, b = (cycle_vertices(g, c) for c in cycles)
    return bool(g.reachable(a) & b) and bool(g.reachable(b) & a)


def _without_witness(g: Graph, obj):
    """A verdict's JSON with a non-antisymmetry witness checked and removed."""
    if isinstance(obj, type):
        return obj
    obj = json.loads(json.dumps(obj))
    if obj.get("finite") is False:
        assert _valid_witness(g, obj.pop("witness"))
    for r in obj.get("reasons", []):
        if r["code"] == GEQ_NOT_ANTISYMMETRIC:
            assert _valid_witness(g, r.pop("witness"))
    return obj


CAPS = argparse.Namespace(max_cycles=MAX_CYCLES_DEFAULT, max_vertices_hs=20)


def _new_report(g):
    obj = cli._report(g, CAPS)
    obj["fp"] = _without_witness(g, obj["fp"])
    obj["gk"] = _without_witness(g, obj["gk"])
    return obj


def _old_report(g):
    obj = _report(g, CAPS)
    obj["fp"] = _without_witness(g, obj["fp"])
    obj["gk"] = _without_witness(g, obj["gk"])
    return obj


# per class, the most graphs a part of 500 drawn before the corpus held
_FLOORS = dict(zip(CLASSES, (41, 256, 62, 0, 408, 36, 282, 66)))
# the corpus graphs of 1 to 6 vertices with parallel bundles and at most 20
# cycles, none infinite: the pre-order comparison is cubic in the cycles
_SMALL = [g for g in sized(1, 6) if "multi_edges" in tags(g) and isinstance(_outcome(enumerate_cycles, g, 20), list)]


@pytest.mark.parametrize("part", range(4))
def test_scc_core_matches_enumeration(part):
    """Every fourth graph of ``_SMALL``, from the ``part``-th on."""
    graphs = _SMALL[part::4]
    classes = Counter(c for g in graphs for c in tags(g))
    assert all(classes[c] >= n for c, n in _FLOORS.items()), classes
    for g in graphs:
        assert graph_mod.vertices_on_closed_paths(g) == vertices_on_closed_paths(g)
        assert graph_mod.line_points(g) == line_points(g)
        assert _outcome(graph_mod.enumerate_cycles, g) == _outcome(enumerate_cycles, g)
        assert _same_poset(_outcome(structure.cycle_poset, g), _outcome(cycle_poset, g))
        for new, old in (
            (graph_mod.condition_L, condition_L),
            (graph_mod.condition_K, condition_K),
            (structure.disjoint_cycles_criterion, disjoint_cycles_criterion),
        ):
            assert _outcome(new, g) == _outcome(old, g)
        for new, old in ((structure.decide_fp, decide_fp), (structure.decide_gk, decide_gk)):
            assert _without_witness(g, _to_obj(_outcome(new, g))) == _without_witness(
                g, _to_obj(_outcome(old, g))
            )
        for new, old in ((structure.fp_filtration, fp_filtration), (structure.gk_filtration, gk_filtration)):
            assert _to_obj(_outcome(new, g)) == _to_obj(_outcome(old, g))
        for v in g.vertices:
            assert _to_obj(_outcome(structure.corner_report, g, v)) == _to_obj(_outcome(corner_report, g, v))
        cycles = _outcome(enumerate_cycles, g)
        if isinstance(cycles, list):
            for c in cycles:
                assert structure.laurent_index_cardinality(g, c) == laurent_index_cardinality(g, c)
        assert _outcome(_new_report, g) == _outcome(_old_report, g)


def test_infinite_bundle_on_a_closed_path_raises_as_before():
    checked = 0
    for g in [g for g in sized(1, 6) if "omega_on_cycle" in tags(g)][:300]:
        for new, old in (
            (structure.decide_gk, decide_gk),
            (graph_mod.condition_L, condition_L),
            (graph_mod.condition_K, condition_K),
            (structure.disjoint_cycles_criterion, disjoint_cycles_criterion),
            (structure.gk_filtration, gk_filtration),
            (_new_report, _old_report),
        ):
            assert _outcome(new, g) is _outcome(old, g) is InfinitelyManyCyclesError
        assert _to_obj(_outcome(structure.decide_fp, g)) == _to_obj(_outcome(decide_fp, g))
        for v in g.vertices:
            assert _to_obj(_outcome(structure.corner_report, g, v)) == _to_obj(_outcome(corner_report, g, v))
        checked += 1
    assert checked == 300
