"""The gk and fp filtrations read off the condensation, against the
quotient walk they replaced.

``_oracle_gk_filtration``, ``_oracle_fp_filtration`` and ``_Quotient`` are
the earlier ``gk_filtration`` and ``fp_filtration`` and the count-and-heap
engine they drove, kept as they were except for their names, this
docstring, and the condensation the gk one reads: ``_OldFields`` gives it
the two derived fields it used, ``minimal`` and ``reaches_cyclic``, computed
as the earlier cached properties did, without ``depth``.  On every corpus graph
(long chains of loops, multiplicities 1 to 3, acyclic graphs, the empty
graph, and graphs the filtrations refuse) the library must return the same
filtration, or raise the same error with the same message.
"""

from __future__ import annotations

import heapq
from typing import Iterator

from leavitt.closures import HSSet
from leavitt.errors import LeavittError, NotSupportedError
from leavitt.graph import OMEGA, Condensation, Cycle, Graph, condensation, cycle_base, cycle_vertices
from leavitt.structure import (
    Filtration,
    LaurentMatrixLayer,
    Layer,
    MixedLayer,
    SocleLayer,
    VnrLayer,
    _scc_cycle,
    decide_fp,
    decide_gk,
    fp_filtration,
    gk_filtration,
)
from corpus import GRAPHS
from test_laurent_index_oracle import _entry_paths


class _OldFields:
    """A condensation with the per-SCC fields ``reaches_cyclic`` (it reaches
    or is a cyclic SCC) and ``minimal`` (it is cyclic and reaches no other
    cyclic SCC), derived by one reverse pass over the successors."""

    def __init__(self, scc: Condensation):
        self._scc = scc
        reaches = list(scc.cyclic)
        for i in reversed(range(len(reaches))):
            if not reaches[i]:
                reaches[i] = any(reaches[j] for j in scc.successors[i])
        self.reaches_cyclic = reaches
        self.minimal = [c and not any(reaches[j] for j in s) for c, s in zip(scc.cyclic, scc.successors)]

    def __getattr__(self, name):
        return getattr(self._scc, name)


def _oracle_gk_filtration(g: Graph) -> Filtration:
    """The finite chain of hereditary saturated sets witnessing polynomially
    bounded growth: first the closure of the exit targets of minimal cycles,
    then, per step, all acyclic vertices and all no-exit cycles of the
    current quotient.
    """
    if not decide_gk(g).finite:
        raise NotSupportedError("growth is not polynomially bounded")
    if not g.is_row_finite():
        raise NotSupportedError("filtrations require a row-finite graph")
    scc = _OldFields(condensation(g))
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


def _oracle_fp_filtration(g: Graph) -> Filtration:
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


def _outcome(g: Graph, fn):
    """The filtration, its seeds included, or the error's class and message."""
    try:
        return fn(g)
    except LeavittError as exc:
        return type(exc), str(exc)


def test_gk_filtration_matches_the_quotient_walk():
    deep = mixed = omega = several = acyclic = refused = 0
    for g in GRAPHS:
        old = _outcome(g, _oracle_gk_filtration)
        assert _outcome(g, gk_filtration) == old, g.edges
        if not isinstance(old, Filtration):
            refused += 1
            continue
        acyclic += not any(condensation(g).cyclic)
        deep += len(old.layers) >= 4
        mixed += any(isinstance(layer, MixedLayer) for layer in old.layers)
        parts = [layer.laurent if isinstance(layer, MixedLayer) else (layer,) for layer in old.layers]
        omega += any(getattr(p, "index_cardinality", None) is OMEGA for ps in parts for p in ps)
        several += any(len(ps) >= 2 for ps in parts)
    # every case is well represented: long chains, mixed layers, omega
    # indices, steps with two or more cycles, acyclic graphs and refusals
    counts = (deep, mixed, omega, several, acyclic, refused)
    assert deep >= 300 and mixed >= 100 and omega >= 100, counts
    assert min(several, acyclic, refused) >= 100, counts


def test_fp_filtration_matches_the_quotient_walk():
    deep = unordered = saturated = omega = refused = 0
    for g in GRAPHS:
        old = _outcome(g, _oracle_fp_filtration)
        assert _outcome(g, fp_filtration) == old, g.edges
        if not isinstance(old, Filtration):
            refused += 1
            continue
        steps = old.layers[1:]
        keys = [layer.cycle.sort_key() for layer in steps]
        deep += len(old.layers) >= 4
        unordered += keys != sorted(keys)
        # a vertex outside the seed H_{k-1} | cycle joins H_k by saturation
        saturated += any(h.vertices != h.generated_from for h in old.chain[1:])
        omega += any(layer.index_cardinality is OMEGA for layer in steps)
    # every case is well represented: long chains, cycles taken out of
    # ascending order (one becomes ready only after a greater one is
    # taken), saturation at a cycle step, omega indices and refusals
    counts = (deep, unordered, saturated, omega, refused)
    assert min(counts) >= 300, counts
