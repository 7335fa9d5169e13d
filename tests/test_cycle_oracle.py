"""Cycle enumeration against the body it had before each cycle carried its SCC.

``_oracle_enumerate_cycles`` is the earlier ``enumerate_cycles``, kept as it
was except for its name: it looked each step's bundles up with
``out_bundles``, built a :class:`Cycle` per rotation and sorted the cycles
by ``Cycle.sort_key``.  ``_oracle_components`` is the mapping the earlier
``cycle_poset`` made, one ``cycle_base`` (and so one ``Graph.resolve``) per
cycle.  On every corpus graph (parallel bundles, SCCs holding several
cycles, infinite bundles on and off closed paths, more cycles than the cap
of 400), the library must list the same cycles in the same order (or raise
the same error), and the poset must put each cycle in the same SCC.
"""

from __future__ import annotations

from itertools import product
from math import prod

from leavitt.errors import InfinitelyManyCyclesError, LeavittError, ResourceCapError
from leavitt.graph import (
    MAX_CYCLES_DEFAULT,
    OMEGA,
    Cycle,
    Graph,
    _addresses,
    _require_int,
    _rotated,
    condensation,
    cycle_base,
    enumerate_cycles,
)
from leavitt.structure import cycle_poset

from corpus import GRAPHS


def _oracle_enumerate_cycles(g: Graph, max_cycles: int = MAX_CYCLES_DEFAULT) -> list[Cycle]:
    """All simple cycles, canonicalized, in a deterministic order.

    Bundles of multiplicity k contribute k parallel edges (hence k distinct
    cycles per vertex itinerary and slot).  An infinite bundle on a closed
    vertex itinerary makes the cycle set infinite and raises
    :class:`InfinitelyManyCyclesError`.  The cycles of an itinerary are
    counted before any is listed, so the cap costs nothing per edge.
    """
    _require_int(max_cycles, "the cycle cap")
    order = {v: i for i, v in enumerate(g.vertices)}
    found: list[Cycle] = []

    def expand(steps: list[tuple[str, str]]) -> None:
        # one concrete-address choice per step; multiplicities multiply out
        bundles = [[e for e in g.out_bundles(u) if e.dst == w] for u, w in steps]
        for e in (e for step in bundles for e in step):
            if e.mult is OMEGA:
                raise InfinitelyManyCyclesError(f"infinite bundle {e.id!r} lies on a closed path")
        if len(found) + prod(sum(e.mult for e in step) for step in bundles) > max_cycles:
            raise ResourceCapError(f"more than {max_cycles} simple cycles")
        choices = [sorted(a for e in step for a in _addresses(e)) for step in bundles]
        found.extend(map(_rotated, product(*choices)))

    # depth-first from each root through higher-ordered vertices of its own
    # SCC only (a cycle through root never leaves it), so each vertex
    # itinerary is found once, from its least vertex, and no cycle twice
    component = condensation(g).component
    for root in g.vertices:
        rank, home = order[root], component[root]
        # the walk closes only along an edge into root from root itself or
        # from a higher-ordered vertex of its SCC
        if not any(order[e.src] >= rank and component[e.src] == home for e in g._in[root]):
            continue
        visited = {root}
        steps: list[tuple[str, str]] = []  # the current path, one step per frame below root
        work = [(root, iter(g._succ[root]))]
        while work:
            v, succ = work[-1]
            for w in succ:
                if w == root:
                    steps.append((v, w))
                    expand(steps)
                    steps.pop()
                elif order[w] > rank and component[w] == home and w not in visited:
                    visited.add(w)
                    steps.append((v, w))
                    work.append((w, iter(g._succ[w])))
                    break
            else:
                work.pop()
                if work:
                    visited.discard(v)
                    steps.pop()
    found.sort(key=Cycle.sort_key)
    return found


def _oracle_components(g: Graph, cycles) -> tuple[int, ...]:
    scc = condensation(g)
    return tuple(scc.component[cycle_base(g, c)] for c in cycles)


def test_cycles_and_their_sccs_match_the_oracle():
    several = multi = infinite = capped = unbounded = 0
    for g in GRAPHS:
        try:
            want = _oracle_enumerate_cycles(g, max_cycles=400)
        except LeavittError as exc:
            for call in (enumerate_cycles, cycle_poset):
                try:
                    call(g, max_cycles=400)
                except LeavittError as got:
                    assert (type(got), str(got)) == (type(exc), str(exc)), g
                else:
                    raise AssertionError(f"{call.__name__} did not raise {exc!r} on {g}")
            capped += isinstance(exc, ResourceCapError)
            unbounded += isinstance(exc, InfinitelyManyCyclesError)
            continue
        assert enumerate_cycles(g, max_cycles=400) == want, g
        cp = cycle_poset(g, max_cycles=400)
        assert cp.cycles == tuple(want), g
        assert cp.components == _oracle_components(g, want), g
        several += len(set(cp.components)) < len(cp.components)
        multi += any("[" in a for c in want for a in c.edges)
        infinite += not g.is_row_finite()
    # every kind is well represented
    assert several >= 300 and multi >= 300 and infinite >= 300, (several, multi, infinite)
    assert capped >= 10 and unbounded >= 10, (capped, unbounded)
