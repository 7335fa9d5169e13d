"""The Laurent index read off one shared forward pass, against the
per-base search it replaced.

``_entry_paths`` is the earlier library helper, copied verbatim: one
reverse search from the base collects the vertices that reach it, then the
paths are counted in topological order.  The library now counts the paths
ending at each vertex that reaches a cycle once per graph
(``_entry_counts``), and carries them through the base's SCC
(``_laurent_index``).  On every corpus graph (multiplicities 1 to 3 and
``omega``, many SCCs that are not a single cycle) both must give the same
count for every vertex of every cyclic SCC taken as the base.
"""

from __future__ import annotations

from typing import Union

from leavitt.graph import OMEGA, Condensation, Graph, condensation
from leavitt.structure import _entry_counts, _laurent_index
from corpus import GRAPHS


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


def test_laurent_index_matches_the_entry_path_search():
    bases = omega = general = general_finite = fed = infinite_bundles = 0
    for g in GRAPHS:
        scc = condensation(g)
        entry = _entry_counts(g, scc)
        infinite_bundles += not g.is_row_finite()
        for i, vs in enumerate(scc.members):
            if not scc.cyclic[i]:
                continue
            for base in vs:
                old = _entry_paths(g, scc, base)
                assert _laurent_index(g, scc, entry, base) == old, (g.edges, base)
                bases += 1
                omega += old is OMEGA
                general += not scc.single_cycle[i]
                general_finite += not scc.single_cycle[i] and old is not OMEGA
                fed += old is not OMEGA and old > 1
    # every case is well represented: OMEGA counts, bases in SCCs that are
    # not a single cycle (with finite counts too), finite counts above 1
    # (paths from outside the base), and graphs with omega bundles
    counts = (bases, omega, general, general_finite, fed, infinite_bundles)
    assert bases >= 1800 and omega >= 700 and general >= 1100, counts
    assert general_finite >= 550 and fed >= 375 and infinite_bundles >= 600, counts
