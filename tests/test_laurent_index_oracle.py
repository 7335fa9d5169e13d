"""The Laurent index read off one shared forward pass, against its
definition.

The Laurent index of a no-exit cycle counts the paths that end at the
cycle's base and meet the base only there.  ``_entry_path_count`` counts
them by length, from the definition.  The library counts the paths ending
at each vertex that reaches a cycle once per graph (``_entry_counts``), and
carries them through the base's SCC (``_laurent_index``).  On every corpus
graph (multiplicities 1 to 3 and ``omega``, many SCCs that are not a single
cycle) both must give the same count for every vertex of every cyclic SCC
taken as the base.
"""

from __future__ import annotations

from typing import Union

from leavitt.graph import OMEGA, Graph, condensation
from leavitt.structure import _entry_counts, _laurent_index
from corpus import GRAPHS


def _entry_path_count(g: Graph, base: str) -> Union[int, object]:
    """The paths that end at ``base`` and meet it only there, the length-0
    path included, counted by length over at most V steps.  The count is
    OMEGA when an ``omega`` bundle lies on such a path, or when one has
    length V: it repeats a vertex, so it goes round a closed path that
    avoids the base."""
    ends = {base: 1}  # the paths of the current length, by their first vertex
    total = 1
    into = g._in  # each vertex's incoming bundles
    for _ in g.vertices:
        longer: dict[str, int] = {}
        for w, n in ends.items():
            for e in into[w]:
                if e.src == base:
                    continue
                if e.mult is OMEGA:
                    return OMEGA
                longer[e.src] = longer.get(e.src, 0) + e.mult * n
        if not longer:
            return total
        total += sum(longer.values())
        ends = longer
    return OMEGA


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
                old = _entry_path_count(g, base)
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
