"""The subset scan that enumerated hereditary saturated sets before the
condensation walk, kept as an oracle.

Everything between the markers below is the library's code from before,
copied verbatim: it tests every one of the 2^|V| vertex subsets.  The tests
at the end compare it with :func:`leavitt.closures.enumerate_hs_sets`, list
order included, on the corpus graphs of 1 to 8 vertices (loops, parallel
bundles, infinite bundles on and off closed paths, sinks and isolated
vertices).
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from leavitt import Graph, ResourceCapError
from leavitt.closures import MAX_VERTICES_HS_DEFAULT, HSSet, _as_vertex_set
from leavitt.closures import enumerate_hs_sets as library_enumerate_hs_sets
from leavitt.fixtures import g_line
from leavitt.graph import is_regular

from corpus import CLASSES, sized, tags

# --- verbatim copy of the old library code ----------------------------------


def is_hereditary(g: Graph, vs: Iterable[str]) -> bool:
    vset = _as_vertex_set(vs)
    return all(e.dst in vset for e in g.edges if e.src in vset)


def is_saturated(g: Graph, vs: Iterable[str]) -> bool:
    vset = _as_vertex_set(vs)
    for v in g.vertices:
        if v in vset or not is_regular(g, v):
            continue
        if all(e.dst in vset for e in g.out_bundles(v)):
            return False
    return True


def enumerate_hs_sets(g: Graph, max_vertices: int = MAX_VERTICES_HS_DEFAULT) -> list[HSSet]:
    """All hereditary saturated subsets (including the empty and full sets).

    Brute force over all subsets; exact for desk-scale graphs.
    """
    vs = g.vertices
    if len(vs) > max_vertices:
        raise ResourceCapError(
            f"{len(vs)} vertices exceeds the subset-enumeration cap {max_vertices}"
        )
    out = []
    for mask in range(1 << len(vs)):
        subset = frozenset(v for i, v in enumerate(vs) if mask >> i & 1)
        if is_hereditary(g, subset) and is_saturated(g, subset):
            out.append(HSSet(subset, subset))
    return sorted(out, key=HSSet.sort_key)


# --- end of the verbatim copy -----------------------------------------------


# per class, the graphs among the 2000 drawn before the corpus
_FLOORS = dict(zip(CLASSES, (2, 926, 616, 410, 1361, 396, 1714, 182)))


def test_library_matches_the_subset_scan():
    graphs = sized(1, 8)
    classes = Counter(c for g in graphs for c in tags(g))
    assert all(classes[c] >= n for c, n in _FLOORS.items()), classes
    for g in graphs:
        assert library_enumerate_hs_sets(g) == enumerate_hs_sets(g)


def test_the_cap_is_unchanged():
    g = Graph([f"v{i}" for i in range(8)], [])
    for cap in (7, 8):
        outcomes = []
        for fn in (library_enumerate_hs_sets, enumerate_hs_sets):
            try:
                outcomes.append(fn(g, max_vertices=cap))
            except ResourceCapError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


def test_a_long_line_has_two_hs_sets():
    g = g_line(3000)
    full = frozenset(g.vertices)
    assert library_enumerate_hs_sets(g, max_vertices=5000) == [
        HSSet(frozenset(), frozenset()),
        HSSet(full, full),
    ]
