"""One seeded corpus of graphs for the oracle suites.

``GRAPHS`` is a fixed tuple of graphs drawn by :func:`draw` from one seed.
Every oracle suite reads its graphs from it, whole or in a slice by size
(:func:`sized`) or by class (:func:`tags`), so no suite keeps a generator
of its own.  The classes are those the paper's claims are split by:

- ``chain3``: the cycle pre-order is antisymmetric, with a chain of three
  or more cycles; ``not_antisymmetric``: two distinct cycles reach each
  other;
- ``omega_off_cycles``: ``omega`` bundles, none of them on a closed path;
  ``omega_on_cycle``: an ``omega`` bundle on a closed path;
- ``multi_edges``: a finite bundle of multiplicity 2 or more;
- ``breaking_vertex``: an infinite emitter that is a breaking vertex of
  some hereditary saturated set;
- ``sink``: a vertex that emits no edge; ``scc3``: a strongly connected
  component of three or more vertices.  ``tests/test_corpus.py`` requires
  at least 300 graphs in each class.
"""

from __future__ import annotations

import functools
import random

from leavitt import OMEGA, AlgebraContext, Edge, Graph, PrimeField, RATIONALS
from leavitt.closures import breaking_vertices, saturated_closure
from leavitt.graph import condensation, is_regular

CLASSES = ("chain3", "not_antisymmetric", "omega_off_cycles", "omega_on_cycle",
           "multi_edges", "breaking_vertex", "sink", "scc3")
FIELDS = (RATIONALS, PrimeField(7), PrimeField(101))


def draw(rng: random.Random) -> Graph:
    """One graph, of one of three shapes.

    - Chains (55%): up to 14 vertices, edges forward in a hidden vertex
      order (often to the next vertex), loops at most vertices and few back
      edges, so the pre-order is mostly antisymmetric, with long chains.
    - Tangles (25%): 1 to 5 vertices, a third to a half of the edges
      backward, and loops of multiplicity 2, so cycles meet in few steps.
    - Dense graphs (20%): 3 to 8 vertices and one to three edges per
      vertex in any direction, so an SCC often holds several cycles, and
      sometimes more than a cycle cap allows.

    Finite bundles have multiplicity 1 to 3.  ``omega`` bundles go into
    fresh sinks (so their sources are often breaking vertices), or lie
    between two vertices, on a closed path or not.  Edge ids other than
    loops sort in an order that is not the order of drawing, and vertex ids
    in half the graphs in an order that is not the hidden one.
    """
    shape = rng.random()
    mults = (1, 1, 1, 2, 3)
    if shape < 0.55:
        n = rng.randint(0, 14)
        m = rng.randint(0, 2 * n)
        back, near, loops = rng.choice((0.0, 0.0, 0.05, 0.15)), rng.choice((0.0, 0.5)), rng.choice((0.4, 0.6, 0.8))
        omega, sinks, twins = rng.choice((0.0, 0.0, 0.0, 0.03)), 0, 0.02
    elif shape < 0.8:
        n = rng.randint(1, 5)
        m = rng.randint(1, 2 * n + 1)
        back, near, loops = rng.choice((0.3, 0.5)), rng.choice((0.0, 0.5)), rng.choice((0.2, 0.4))
        omega, sinks, twins = rng.choice((0.0, 0.1, 0.2)), rng.choice((0, 1, 1, 2)), 0.3
        mults = (1, 1, 2, 3)
    else:
        n = rng.randint(3, 8)
        m = rng.randint(n, 3 * n)
        back, near, loops = 0.5, 0.0, rng.choice((0.0, 0.2))
        omega, sinks, twins = rng.choice((0.0, 0.05, 0.1)), rng.choice((0, 1, 2)), 0.2
    names = [f"v{i:02d}" for i in range(n)]
    if rng.random() < 0.5:
        rng.shuffle(names)
    edges = []

    def add(src: int, dst: str, mult, eid: str = "") -> None:
        edges.append(Edge(eid or f"{rng.choice('aez')}{len(edges)}", names[src], dst, mult))

    for _ in range(m):
        i, j = sorted(rng.sample(range(n), 2)) if n > 1 else (0, 0)
        if rng.random() < back:
            i, j = j, i
        elif rng.random() < near:  # a short step, which makes long chains
            j = min(i + 1, n - 1)
        add(i, names[j], OMEGA if rng.random() < omega else rng.choice(mults))
    for i in range(n):
        if rng.random() < loops:
            add(i, names[i], 2 if rng.random() < twins else 1, f"l{i:02d}")
    sinks = [f"s{k}" for k in range(sinks if n else 0)]
    for s in sinks:  # infinite emitters into sinks of their own
        add(rng.randrange(n), s, OMEGA)
    return Graph(names + sinks, edges)


@functools.cache
def tags(g: Graph) -> frozenset[str]:
    """The classes of :data:`CLASSES` that ``g`` belongs to."""
    scc = condensation(g)
    omega = [e for e in g.edges if e.mult is OMEGA]
    on_cycle = any(scc.component[e.src] == scc.component[e.dst] for e in omega)
    # v breaks some H exactly when it breaks the least H holding the ranges
    # of its omega bundles: a larger H only takes in more of its other edges
    least = {v: saturated_closure(g, [e.dst for e in g.out_bundles(v) if e.mult is OMEGA]) for v in {e.src for e in omega}}
    found = {
        "chain3": scc.antisymmetric and scc.longest_chain >= 3,
        "not_antisymmetric": not scc.antisymmetric,
        "omega_off_cycles": omega and not on_cycle,
        "omega_on_cycle": on_cycle,
        "multi_edges": any(e.mult is not OMEGA and e.mult > 1 for e in g.edges),
        "breaking_vertex": any(v in breaking_vertices(g, h) for v, h in least.items()),
        "sink": any(g.out_degree(v) == 0 for v in g.vertices),
        "scc3": any(len(m) >= 3 for m in scc.members),
    }
    return frozenset(c for c, ok in found.items() if ok)


def sized(lo: int, hi: int, bundles: int = 0) -> tuple[Graph, ...]:
    """The corpus graphs of ``lo`` to ``hi`` vertices and ``bundles`` or more edge bundles."""
    return tuple(g for g in GRAPHS if lo <= len(g.vertices) <= hi and len(g.edges) >= bundles)


def context(rng: random.Random, g: Graph) -> AlgebraContext:
    """``g`` over a field of :data:`FIELDS`, with the default special edges
    or, half the time, a random out-edge at some regular vertices."""
    custom = rng.random() < 0.5
    special = {v: rng.choice(g.concrete_out(v)) for v in g.vertices if custom and is_regular(g, v) and rng.random() < 0.7}
    return AlgebraContext(g, rng.choice(FIELDS), special_edges=special)


def ring(n: int) -> Graph:
    """One cycle through ``n`` vertices: v0 -> v1 -> ... -> v0."""
    return Graph([f"v{i}" for i in range(n)], [Edge(f"e{i}", f"v{i}", f"v{(i + 1) % n}") for i in range(n)])


def two_way_ring(n: int) -> Graph:
    """``ring(n)`` with each edge ``e{i}`` also reversed, as ``fe{i}``."""
    g = ring(n)
    return Graph(g.vertices, g.edges + tuple(Edge(f"f{e.id}", e.dst, e.src) for e in g.edges))


_rng = random.Random(2026)
GRAPHS: tuple[Graph, ...] = (Graph([], []), Graph(["v"], [])) + tuple(draw(_rng) for _ in range(7000))
