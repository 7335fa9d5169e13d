"""Small named graphs used by the tests, demos, and property suites."""

from __future__ import annotations

import random

from .graph import OMEGA, Edge, Graph, vertices_on_closed_paths


def g_loop() -> Graph:
    """One vertex ``v`` with a single loop ``c``."""
    return Graph(["v"], [Edge("c", "v", "v")])


def g_line(n: int) -> Graph:
    """The line graph v1 -> v2 -> ... -> vn."""
    verts = [f"v{i}" for i in range(1, n + 1)]
    edges = [Edge(f"e{i}", f"v{i}", f"v{i+1}") for i in range(1, n)]
    return Graph(verts, edges)


def g_rose2() -> Graph:
    """Two loops ``g`` and ``h`` at a single vertex ``v``."""
    return Graph(["v"], [Edge("g", "v", "v"), Edge("h", "v", "v")])


def g_toeplitz() -> Graph:
    """A loop ``c`` at v1 plus an exit edge ``e``: v1 -> v2."""
    return Graph(["v1", "v2"], [Edge("c", "v1", "v1"), Edge("e", "v1", "v2")])


def g_clock(n: int) -> Graph:
    """A finite clock: hub ``u`` emitting ``f1..fn`` to sinks ``w1..wn``."""
    verts = ["u"] + [f"w{i}" for i in range(1, n + 1)]
    edges = [Edge(f"f{i}", "u", f"w{i}") for i in range(1, n + 1)]
    return Graph(verts, edges)


def g_clock_omega() -> Graph:
    """An infinite emitter: bundle ``b`` of infinitely many edges u -> w."""
    return Graph(["u", "w"], [Edge("b", "u", "w", OMEGA)])


def g_loop_chain(n: int) -> Graph:
    """Loops c1..cn at v1..vn with connecting edges e_i: v_{i+1} -> v_i."""
    verts = [f"v{i}" for i in range(1, n + 1)]
    edges = [Edge(f"c{i}", f"v{i}", f"v{i}") for i in range(1, n + 1)]
    edges += [Edge(f"e{i}", f"v{i+1}", f"v{i}") for i in range(1, n)]
    return Graph(verts, edges)


def g_loop_chain_with_sink(n: int) -> Graph:
    """The loop chain of length n draining to a sink: extra edge e: v1 -> w."""
    base = g_loop_chain(n)
    return Graph(list(base.vertices) + ["w"], list(base.edges) + [Edge("e", "v1", "w")])


def g_mixed() -> Graph:
    """A no-exit loop and a sink hanging off a common bifurcation vertex.

    u -> z (loop c at z, no exits) and u -> w (sink); u itself is neither
    acyclic nor on a cycle.
    """
    return Graph(
        ["u", "w", "z"],
        [Edge("a", "u", "z"), Edge("b", "u", "w"), Edge("c", "z", "z")],
    )


def add_edges(g: Graph, *edges: Edge) -> Graph:
    """A copy of ``g`` with extra edges (and their endpoints) added."""
    verts = set(g.vertices)
    for e in edges:
        verts.add(e.src)
        verts.add(e.dst)
    return Graph(verts, list(g.edges) + list(edges))


def random_graph(
    rng: random.Random,
    max_vertices: int = 8,
    max_edges: int = 14,
    acyclic: bool = False,
) -> Graph:
    """A random row-finite graph for property suites (deterministic per rng)."""
    n = rng.randint(1, max_vertices)
    verts = [f"v{i}" for i in range(1, n + 1)]
    m = rng.randint(0, max_edges)
    edges = []
    for k in range(1, m + 1):
        if acyclic:
            if n == 1:
                break
            i = rng.randint(1, n - 1)
            j = rng.randint(i + 1, n)
        else:
            i = rng.randint(1, n)
            j = rng.randint(1, n)
        edges.append(Edge(f"e{k}", f"v{i}", f"v{j}"))
    return Graph(verts, edges)


def random_cyclic_graph(
    rng: random.Random, max_vertices: int = 8, max_edges: int = 14
) -> Graph:
    """A random graph guaranteed to contain at least one cycle."""
    while True:
        g = random_graph(rng, max_vertices, max_edges)
        if vertices_on_closed_paths(g):
            return g
