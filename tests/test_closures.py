"""Closures, quotients, hedgehogs, and the edge-set subalgebra graph."""

from __future__ import annotations

import random
import time

import pytest

from leavitt import (
    Edge,
    Graph,
    NotSupportedError,
    ResourceCapError,
    breaking_vertices,
    canonical_cycle,
    enumerate_cycles,
    enumerate_hs_sets,
    hedgehog,
    hereditary_closure,
    quotient,
    saturated_closure,
    subalgebra_graph,
    tree,
    vertices_on_closed_paths,
)
from leavitt.closures import _entering_paths_finite, _enumerate_entering_paths, _fresh, _relevant_vertices
from leavitt.errors import UnknownVertexError
from leavitt.fixtures import (
    add_edges,
    g_clock,
    g_clock_omega,
    g_line,
    g_loop,
    g_loop_chain_with_sink,
    g_rose2,
    g_toeplitz,
    random_graph,
)
from leavitt.graph import OMEGA, Path, _addresses, bundle_addresses


def test_hereditary_closure_examples():
    assert hereditary_closure(g_line(3), ["v1"]) == {"v1", "v2", "v3"}
    assert hereditary_closure(g_line(3), []) == frozenset()
    assert hereditary_closure(g_toeplitz(), ["v2"]) == {"v2"}


def test_saturated_closure_examples():
    assert saturated_closure(g_line(3), ["v3"]).vertices == {"v1", "v2", "v3"}
    assert saturated_closure(g_toeplitz(), ["v2"]).vertices == {"v2"}
    assert saturated_closure(g_clock(3), ["w1", "w2", "w3"]).vertices == {"u", "w1", "w2", "w3"}


def test_a_closure_checks_every_seed_vertex():
    with pytest.raises(UnknownVertexError):
        saturated_closure(g_line(3), ["v3", "nope"])


def test_saturated_closure_is_closure_operator():
    rng = random.Random(3)
    for _ in range(30):
        g = random_graph(rng)
        seeds = [v for v in g.vertices if rng.random() < 0.4]
        smaller = [v for v in seeds if rng.random() < 0.5]
        c1 = saturated_closure(g, seeds).vertices
        assert set(seeds) <= c1  # extensive
        assert saturated_closure(g, c1).vertices == c1  # idempotent
        assert saturated_closure(g, smaller).vertices <= c1  # monotone


def test_enumerate_hs_sets_loop_chain_with_sink():
    sets = [sorted(h.vertices) for h in enumerate_hs_sets(g_loop_chain_with_sink(2))]
    assert sets == [[], ["w"], ["v1", "w"], ["v1", "v2", "w"]]


def test_enumerate_hs_sets_line3():
    sets = [sorted(h.vertices) for h in enumerate_hs_sets(g_line(3))]
    assert sets == [[], ["v1", "v2", "v3"]]


def test_enumerate_hs_sets_single_sink():
    g = Graph(["w"], [])
    assert [sorted(h.vertices) for h in enumerate_hs_sets(g)] == [[], ["w"]]


def test_enumerate_hs_sets_cap():
    g = Graph([f"v{i}" for i in range(25)], [])
    with pytest.raises(ResourceCapError):
        enumerate_hs_sets(g)


def test_breaking_vertices():
    g = add_edges(g_clock_omega(), Edge("z0", "u", "z"))
    assert breaking_vertices(g, ["w"]) == {"u"}
    assert breaking_vertices(g_clock_omega(), ["w"]) == frozenset()
    assert breaking_vertices(g_toeplitz(), ["v2"]) == frozenset()


def test_quotient_toeplitz():
    q = quotient(g_toeplitz(), ["v2"])
    assert q.vertices == ("v1",)
    assert [e.id for e in q.edges] == ["c"]


def test_quotient_with_breaking_vertex():
    g = add_edges(g_clock_omega(), Edge("z0", "u", "z"))
    q = quotient(g, ["w"])
    assert set(q.vertices) == {"u", "z", "u'"}
    assert [(e.id, e.src, e.dst) for e in q.edges] == [("z0", "u", "z")]
    assert q.out_degree("u'") == 0


def test_quotient_trivial_and_vertex_count():
    for g in (g_toeplitz(), g_line(4), g_loop_chain_with_sink(2)):
        assert quotient(g, []) == g
        for h in enumerate_hs_sets(g):
            q = quotient(g, h.vertices)
            bh = breaking_vertices(g, h.vertices)
            assert len(q.vertices) == len(g.vertices) - len(h.vertices) + len(bh)


def test_quotient_validates_input():
    with pytest.raises(NotSupportedError):
        quotient(g_line(3), ["v2"])  # hereditary but not saturated
    with pytest.raises(NotSupportedError):
        quotient(g_line(3), ["v1"])  # not hereditary
    g = add_edges(g_clock_omega(), Edge("z0", "u", "z"))
    with pytest.raises(NotSupportedError):
        quotient(g, ["w"], ["z"])  # z is not a breaking vertex


def test_quotient_with_s_drops_the_primed_sink():
    g = add_edges(g_clock_omega(), Edge("z0", "u", "z"))
    q = quotient(g, ["w"], ["u"])
    assert set(q.vertices) == {"u", "z"}
    assert [(e.id, e.src, e.dst) for e in q.edges] == [("z0", "u", "z")]


def test_quotient_primed_edges_point_at_the_primed_copy():
    # an edge into a breaking vertex outside s gains a primed twin
    g = add_edges(g_clock_omega(), Edge("z0", "u", "z"), Edge("d", "z", "u"))
    q = quotient(g, ["w"])
    assert set(q.vertices) == {"u", "z", "u'"}
    pairs = sorted((e.id, e.src, e.dst) for e in q.edges)
    assert pairs == [("d", "z", "u"), ("d'", "z", "u'"), ("z0", "u", "z")]


def test_a_primed_sink_takes_a_name_no_vertex_has():
    g = Graph(["u", "w", "x", "u'"], [Edge("b", "u", "w", OMEGA), Edge("a", "u", "x")])
    q = quotient(g, ["w"])
    assert q.vertices == ("u", "u'", "u''", "x")
    assert [(e.id, e.src, e.dst) for e in q.edges] == [("a", "u", "x")]


def test_a_closure_result_is_accepted_as_a_vertex_set():
    g = add_edges(g_clock_omega(), Edge("z0", "u", "z"))
    h = saturated_closure(g, ["w"])
    assert h.vertices == {"w"}
    assert quotient(g, h) == quotient(g, ["w"])
    assert breaking_vertices(g, h) == {"u"}


def test_hedgehog_with_breaking_vertices():
    g = add_edges(g_clock_omega(), Edge("z0", "u", "z"), Edge("d", "z", "u"))
    res = hedgehog(g, ["w"], ["u"], depth_bound=2)
    # the infinite bundle into the set makes the entering-path family
    # infinite, so the build is truncated with representative edges
    assert res.complete is False
    vids = set(res.graph.vertices)
    assert {"w", "u"} <= vids
    # the kept bundle from the breaking vertex lands inside the set
    from leavitt import OMEGA

    kept = [e for e in res.graph.edges if e.id == "b"]
    assert kept and kept[0].mult is OMEGA and kept[0].dst == "w"
    # paths ending at the breaking vertex show up as new vertices
    path_sets = {p.edges for _, p in res.path_vertices}
    assert ("d",) in path_sets
    assert ("b[0]",) in path_sets


def test_hedgehog_line3():
    res = hedgehog(g_line(3), ["v3"])
    assert res.complete is True
    assert set(res.graph.vertices) == {"v3", "e2", "e1~e2"}
    assert {(e.src, e.dst) for e in res.graph.edges} == {("e2", "v3"), ("e1~e2", "v3")}
    assert sorted(p.edges for _, p in res.path_vertices) == [("e1", "e2"), ("e2",)]


def test_hedgehog_truncates_on_pumping_cycle():
    res = hedgehog(g_toeplitz(), ["v2"], depth_bound=4)
    assert res.complete is False
    assert sorted(p.edges for _, p in res.path_vertices) == [
        ("c", "c", "c", "e"),
        ("c", "c", "e"),
        ("c", "e"),
        ("e",),
    ]


def test_hedgehog_full_set_returns_graph_itself():
    for g in (g_line(3), g_toeplitz(), g_rose2()):
        res = hedgehog(g, list(g.vertices))
        assert res.complete is True
        assert res.graph == g


def test_hedgehog_depth_bound_validation():
    with pytest.raises(NotSupportedError):
        hedgehog(g_line(3), ["v3"], depth_bound=0)


def test_subalgebra_graph_loop():
    ef = subalgebra_graph(g_loop(), ["c"])
    assert ef.vertices == ("c",)
    assert [(e.src, e.dst) for e in ef.edges] == [("c", "c")]


def test_subalgebra_graph_rose2():
    ef = subalgebra_graph(g_rose2(), ["g", "h"])
    assert set(ef.vertices) == {"g", "h"}
    assert {(e.src, e.dst) for e in ef.edges} == {("g", "g"), ("g", "h"), ("h", "g"), ("h", "h")}


def test_subalgebra_graph_line3():
    ef = subalgebra_graph(g_line(3), ["e1"])
    assert set(ef.vertices) == {"e1", "v2"}
    assert [(e.src, e.dst) for e in ef.edges] == [("e1", "v2")]


def test_subalgebra_graph_middle_vertex():
    # b has a chosen and an unchosen outgoing edge: it survives as a vertex
    g = Graph(
        ["a", "b", "c", "d"],
        [Edge("e", "a", "b"), Edge("f", "b", "c"), Edge("x", "b", "d")],
    )
    ef = subalgebra_graph(g, ["e", "f"])
    assert set(ef.vertices) == {"e", "f", "b", "c"}
    assert {(e.src, e.dst) for e in ef.edges} == {("e", "f"), ("e", "b"), ("f", "c")}


def test_cycle_transport():
    # a chosen cycle in the ambient graph appears as a cycle in the edge graph
    for g in (g_loop(), g_rose2(), g_loop_chain_with_sink(2)):
        for c in enumerate_cycles(g):
            ef = subalgebra_graph(g, list(c.edges))
            transported = list(zip(c.edges, c.edges[1:] + c.edges[:1]))
            ef_cycles = enumerate_cycles(ef)
            assert len(ef_cycles) == 1
            got = [(ef.src_of(a), ef.dst_of(a)) for a in ef_cycles[0].edges]
            want = [(e, f) for e, f in transported]
            # same cyclic sequence of endpoints
            n = len(want)
            assert any(got == want[k:] + want[:k] for k in range(n))


def test_saturation_adds_no_cycle_vertices():
    rng = random.Random(5)
    for _ in range(40):
        g = random_graph(rng)
        seeds = [v for v in g.vertices if rng.random() < 0.3]
        hered = hereditary_closure(g, seeds)
        sat = saturated_closure(g, hered).vertices
        on_cycle = vertices_on_closed_paths(g)
        assert not ((sat - hered) & on_cycle)


def test_closure_cycles_stay_in_tree():
    rng = random.Random(9)
    for _ in range(40):
        g = random_graph(rng)
        for v in g.vertices:
            closure = saturated_closure(g, hereditary_closure(g, [v])).vertices
            for c in enumerate_cycles(g):
                vs = {g.src_of(a) for a in c.edges}
                if vs <= closure:
                    assert vs <= tree(g, v).vertices


def test_hedgehog_on_a_long_line():
    # one entering path per vertex, up to 1099 edges long: no recursion limit
    res = hedgehog(g_line(1100), ["v1100"])
    assert res.complete
    assert len(res.path_vertices) == 1099
    assert max(len(p) for _, p in res.path_vertices) == 1099


def _old_subalgebra_graph(g: Graph, addresses) -> Graph:
    """``subalgebra_graph`` as it was when it listed every address of every
    bundle at a shared vertex, kept verbatim as the oracle."""
    f = sorted(set(addresses))
    for a in f:
        g.resolve(a)
    fset = set(f)
    rf = {g.dst_of(a) for a in f}
    sf = {g.src_of(a) for a in f}
    emits_other = set()
    for v in rf & sf:
        for e in g.out_bundles(v):
            if e.mult is OMEGA:
                emits_other.add(v)
                break
            if any(addr not in fset for addr in _addresses(e)):
                emits_other.add(v)
                break
    middle = sorted((rf & sf) & emits_other)
    terminal = sorted(rf - sf)

    taken: set[str] = set()
    vid_of_edge = {a: _fresh(a, taken) for a in f}
    vid_of_vertex = {v: _fresh(v, taken) for v in middle + terminal}

    starts: list[tuple[str, str]] = [(g.src_of(a), vid_of_edge[a]) for a in f]
    starts += [(v, vid_of_vertex[v]) for v in middle + terminal]

    edges = []
    for a in f:
        for start_vertex, vid in starts:
            if g.dst_of(a) == start_vertex:
                edges.append(Edge(_fresh(f"({a},{vid})", taken), vid_of_edge[a], vid))
    return Graph(list(vid_of_edge.values()) + list(vid_of_vertex.values()), edges)


def test_subalgebra_graph_matches_the_address_listing_loop():
    rng = random.Random(29)
    for _ in range(1500):
        g = random_graph(rng, max_vertices=5, max_edges=8)
        edges = [Edge(e.id, e.src, e.dst, rng.choice((1, 1, 2, 3))) for e in g.edges]
        if edges and rng.random() < 0.2:
            e = rng.choice(edges)
            edges[edges.index(e)] = Edge(e.id, e.src, e.dst, OMEGA)
        g = Graph(g.vertices, edges)
        pool = [a for e in g.edges for a in bundle_addresses(g, e.id, limit=3)]
        chosen = rng.sample(pool, rng.randint(0, len(pool)))
        assert subalgebra_graph(g, chosen) == _old_subalgebra_graph(g, chosen)


def test_subalgebra_graph_cost_does_not_follow_the_multiplicity():
    g = Graph(["v"], [Edge("c", "v", "v", 10**9)])
    start = time.perf_counter()
    ef = subalgebra_graph(g, ["c[0]"])
    assert time.perf_counter() - start < 0.5
    assert set(ef.vertices) == {"c[0]", "v"}


def _old_enumerate_entering_paths(g, h, s, depth_bound, complete):
    """``_enumerate_entering_paths`` as it was when it listed every concrete
    address of every bundle up front, kept verbatim as the oracle."""
    targets = h | s
    relevant = _relevant_vertices(g, h, targets)
    f1: list[Path] = []
    f2: list[Path] = []

    # moves[u] = the concrete steps from u that can still reach targets
    moves = {
        u: [
            (addr, e.dst)
            for e in g.out_bundles(u)
            if e.dst in targets or e.dst in relevant
            for addr in ([f"{e.id}[0]"] if e.mult is OMEGA else _addresses(e))
        ]
        for u in relevant
    }
    # depth-first with an explicit stack; chain is the path to the top frame,
    # a valid chain by construction, so each found path is built directly
    for v in sorted(relevant):
        chain: list[str] = []
        work = [iter(moves[v])]
        while work:
            for addr, dst in work[-1]:
                chain.append(addr)
                if dst in h:
                    f1.append(Path(v, tuple(chain)))
                else:
                    if dst in s:
                        f2.append(Path(v, tuple(chain)))
                    if complete or len(chain) < depth_bound:
                        work.append(iter(moves[dst]))
                        break
                chain.pop()
            else:
                work.pop()
                if work:
                    chain.pop()
    return f1, f2


def test_entering_paths_match_the_address_listing_walk():
    rng = random.Random(31)
    for _ in range(1500):
        g = random_graph(rng, max_vertices=5, max_edges=8)
        edges = [Edge(e.id, e.src, e.dst, rng.choice((1, 1, 2, 3))) for e in g.edges]
        if edges and rng.random() < 0.2:
            e = rng.choice(edges)
            edges[edges.index(e)] = Edge(e.id, e.src, e.dst, OMEGA)
        g = Graph(g.vertices, edges)
        h = hereditary_closure(g, rng.sample(g.vertices, rng.randint(1, len(g.vertices))))
        breaking = sorted(breaking_vertices(g, h))
        s = frozenset(rng.sample(breaking, rng.randint(0, len(breaking))))
        relevant = _relevant_vertices(g, h, h | s)
        complete = _entering_paths_finite(g, h, h | s, relevant)
        depth = rng.randint(1, 4)
        assert _enumerate_entering_paths(g, h, s, relevant, depth, complete) == _old_enumerate_entering_paths(
            g, h, s, depth, complete
        )


def test_hedgehog_cost_does_not_follow_the_multiplicity():
    # a loop of multiplicity 10**6 outside h: at depth 1 only v -> w counts
    g = Graph(["v", "w"], [Edge("c", "v", "v", 10**6), Edge("e", "v", "w")])
    start = time.perf_counter()
    res = hedgehog(g, ["w"], depth_bound=1)
    assert time.perf_counter() - start < 0.1
    assert res.complete is False
    assert res.graph == Graph(["e", "w"], [Edge("~e", "e", "w")])
    assert res.path_vertices == (("e", Path("v", ("e",))),)
