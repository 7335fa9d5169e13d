"""Graph core: classification, cycles, trees, line points, conditions, JSON."""

from __future__ import annotations

import copy
import json
import pickle
import random

import pytest

from leavitt import (
    OMEGA,
    Edge,
    Graph,
    InfinitelyManyCyclesError,
    ResourceCapError,
    SchemaError,
    UnknownVertexError,
    canonical_cycle,
    classify_vertex,
    condensation,
    condition_K,
    condition_L,
    cycle_vertices,
    enumerate_cycles,
    graph_from_json,
    graph_from_obj,
    graph_to_json,
    graph_to_obj,
    line_points,
    tree,
)
from leavitt.fixtures import (
    add_edges,
    g_clock,
    g_clock_omega,
    g_line,
    g_loop,
    g_loop_chain,
    g_rose2,
    g_toeplitz,
    random_graph,
)


def test_classify_sink_regular_infinite():
    g = g_toeplitz()
    assert classify_vertex(g, "v2").kind == "sink"
    assert classify_vertex(g, "v1").kind == "regular"
    assert classify_vertex(g, "v1").out_degree == 2
    assert classify_vertex(g_clock_omega(), "u").kind == "infinite_emitter"


def test_classify_unknown_vertex():
    with pytest.raises(UnknownVertexError):
        classify_vertex(g_loop(), "nope")


def test_enumerate_cycles_fixtures():
    assert enumerate_cycles(g_line(3)) == []
    assert [c.edges for c in enumerate_cycles(g_rose2())] == [("g",), ("h",)]
    assert [c.edges for c in enumerate_cycles(g_loop_chain(2))] == [("c1",), ("c2",)]


def test_enumerate_cycles_multi_edge_cycle():
    g = Graph(["a", "b"], [Edge("e", "a", "b"), Edge("f", "b", "a"), Edge("l", "a", "a")])
    cycles = enumerate_cycles(g)
    assert [c.edges for c in cycles] == [("l",), ("e", "f")]


def test_enumerate_cycles_parallel_bundle():
    g = Graph(["a"], [Edge("b", "a", "a", 3)])
    assert [c.edges for c in enumerate_cycles(g)] == [("b[0]",), ("b[1]",), ("b[2]",)]


def test_enumerate_cycles_omega_on_cycle_errors():
    g = Graph(["a", "b"], [Edge("x", "a", "b", OMEGA), Edge("y", "b", "a")])
    with pytest.raises(InfinitelyManyCyclesError):
        enumerate_cycles(g)


def test_enumerate_cycles_omega_off_cycle_is_fine():
    assert enumerate_cycles(g_clock_omega()) == []


def test_enumerate_cycles_cap():
    g = Graph(["a"], [Edge("b", "a", "a", 5)])
    with pytest.raises(ResourceCapError):
        enumerate_cycles(g, max_cycles=3)


def test_cycle_canonical_rotation():
    g = Graph(["a", "b"], [Edge("z", "a", "b"), Edge("f", "b", "a")])
    assert canonical_cycle(g, ["z", "f"]) == canonical_cycle(g, ["f", "z"])
    assert canonical_cycle(g, ["z", "f"]).edges == ("f", "z")


def test_cycle_vertices_visited_once():
    for g in (g_rose2(), g_loop_chain(3), g_toeplitz()):
        for c in enumerate_cycles(g):
            srcs = [g.src_of(a) for a in c.edges]
            assert len(set(srcs)) == len(srcs)


def test_tree_examples():
    assert tree(g_line(3), "v2").vertices == {"v2", "v3"}
    t = tree(g_toeplitz(), "v1")
    assert t.vertices == {"v1", "v2"}
    assert {e.id for e in t.induced_edges} == {"c", "e"}
    assert tree(g_toeplitz(), "v2").vertices == {"v2"}
    assert tree(g_toeplitz(), "v2").induced_edges == ()


def test_tree_monotone():
    rng = random.Random(7)
    for _ in range(40):
        g = random_graph(rng)
        for v in g.vertices:
            tv = tree(g, v).vertices
            for w in tv:
                assert tree(g, w).vertices <= tv


def test_line_points_fixtures():
    assert line_points(g_line(3)) == {"v1", "v2", "v3"}
    assert line_points(g_toeplitz()) == {"v2"}
    assert line_points(g_rose2()) == frozenset()
    assert line_points(g_clock_omega()) == {"w"}


def test_line_points_downward_closed():
    rng = random.Random(11)
    for _ in range(40):
        g = random_graph(rng)
        lp = line_points(g)
        for v in lp:
            assert tree(g, v).vertices <= lp


def test_condition_L_and_K():
    assert condition_L(g_loop()) is False
    assert condition_L(g_toeplitz()) is True
    assert condition_K(g_toeplitz()) is False
    assert condition_K(g_rose2()) is True
    assert condition_L(g_rose2()) is True


def test_condition_K_implies_L():
    rng = random.Random(13)
    graphs = [g_loop(), g_rose2(), g_toeplitz(), g_line(4), g_loop_chain(3)]
    graphs += [random_graph(rng) for _ in range(60)]
    for g in graphs:
        if condition_K(g):
            assert condition_L(g)


def test_condition_K_needs_two_distinct_returns():
    # a figure-eight seen from the middle vertex: two distinct return paths
    g = Graph(
        ["m", "a", "b"],
        [Edge("e1", "m", "a"), Edge("e2", "a", "m"), Edge("f1", "m", "b"), Edge("f2", "b", "m")],
    )
    assert condition_K(g) is True
    # a long cycle with a shortcut chord still gives vertices two returns
    g2 = Graph(
        ["x", "y", "z"],
        [Edge("a", "x", "y"), Edge("b", "y", "z"), Edge("c", "z", "x"), Edge("d", "y", "x")],
    )
    assert condition_K(g2) is True


def test_edge_record_contract():
    e = Edge("e", "u", "w")
    assert Edge._fields == ("id", "src", "dst", "mult")
    assert (e.id, e.src, e.dst, e.mult) == ("e", "u", "w", 1)
    assert repr(e) == "Edge(id='e', src='u', dst='w', mult=1)"
    assert repr(Edge("b", "u", "u", OMEGA)) == "Edge(id='b', src='u', dst='u', mult=omega)"
    for field in ("id", "src", "dst", "mult", "label"):
        with pytest.raises(AttributeError):
            setattr(e, field, "x")
    assert e == Edge("e", "u", "w", 1) and hash(e) == hash(Edge("e", "u", "w", 1))
    assert {e, Edge(id="e", src="u", dst="w")} == {e}
    assert e != Edge("e", "u", "w", 2)
    # a named tuple: a record equals the tuple of its four fields
    assert e == ("e", "u", "w", 1)


def test_a_built_graph_refuses_assignment():
    edges = [Edge("c", "v1", "v1"), Edge("e", "v1", "v2")]
    doc = {"vertices": ["v1", "v2"], "edges": [{"id": "c", "src": "v1", "dst": "v1"}, {"id": "e", "src": "v1", "dst": "v2"}]}
    for g in (Graph(["v1", "v2"], edges), graph_from_obj(doc)):
        condensation(g)
        for name in ("vertices", "edges", "_out", "_scc"):
            before = getattr(g, name)
            with pytest.raises(AttributeError, match="Graph is immutable"):
                setattr(g, name, ())
            with pytest.raises(AttributeError, match="Graph is immutable"):
                delattr(g, name)
            assert getattr(g, name) is before
        assert repr(g) == "Graph(2 vertices, 2 edge bundles)"


def test_equal_graphs_hash_equal():
    g, h = g_toeplitz(), graph_from_json(graph_to_json(g_toeplitz()))
    assert g is not h and g == h and hash(g) == hash(h)
    assert len({g, h, g_loop()}) == 2


def test_a_graph_survives_pickle_and_copy():
    g = g_clock_omega()
    scc = condensation(g)
    pickled = [pickle.loads(pickle.dumps(g, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for h in [*pickled, copy.copy(g), copy.deepcopy(g)]:
        assert h == g and h.edges[0].mult is OMEGA
        assert condensation(h) == scc


def test_graph_json_round_trip():
    for g in (g_loop(), g_toeplitz(), g_clock_omega(), g_loop_chain(3)):
        assert graph_from_json(graph_to_json(g)) == g


def test_graph_json_omits_mult_one():
    obj = graph_to_obj(g_toeplitz())
    assert all("mult" not in e for e in obj["edges"])
    obj_w = graph_to_obj(g_clock_omega())
    assert obj_w["edges"][0]["mult"] == "omega"


def test_graph_schema_errors():
    with pytest.raises(SchemaError):
        graph_from_obj({"vertices": ["a"], "edges": [{"id": "e", "src": "a", "dst": "zz"}]})
    with pytest.raises(SchemaError):
        graph_from_obj({"vertices": ["a", "a"], "edges": []})
    with pytest.raises(SchemaError):
        graph_from_obj({"vertices": ["a"], "edges": [{"id": "e", "src": "a", "dst": "a", "mult": 0}]})
    with pytest.raises(SchemaError):
        graph_from_obj({"vertices": ["a"], "edges": [], "extra": 1})
    with pytest.raises(SchemaError):
        graph_from_json("{not json")
    # the library constructor raises SchemaError too, never TypeError
    with pytest.raises(SchemaError, match='"vertices" must be a list of strings'):
        Graph(["a", 1], [])
    with pytest.raises(SchemaError, match="edge id/src/dst must be strings"):
        Graph(["a"], [Edge(1, "a", "a")])
    with pytest.raises(SchemaError, match="each edge must be an Edge"):
        Graph(["a"], [("e", "a")])
    with pytest.raises(SchemaError, match="multiplicity must be a positive integer"):
        Graph(["a"], [Edge("e", "a", "a", True)])
    with pytest.raises(SchemaError, match="mult must be a positive integer"):
        graph_from_obj({"vertices": ["a"], "edges": [{"id": "e", "src": "a", "dst": "a", "mult": True}]})
    with pytest.raises(SchemaError, match='"vertices" must be a list of strings'):
        Graph(None, [])
    with pytest.raises(SchemaError, match='"edges" must be a list'):
        Graph(["a"], None)


def test_clock_classification():
    g = g_clock(3)
    assert classify_vertex(g, "u").out_degree == 3
    assert line_points(g) == {"w1", "w2", "w3"}
