"""One address per concrete edge: an index is written without leading
zeros, and no edge id is the address of another bundle's edge."""

from __future__ import annotations

import json

import pytest

from leavitt import OMEGA, AlgebraContext, Edge, Graph, Path, SchemaError, UnknownEdgeError, graph_to_json, hedgehog
from leavitt.cli import main


def test_resolve_rejects_a_non_canonical_index():
    g = Graph(["u", "w"], [Edge("b", "u", "w", 2), Edge("d", "u", "w", OMEGA)])
    assert g.resolve("b[0]").id == "b" and g.resolve("d[10]").id == "d"
    for address in ("b[00]", "b[01]", "b[2]", "d[007]", "d[١]"):
        with pytest.raises(UnknownEdgeError):
            g.resolve(address)
    with pytest.raises(UnknownEdgeError):
        AlgebraContext(Graph(["u", "w"], [Edge("b", "u", "w", 2)]), special_edges={"u": "b[00]"})


def test_an_index_too_long_for_int_still_resolves():
    g = Graph(["u", "w"], [Edge("b", "u", "w", 2), Edge("d", "u", "w", OMEGA)])
    assert g.resolve("d[" + "1" * 5000 + "]").id == "d"
    with pytest.raises(UnknownEdgeError):
        g.resolve("b[" + "1" * 5000 + "]")


def test_an_edge_id_may_not_be_an_address_of_another_bundle():
    for bundle in (Edge("b", "u", "w", 2), Edge("b", "u", "w", OMEGA)):
        with pytest.raises(SchemaError):
            Graph(["u", "w", "x"], [bundle, Edge("b[1]", "x", "x")])
    # none of these ids is an address of an edge of b or c
    g = Graph(
        ["u", "w", "x"],
        [Edge("b", "u", "w", 2), Edge("c", "u", "u"), Edge("b[2]", "x", "x"), Edge("b[00]", "x", "w"),
         Edge("c[0]", "x", "u"), Edge("b[", "x", "x")],
    )
    assert [g.resolve(a).src for a in ("b[1]", "b[2]", "b[00]", "c[0]", "b[")] == ["u", "x", "x", "x", "x"]


def test_cli_exits_2_on_both(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(graph_to_json(Graph(["u", "w"], [Edge("b", "u", "w", 2)])))
    assert main(["eval", str(path), "--expr", "b[0]*.b[0]"]) == 0
    assert json.loads(capsys.readouterr().out)["terms"] == [{"coeff": "1", "p": [], "q": [], "v": "w"}]
    assert main(["eval", str(path), "--expr", "b[00]*.b[0]"]) == 2
    assert json.loads(capsys.readouterr().err)["exit"] == 2
    path.write_text(json.dumps({
        "vertices": ["u", "w", "x", "y"],
        "edges": [{"id": "b", "src": "u", "dst": "w", "mult": 2}, {"id": "b[0]", "src": "x", "dst": "y"}],
    }))
    assert main(["eval", str(path), "--expr", "u"]) == 2
    assert json.loads(capsys.readouterr().err)["exit"] == 2


def test_a_vertex_id_may_not_be_an_address_of_a_bundle(tmp_path, capsys):
    for bundle in (Edge("b", "u", "w", 2), Edge("b", "u", "w", OMEGA)):
        with pytest.raises(SchemaError):
            Graph(["u", "w", "b[0]"], [bundle])
    # none of these vertex ids is an address of an edge of b or c
    g = Graph(["u", "w", "b[2]", "b[00]", "c[0]", "b["], [Edge("b", "u", "w", 2), Edge("c", "u", "u")])
    assert g.resolve("b[1]").dst == "w"
    # a hedgehog keeps the bundle b from the breaking vertex u, so the vertex
    # for the entering path b[0] is primed
    g = Graph(["u", "w", "z"], [Edge("b", "u", "w", OMEGA), Edge("d", "z", "u"), Edge("z0", "u", "z")])
    res = hedgehog(g, ["w"], ["u"], depth_bound=2)
    assert ("b[0]'", Path("u", ("b[0]",))) in res.path_vertices
    assert "b[0]" not in res.graph.vertices
    path = tmp_path / "g.json"
    path.write_text(json.dumps({
        "vertices": ["u", "w", "b[0]"],
        "edges": [{"id": "b", "src": "u", "dst": "w", "mult": 2}],
    }))
    assert main(["eval", str(path), "--expr", "b[0]*.b[0]"]) == 2
    assert json.loads(capsys.readouterr().err)["exit"] == 2
