"""The SCC structure core on large inputs: no recursion limit, no cap, and
the witness rule for graphs whose cycle pre-order is not antisymmetric."""

from __future__ import annotations

import ast
import json
import time
from pathlib import Path

import leavitt
import pytest

from leavitt import (
    OMEGA,
    Edge,
    Graph,
    InfinitelyManyCyclesError,
    LaurentMatrixLayer,
    LeavittError,
    canonical_cycle,
    condition_K,
    condition_L,
    corner_report,
    cycle_poset,
    decide_fp,
    decide_gk,
    disjoint_cycles_criterion,
    enumerate_cycles,
    fp_filtration,
    gk_filtration,
    graph_to_json,
    laurent_index_cardinality,
    line_points,
    saturated_closure,
    subalgebra_graph,
)
from leavitt import graph as graph_mod
from leavitt import structure as structure_mod
from leavitt.cli import main
from leavitt.fixtures import (
    g_clock,
    g_clock_omega,
    g_line,
    g_loop,
    g_loop_chain,
    g_loop_chain_with_sink,
    g_mixed,
    g_rose2,
    g_toeplitz,
)
from corpus import GRAPHS, ring, tags


def test_enumerate_cycles_on_a_long_ring():
    (c,) = enumerate_cycles(ring(1500))
    assert len(c) == 1500 and c.edges[0] == "e0"


def test_cli_gk_and_report_on_a_long_ring(tmp_path, capsys):
    path = tmp_path / "ring.json"
    path.write_text(graph_to_json(ring(1500)))
    assert main(["gk", str(path)]) == 0
    gk = json.loads(capsys.readouterr().out)
    assert (gk["finite"], gk["longestChain"], gk["lowerBound"]) == (True, 1, 1)
    assert main(["report", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["cyclePoset"]["cycles"]) == 1
    assert report["fp"]["reasons"][0]["code"] == "OK_CYCLIC"


def test_enumerate_cycles_stays_in_the_root_scc():
    # the only cycle lies in the loop's SCC, so no walk may run down the line
    n = 3000
    verts = [f"v{i}" for i in range(n + 1)]
    edges = [Edge(f"e{i}", f"v{i}", f"v{i + 1}") for i in range(n)] + [Edge("c", f"v{n}", f"v{n}")]
    start = time.perf_counter()
    cycles = enumerate_cycles(Graph(verts, edges))
    assert time.perf_counter() - start < 1.0
    assert [c.edges for c in cycles] == [("c",)]


def test_fp_on_a_long_loop_chain_with_a_sink():
    assert decide_fp(g_loop_chain_with_sink(3000)).codes() == ("OK_CYCLIC",)


def test_laurent_cardinality_at_the_end_of_a_long_line():
    n = 3000
    verts = [f"v{i}" for i in range(n + 1)]
    edges = [Edge(f"e{i}", f"v{i}", f"v{i + 1}") for i in range(n)] + [Edge("c", f"v{n}", f"v{n}")]
    g = Graph(verts, edges)
    assert laurent_index_cardinality(g, canonical_cycle(g, ["c"])) == n + 1


def test_witness_closes_the_first_two_inner_edges_of_the_least_vertex():
    # a figure eight a -> b -> a, a -> c -> a: b lies on one simple cycle only
    g = Graph(
        ["a", "b", "c"],
        [Edge("ab", "a", "b"), Edge("ba", "b", "a"), Edge("ac", "a", "c"), Edge("ca", "c", "a")],
    )
    assert decide_gk(g).witness == [["ab", "ba"], ["ac", "ca"]]
    # in (bundle id) order from the least such vertex, not shortest first
    g = Graph(["a", "b"], [Edge("x", "a", "b"), Edge("y", "b", "a"), Edge("z", "a", "a")])
    assert decide_gk(g).witness == [["x", "y"], ["z"]]
    # the first offending SCC by least vertex, and a bundle's first two edges
    g = Graph(
        ["u", "x", "y"],
        [Edge("b", "x", "y", 3), Edge("f", "y", "x"), Edge("g", "u", "u"), Edge("h", "u", "u")],
    )
    assert decide_fp(g).reasons[0]["witness"] == [["g"], ["h"]]
    g = Graph(["x", "y"], [Edge("b", "x", "y", 3), Edge("f", "y", "x")])
    assert decide_gk(g).witness == [["b[0]", "f"], ["b[1]", "f"]]


def test_enumerate_cycles_skips_roots_no_walk_can_return_to():
    # on a ring only the roots entered from a higher-ordered vertex can close
    start = time.perf_counter()
    (c,) = enumerate_cycles(ring(3000))
    assert time.perf_counter() - start < 1.0
    assert len(c) == 3000 and c.edges[0] == "e0"


def complete_digraph(n: int) -> Graph:
    vs = [f"v{i}" for i in range(n)]
    return Graph(vs, [Edge(f"e{i}_{j}", u, w) for i, u in enumerate(vs) for j, w in enumerate(vs) if i != j])


def test_report_on_k8_without_a_pairwise_preorder(tmp_path, capsys):
    # 16064 cycles: a C x C pre-order matrix would hold about 2.6e8 entries
    path = tmp_path / "k8.json"
    path.write_text(graph_to_json(complete_digraph(8)))
    start = time.perf_counter()
    assert main(["report", str(path)]) == 0
    assert time.perf_counter() - start < 3.0
    report = json.loads(capsys.readouterr().out)
    assert len(report["cyclePoset"]["cycles"]) == 16064
    assert report["cyclePoset"]["antisymmetric"] is False


def test_one_report_runs_tarjan_once(tmp_path, capsys, monkeypatch):
    runs = []
    tarjan = graph_mod._tarjan

    def counted(g):
        runs.append(g)
        return tarjan(g)

    monkeypatch.setattr(graph_mod, "_tarjan", counted)
    path = tmp_path / "g.json"
    path.write_text(graph_to_json(g_loop_chain_with_sink(4)))
    assert main(["report", str(path)]) == 0
    capsys.readouterr()
    assert len(runs) == 1


def test_questions_about_one_graph_run_tarjan_once(monkeypatch):
    runs = []
    tarjan = graph_mod._tarjan

    def counted(g):
        runs.append(g)
        return tarjan(g)

    monkeypatch.setattr(graph_mod, "_tarjan", counted)
    g = g_loop_chain_with_sink(5)
    assert decide_fp(g).all_finitely_presented
    assert decide_gk(g).longest_chain == 5
    assert len(cycle_poset(g).cycles) == 5
    assert [corner_report(g, v).vertex for v in g.vertices] == list(g.vertices)
    assert len(fp_filtration(g).layers) == 6
    assert line_points(g) == {"w"}
    assert runs == [g]


def test_corner_reports_of_every_vertex_share_one_analysis():
    g = g_line(2000)
    start = time.perf_counter()
    reports = [corner_report(g, v) for v in g.vertices]
    assert time.perf_counter() - start < 1.0
    assert all(r.is_line_point and r.acyclic for r in reports)


def test_corner_report_names_the_least_infinite_bundle_it_reaches():
    # infinite loops in three SCCs: {x} holds a, {y} holds k and m, {t} e6
    g = Graph(
        ["u", "v", "w", "x", "y", "t", "z"],
        [
            Edge("a", "x", "x", OMEGA),
            Edge("m", "y", "y", OMEGA),
            Edge("k", "y", "y", OMEGA),
            Edge("e6", "t", "t", OMEGA),
            Edge("e1", "v", "y"),
            Edge("e2", "v", "w"),
            Edge("e3", "w", "x"),
            Edge("e4", "u", "y"),
            Edge("e5", "u", "t"),
        ],
    )
    named = {"u": "e6", "v": "a", "w": "a", "x": "a", "y": "k", "t": "e6"}
    for v, bundle in named.items():
        with pytest.raises(InfinitelyManyCyclesError, match=f"^infinite bundle '{bundle}' lies on a closed path$"):
            corner_report(g, v)
    assert corner_report(g, "z").is_line_point
    # decide_gk answers from the condensation: of the three SCCs that are not
    # a single cycle, {t} has the least vertex, and its loop e6 is two cycles
    verdict = decide_gk(g)
    assert not verdict.finite and verdict.witness == [["e6[0]"], ["e6[1]"]]


def _f(g: Graph, k: int) -> list[str]:
    """F_k: every address of each finite bundle of ``g``, and the first k
    addresses of each ``omega`` bundle."""
    return [a for e in g.edges for a in graph_mod.bundle_addresses(g, e.id, k)]


def test_an_infinite_bundle_on_a_closed_path_is_read_as_its_truncations():
    # the four reads answer on g as on the finite graphs of F_2 and F_3, and
    # the gk witness is two cycles of g that use F_2 only
    graphs = [g for g in GRAPHS if "omega_on_cycle" in tags(g)]
    assert len(graphs) == 671
    reads = (condition_L, condition_K, disjoint_cycles_criterion, lambda g: decide_gk(g).finite)
    for g in graphs:
        answers = [read(g) for read in reads]
        for k in (2, 3):
            t = subalgebra_graph(g, _f(g, k))
            assert answers == [read(t) for read in reads]
        witness = decide_gk(g).witness
        assert len(witness) == 2 and witness[0] != witness[1]
        for c in witness:
            assert list(canonical_cycle(g, c).edges) == c and set(c) <= set(_f(g, 2))


def test_fp_filtration_builds_each_no_exit_cycle_once(monkeypatch):
    n = 2000
    g = Graph([f"v{i:04}" for i in range(n)], [Edge(f"c{i:04}", f"v{i:04}", f"v{i:04}") for i in range(n)])
    built = []
    scc_cycle = structure_mod._scc_cycle

    def counted(g, scc, i):
        built.append(i)
        return scc_cycle(g, scc, i)

    monkeypatch.setattr(structure_mod, "_scc_cycle", counted)
    start = time.perf_counter()
    filt = fp_filtration(g)
    assert time.perf_counter() - start < 2.0
    assert sorted(built) == list(range(n))
    assert [layer.cycle.edges for layer in filt.layers[1:]] == [(f"c{i:04}",) for i in range(n)]
    assert [layer.index_cardinality for layer in filt.layers[1:]] == [1] * n
    assert filt.chain[-1].vertices == frozenset(g.vertices)


def test_filtrations_count_every_laurent_index_of_a_fan_in_one_pass():
    # a chain of n vertices whose last vertex feeds n loops: each loop's base
    # is entered by the n paths that end at the last chain vertex, and by
    # the length-0 path at the base itself
    n = 1000
    chain = [f"a{i:04}" for i in range(n)]
    loops = [f"w{k:04}" for k in range(n)]
    edges = [Edge(f"e{i:04}", chain[i], chain[i + 1]) for i in range(n - 1)]
    edges += [Edge(f"f{k:04}", chain[-1], w) for k, w in enumerate(loops)]
    edges += [Edge(f"c{k:04}", w, w) for k, w in enumerate(loops)]
    g = Graph(chain + loops, edges)
    start = time.perf_counter()
    fp, gk = fp_filtration(g), gk_filtration(g)
    assert time.perf_counter() - start < 1.0
    assert [layer.index_cardinality for layer in fp.layers[1:]] == [n + 1] * n
    (layer,) = gk.layers
    assert [part.index_cardinality for part in layer.laurent] == [n + 1] * n


def test_gk_filtration_of_the_empty_graph():
    filt = gk_filtration(Graph([], []))
    assert filt.to_obj() == {"chain": [[]], "layers": [{"kind": "vnr", "vertices": []}]}


@pytest.mark.parametrize("seed", [0, 1, 2, 3, "fixtures"])
def test_each_filtration_set_is_the_closure_of_its_seed(seed):
    """Every chain entry of both filtrations, grown SCC by SCC, equals the
    vertex-level saturated closure of the seed it records.  A Laurent layer's
    index depends on its cycle alone, not on the step, and in the gk
    filtration the layers after the first one with a cycle add cycles only."""
    graphs = GRAPHS[seed::8] if seed != "fixtures" else [
        g_loop(), g_line(3), g_rose2(), g_toeplitz(), g_clock(3), g_clock_omega(),
        g_loop_chain(4), g_loop_chain_with_sink(4), g_mixed(), Graph([], []),
    ]
    checked = 0
    for g in graphs:
        for build in (fp_filtration, gk_filtration):
            try:
                filt = build(g)
            except LeavittError:
                continue
            for h in filt.chain:
                assert h == saturated_closure(g, h.generated_from)
            after_a_cycle = False
            for layer in filt.layers:
                laurent = [layer] if isinstance(layer, LaurentMatrixLayer) else getattr(layer, "laurent", ())
                for part in laurent:
                    assert part.index_cardinality == laurent_index_cardinality(g, part.cycle)
                if build is gk_filtration and after_a_cycle:
                    assert laurent and not getattr(layer, "vnr_vertices", None)
                after_a_cycle = after_a_cycle or bool(laurent)
            checked += 1
    assert checked > 0


def test_no_function_in_the_package_imports():
    # imports at module level only: a function-level import hides a cycle
    # between modules
    found = []
    for path in sorted(Path(leavitt.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert found == []
