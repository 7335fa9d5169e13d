"""CLI contract: every input ends in exit 0, 2 or 3 with JSON on stderr, and
one process can serve many requests."""

from __future__ import annotations

import json

import pytest

from leavitt import graph_to_json
from leavitt.cli import main
from leavitt.fixtures import g_loop, g_loop_chain, g_rose2


@pytest.fixture
def write_graph(tmp_path):
    def _write(g, name="g.json"):
        path = tmp_path / name
        path.write_text(graph_to_json(g), encoding="utf-8")
        return str(path)

    return _write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    err = json.loads(captured.err) if captured.err.strip() else None
    return code, out, err


def test_consecutive_calls_do_not_share_flags(write_graph, capsys):
    chain = write_graph(g_loop_chain(3), "chain.json")
    loop = write_graph(g_loop(), "loop.json")
    code, _, err = run_cli(capsys, "report", chain, "--max-cycles", "2")
    assert code == 3 and err["exit"] == 3
    code, out, _ = run_cli(capsys, "report", chain)
    assert code == 0 and len(out["cyclePoset"]["cycles"]) == 3
    code, out, _ = run_cli(capsys, "eval", loop, "--expr", "5 v", "--field", "5")
    assert code == 0 and out["terms"] == []
    code, out, _ = run_cli(capsys, "eval", loop, "--expr", "5 v")
    assert code == 0 and out["terms"] == [{"coeff": "5", "p": [], "q": [], "v": "v"}]
    code, out, _ = run_cli(capsys, "corner", loop, "--vertex", "v")
    assert code == 0 and out["vertex"] == "v"
    code, out, _ = run_cli(capsys, "filtration", chain, "--kind", "gk")
    assert code == 0 and out["chain"][-1] == ["v1", "v2", "v3"]


def test_verdicts_do_not_stop_at_the_cycle_cap(write_graph, capsys):
    chain = write_graph(g_loop_chain(3))
    code, out, _ = run_cli(capsys, "gk", chain, "--max-cycles", "1")
    assert code == 0 and out["longestChain"] == 3
    code, out, _ = run_cli(capsys, "fp", chain, "--max-cycles", "1", "--max-vertices-hs", "1")
    assert code == 0 and out["allFinitelyPresented"] is True


def test_negative_growth_bound_exits_2(write_graph, capsys):
    code, out, err = run_cli(capsys, "growth", write_graph(g_loop()), "--n", "-3")
    assert code == 2 and out is None and err["exit"] == 2


def test_incomplete_ghstream_exits_2(write_graph, capsys):
    code, out, err = run_cli(
        capsys, "act", write_graph(g_rose2()), "--module", "chen", "--stream", '{"kind":"ghstream"}',
        "--expr", "v",
    )
    assert code == 2 and out is None and err["exit"] == 2
