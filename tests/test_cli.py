"""Command-line surface: dispatch, exit codes, round-trips, determinism."""

from __future__ import annotations

import json
import random
import sys

import pytest

from leavitt import (
    OMEGA,
    AlgebraContext,
    AlgebraElement,
    Edge,
    Graph,
    PrimeField,
    RATIONALS,
    graph_from_json,
    graph_from_obj,
    graph_to_json,
    graph_to_obj,
    parse_expression,
    saturated_closure,
)
from leavitt.cli import _COMMANDS, _field, _parsers, main
from leavitt.errors import ResourceCapError
from leavitt.fixtures import (
    g_clock_omega,
    g_line,
    g_loop,
    g_loop_chain_with_sink,
    g_mixed,
    g_rose2,
    g_toeplitz,
)
from leavitt.graph import bundle_addresses


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


def test_validate_ok(write_graph, capsys):
    code, out, _ = run_cli(capsys, "validate", write_graph(g_toeplitz()))
    assert code == 0
    assert out == {"ok": True, "vertices": 2, "edgeBundles": 2}


def test_validate_schema_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices":["a"],"edges":[{"id":"e","src":"a","dst":"zz"}]}')
    code, out, err = run_cli(capsys, "validate", str(bad))
    assert code == 2 and out is None
    assert "undeclared endpoint" in err["error"]


def test_fp_verdict_polarity_keeps_exit_zero(write_graph, capsys):
    code, out, _ = run_cli(capsys, "fp", write_graph(g_rose2()))
    assert code == 0
    assert out["allFinitelyPresented"] is False
    assert out["reasons"][0]["code"] == "GEQ_NOT_ANTISYMMETRIC"


def test_gk_and_socle(write_graph, capsys):
    code, out, _ = run_cli(capsys, "gk", write_graph(g_loop_chain_with_sink(3)))
    assert code == 0 and out["finite"] is True
    code, out, _ = run_cli(capsys, "socle", write_graph(g_toeplitz()))
    assert out == {"linePoints": ["v2"], "socleVertices": ["v2"]}


def test_eval_and_growth(write_graph, capsys):
    path = write_graph(g_loop())
    code, out, _ = run_cli(capsys, "eval", path, "--expr", "c*.c")
    assert code == 0
    assert out["terms"] == [{"coeff": "1", "p": [], "q": [], "v": "v"}]
    code, out, _ = run_cli(capsys, "growth", path, "--n", "10")
    assert out == [2 * n + 1 for n in range(11)]


def test_eval_gf_field(write_graph, capsys):
    code, out, _ = run_cli(capsys, "eval", write_graph(g_loop()), "--expr", "5 v", "--field", "5")
    assert code == 0 and out["terms"] == []


def test_eval_unknown_identifier_exits_2(write_graph, capsys):
    code, _, err = run_cli(capsys, "eval", write_graph(g_loop()), "--expr", "zz")
    assert code == 2 and "unknown identifier" in err["error"]


def test_closure_quotient_hedgehog_ef_round_trip(write_graph, capsys):
    path = write_graph(g_loop_chain_with_sink(2))
    code, out, _ = run_cli(capsys, "closure", path, "--seed", "w")
    assert out["vertices"] == ["w"]
    code, out, _ = run_cli(capsys, "quotient", path, "--h", "w")
    assert code == 0
    assert graph_from_obj(out) is not None
    code, out2, _ = run_cli(capsys, "hedgehog", path, "--h", "w", "--depth", "3")
    assert code == 0 and out2["complete"] is False
    assert graph_from_obj(out2["graph"]) is not None
    code, out3, _ = run_cli(capsys, "ef", path, "--edges", "c1")
    assert graph_from_obj(out3) is not None


def test_hs_sets_and_cap_exit_3(write_graph, capsys, tmp_path):
    code, out, _ = run_cli(capsys, "hs-sets", write_graph(g_loop_chain_with_sink(2)))
    assert code == 0 and out["count"] == 4
    big = graph_from_obj({"vertices": [f"v{i}" for i in range(22)], "edges": []})
    code, _, err = run_cli(capsys, "hs-sets", write_graph(big, "big.json"))
    assert code == 3
    assert "cap" in err["error"]


def test_corner_and_filtration(write_graph, capsys):
    code, out, _ = run_cli(capsys, "corner", write_graph(g_loop()), "--vertex", "v")
    assert out["flags"]["noExitCycleTree"] is True
    code, out, _ = run_cli(capsys, "filtration", write_graph(g_loop_chain_with_sink(2)), "--kind", "fp")
    assert out["chain"] == [["w"], ["v1", "w"], ["v1", "v2", "w"]]
    code, out, _ = run_cli(capsys, "filtration", write_graph(g_toeplitz()), "--kind", "gk")
    assert out["chain"] == [["v2"], ["v1", "v2"]]
    code, _, err = run_cli(capsys, "filtration", write_graph(g_rose2()), "--kind", "fp")
    assert code == 2


def test_act_chen(write_graph, capsys):
    stream = json.dumps({"kind": "periodic", "prefix": [], "period": ["c"]})
    code, out, _ = run_cli(
        capsys, "act", write_graph(g_loop()), "--module", "chen", "--stream", stream, "--expr", "c*"
    )
    assert code == 0
    assert out == {"module": "chen", "terms": [{"coeff": "1", "prefix": [], "tailIndex": 0}]}


def test_act_sv(write_graph, capsys):
    code, out, _ = run_cli(
        capsys, "act", write_graph(g_clock_omega()), "--module", "sv", "--vertex", "u",
        "--expr", "b[2].b[2]*",
    )
    assert code == 0
    assert out == {"module": "sv", "terms": []}
    code, _, err = run_cli(
        capsys, "act", write_graph(g_clock_omega()), "--module", "sv", "--expr", "u"
    )
    assert code == 2


def _edge_into_an_infinite_emitter():
    """An edge e from a to u, and an omega bundle b from u to w."""
    return Graph(["a", "u", "w"], [Edge("e", "a", "u"), Edge("b", "u", "w", OMEGA)])


def test_act_sv_prints_a_path_term(write_graph, capsys):
    path = write_graph(_edge_into_an_infinite_emitter())
    assert main(["act", path, "--module", "sv", "--vertex", "u", "--expr", "2 e"]) == 0
    captured = capsys.readouterr()
    assert captured.out == '{"module": "sv", "terms": [{"coeff": "2", "path": ["e"]}]}\n'
    assert captured.err == ""


@pytest.mark.parametrize(
    ("options", "message"),
    [
        (["--module", "sv", "--vertex", "u", "--expr", "2 e", "--field", "x"], "unknown field 'x'"),
        (["--module", "chen", "--stream", "{", "--expr", "a"], "malformed stream descriptor"),
    ],
    ids=["unknown field", "malformed stream"],
)
def test_act_input_errors_exit_2(write_graph, capsys, options, message):
    assert main(["act", write_graph(_edge_into_an_infinite_emitter()), *options]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    err = json.loads(line)
    assert err["exit"] == 2 and err["error"].startswith(message)


def test_report_stable_under_reordering(tmp_path, capsys):
    obj = graph_to_obj(g_loop_chain_with_sink(2))
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(obj))
    reordered = {
        "edges": list(reversed(obj["edges"])),
        "vertices": list(reversed(obj["vertices"])),
    }
    b.write_text(json.dumps(reordered))
    code_a = main(["report", str(a)])
    out_a = capsys.readouterr().out
    code_b = main(["report", str(b)])
    out_b = capsys.readouterr().out
    assert code_a == code_b == 0
    assert out_a == out_b


def test_stdin_input(write_graph, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(graph_to_json(g_loop())))
    code, out, _ = run_cli(capsys, "validate", "-")
    assert code == 0 and out["ok"] is True


def _wide() -> Graph:
    """A bundle b of 8192 edges from u to w: b[0].b[0]* has 8192 terms."""
    return Graph(["u", "w"], [Edge("b", "u", "w", 8192)])


def _escapes() -> Graph:
    """Ids that JSON escapes: a -b-> w"\\é and a -c"\\é(2)-> w"\\é -d\\ñ"-> z\\"ü,
    with the plain vertex a first, so that the eval expression can name it."""
    w, z = 'w"\\é', 'z\\"ü'
    return Graph(["a", w, z], [Edge("b", "a", w), Edge('c"\\é', "a", w, 2), Edge('d\\ñ"', w, z)])


_BYTE_GRAPHS = {
    "toeplitz": g_toeplitz,
    "loop": g_loop,
    "rose2": g_rose2,
    "clock_omega": g_clock_omega,
    "loop_chain_with_sink": lambda: g_loop_chain_with_sink(2),
    "line": lambda: g_line(4),
    "mixed": g_mixed,
    "wide": _wide,
    "escapes": _escapes,
}

# act needs an infinite path (chen) or an infinite emitter (sv)
_ACT_OPTIONS = {
    "toeplitz": ["--module", "chen", "--stream", '{"kind":"periodic","prefix":["c"],"period":["c"]}',
                 "--expr", "c.c* - 1/2 c + c*"],
    "loop": ["--module", "chen", "--stream", '{"kind":"periodic","prefix":[],"period":["c"]}',
             "--expr", "3 c* - c.c"],
    "clock_omega": ["--module", "sv", "--vertex", "u", "--expr", "b[0].b[0]* + 2/3 u"],
}


def _byte_cases(name: str, g: Graph) -> list[tuple[str, list[str]]]:
    """(subcommand, options) pairs that exercise every subcommand on ``g``."""
    v, last = g.vertices[0], g.vertices[-1]
    e = g.edges[0]
    a = e.id if e.mult == 1 else f"{e.id}[0]"
    h = " ".join(sorted(saturated_closure(g, [last]).vertices))
    cases = [(command, []) for command in ("validate", "report", "fp", "gk", "socle", "hs-sets")]
    cases += [
        ("closure", ["--seed", v]),
        ("quotient", ["--h", h]),
        ("hedgehog", ["--h", h, "--depth", "3"]),
        ("ef", ["--edges", a]),
        ("corner", ["--vertex", v]),
        ("filtration", ["--kind", "fp"]),
        ("filtration", ["--kind", "gk"]),
        ("growth", ["--n", "6"]),
        ("act", _ACT_OPTIONS.get(name, ["--module", "sv", "--vertex", v, "--expr", v])),
    ]
    cases += [("eval", ["--expr", f"{a}.{a}* - 1/3 {v} + 2 {a}", "--field", f]) for f in ("q", "7")]
    return cases


def test_cli_output_is_the_default_encoding_of_the_handler_object(tmp_path, capsys):
    """The CLI and ``graph_to_json`` encode without the circular-reference
    check; their bytes are those of the default ``json.dumps`` of the
    object the handler (or ``graph_to_obj``) returns.  A handler that
    returns text (eval) returns that encoding of ``to_obj``'s terms."""
    _, commands, _ = _parsers()
    answered = set()
    for name, make in _BYTE_GRAPHS.items():
        g = make()
        text = graph_to_json(g)
        assert text == json.dumps(graph_to_obj(g), sort_keys=True)
        path = tmp_path / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        cases = _byte_cases(name, g)
        assert {command for command, _ in cases} == set(_COMMANDS)
        for command, options in cases:
            argv = [command, str(path), *options]
            code = main(argv)
            out = capsys.readouterr().out
            if code != 0:
                assert code in (2, 3) and out == ""
                continue
            args = commands[command].parse_args(argv[1:])
            obj = args.handler(graph_from_json(path.read_bytes()), args)
            if isinstance(obj, str):
                assert command == "eval"
                x = parse_expression(args.expr, AlgebraContext(g, _field(args.field)))
                assert obj == json.dumps(json.loads(obj), sort_keys=True)
                assert obj == json.dumps({"terms": x.to_obj()}, sort_keys=True)
                text = obj
            else:
                text = json.dumps(obj, sort_keys=True)
            assert out == text + "\n", (name, argv)
            answered.add((name, command))
    assert {command for _, command in answered} == set(_COMMANDS)
    assert len(answered) >= 110
    assert {("wide", "eval"), ("escapes", "eval"), ("escapes", "report")} <= answered


_SUFFIXES = ("", '"', "\\", "é", '"\\é')


def _escaped(rng: random.Random, g: Graph) -> Graph:
    """``g`` with each id followed by a suffix that JSON escapes, or by none.
    The corpus ids are letters and digits, so no two new ids clash."""
    name = {v: v + rng.choice(_SUFFIXES) for v in g.vertices}
    edges = [Edge(e.id + rng.choice(_SUFFIXES), name[e.src], name[e.dst], e.mult) for e in g.edges]
    return Graph(list(name.values()), edges)


def _sum(rng: random.Random, gens: list) -> AlgebraElement:
    scalars = ("1", "-1", "2", "1/2", "-2/3", "7", "5/12")
    return AlgebraElement.sum(rng.choice(gens).scale(rng.choice(scalars)) for _ in range(rng.randint(1, 4)))


def test_the_eval_text_is_the_default_encoding_of_to_obj(tmp_path, capsys):
    """The text eval writes, ``AlgebraElement._to_json``, is the default
    ``json.dumps`` of ``{"terms": to_obj()}`` on sums and products of
    generators over the corpus graphs with escaped ids, over Q and GF(7),
    and a coefficient too long to print exits 3 with nothing on stdout."""
    from corpus import sized

    rng = random.Random(3303)
    seen = {"zero": 0, "vertex": 0, '\\"': 0, "\\\\": 0, "\\u00e9": 0, "Q": 0, "GF(7)": 0}
    for g in sized(1, 6, 1)[:240]:
        g = _escaped(rng, g)
        for field in (RATIONALS, PrimeField(7)):
            ctx = AlgebraContext(g, field)
            gens = [ctx.vertex(v) for v in g.vertices]
            gens += [f(a) for e in g.edges for a in bundle_addresses(g, e.id, 2) for f in (ctx.edge, ctx.ghost)]
            x = _sum(rng, gens)
            if rng.random() < 0.7:
                x = x * _sum(rng, gens)
            text = x._to_json()
            assert text == json.dumps({"terms": x.to_obj()}, sort_keys=True)
            seen[repr(field)] += 1
            seen["zero"] += x.is_zero
            seen["vertex"] += '"v": ' in text
            for escape in ('\\"', "\\\\", "\\u00e9"):
                seen[escape] += escape in text
    assert seen["Q"] + seen["GF(7)"] - seen["zero"] >= 300 and min(seen.values()) >= 50, seen
    # a sum of two fractions whose denominators' product has more digits than str() converts
    limit = sys.get_int_max_str_digits()
    n = 10 ** (limit // 2 + 50)
    expr = f"1/{n} v1 + 1/{n + 1} v1"
    with pytest.raises(ResourceCapError):
        parse_expression(expr, AlgebraContext(g_toeplitz()))._to_json()
    path = tmp_path / "toeplitz.json"
    path.write_text(graph_to_json(g_toeplitz()), encoding="utf-8")
    assert main(["eval", str(path), "--expr", expr]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": f"a coefficient has more than {limit} digits, too long to print", "exit": 3}
