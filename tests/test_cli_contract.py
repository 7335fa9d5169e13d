"""CLI contract: every input ends in exit 0, 2 or 3 with JSON on stderr, and
one process can serve many requests."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, seed, settings, strategies as st

from leavitt import Edge, Graph, cli, graph_from_json, graph_to_json
from leavitt.cli import main
from leavitt.errors import InputError
from leavitt.fixtures import g_line, g_loop, g_loop_chain, g_rose2, g_toeplitz


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


def test_each_subcommand_takes_exactly_the_options_of_its_table_entry():
    _, commands = cli._parsers()
    assert set(commands) == set(cli._COMMANDS)
    for name, (_, options, _) in cli._COMMANDS.items():
        flags = {s for action in commands[name]._actions for s in action.option_strings}
        assert flags == {flag for flag, _ in options} | {"-h", "--help"}, name
        # the plain reader leaves a flag of another subcommand to argparse
        for flag in set(_FLAGS) - flags:
            assert cli._plain_args(name, ["g.json", flag, "1"]) is None, (name, flag)


def test_negative_growth_bound_exits_2(write_graph, capsys):
    code, out, err = run_cli(capsys, "growth", write_graph(g_loop()), "--n", "-3")
    assert code == 2 and out is None and err["exit"] == 2


def test_incomplete_ghstream_exits_2(write_graph, capsys):
    code, out, err = run_cli(
        capsys, "act", write_graph(g_rose2()), "--module", "chen", "--stream", '{"kind":"ghstream"}',
        "--expr", "v",
    )
    assert code == 2 and out is None and err["exit"] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["growth", "GRAPH", "--n", "3", "--max-basis", "5"], ["gk"], ["growth", "GRAPH", "--n", "x"], [],
        # a token starting "--=" is matched against the subcommand's own flags
        ["report", "GRAPH", "--=x"], ["eval", "GRAPH", "--expr", "--=v"],
        # a subcommand takes only the options it reads: the caps belong to
        # report and hs-sets, and a field is q or a prime
        ["gk", "GRAPH", "--max-cycles", "1"], ["fp", "GRAPH", "--max-vertices-hs", "1"],
        ["hs-sets", "GRAPH", "--max-cycles", "1"], ["eval", "GRAPH", "--expr", "v", "--field", "Q"],
        ["eval", "GRAPH", "--expr", "v", "--field", "rational"],
    ],
)
def test_usage_errors_are_json(write_graph, capsys, argv):
    path = write_graph(g_loop())
    code = main([path if a == "GRAPH" else a for a in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["exit"] == 2


def test_a_flag_is_matched_against_its_subcommands_flags_only(write_graph, capsys):
    # "--=x" is a prefix of every long flag; the top-level parser's own are
    # --help and --version, and neither report nor gk has --version
    path = write_graph(g_loop())
    for argv, message in (
        (["report", path, "--=x"], "ambiguous option: --=x could match --help, --max-cycles"),
        (["gk", path, "--=x"], "argument -h/--help: ignored explicit argument 'x'"),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == json.dumps({"error": message, "exit": 2}) + "\n"


# good and bad argv for a subcommand's own parser: defaults, every kind of
# option, a missing positional or required option, unknown flags and extra
# arguments, bad choices and types, abbreviations, "--" and top-level flags
# after the subcommand
_SUBCOMMAND_ARGV = [
    ["gk", "g.json"],
    ["report", "g.json", "--max-cycles", "5"],
    ["hs-sets", "g.json", "--max-vertices-hs", "3"],
    ["eval", "g.json", "--expr", "v", "--field", "7"],
    ["eval", "g.json", "--ex", "v"],
    ["act", "g.json", "--module", "sv", "--vertex", "v", "--expr", "v"],
    ["act", "g.json", "--module", "chen", "--stream", "{}", "--expr", "v"],
    ["filtration", "g.json", "--kind", "fp"],
    ["hedgehog", "g.json", "--h", "v", "--depth", "2"],
    ["quotient", "-", "--h=v"],
    ["gk", "--", "g.json"],
    ["gk"],
    ["closure", "g.json"],
    ["eval", "g.json"],
    ["gk", "g.json", "--bogus"],
    ["gk", "g.json", "extra"],
    ["gk", "g.json", "--version"],
    ["filtration", "g.json", "--kind", "x"],
    ["act", "g.json", "--module", "x", "--expr", "v"],
    ["growth", "g.json", "--n", "x"],
    ["growth", "g.json", "--n"],
    ["hedgehog", "g.json", "--h", "v", "--depth", "1.5"],
]


def _parse(parser, args):
    """argparse's namespace for ``args`` as a dict without "command", or
    how argparse refused them."""
    try:
        ns = vars(parser.parse_args(args))
    except InputError as exc:
        return f"InputError: {exc}"
    except SystemExit as exc:
        return f"SystemExit: {exc.code}"
    ns.pop("command", None)
    return ns


@pytest.mark.parametrize("argv", _SUBCOMMAND_ARGV)
def test_a_subcommand_parser_reads_argv_as_the_top_level_parser_does(argv):
    top, commands = cli._parsers()
    own = _parse(commands[argv[0]], argv[1:])
    assert own == _parse(top, argv)
    # the direct reader reads what argparse reads, or leaves argv to argparse
    plain = cli._plain_args(argv[0], argv[1:])
    assert plain is None or vars(plain) == own


# values for generated argv: ones the options take or refuse, "-", "--",
# negative numbers and flags; GRAPH is the path of a Toeplitz graph file
_TEXTS = ["GRAPH", "-", "", "x", "v1", "c", "c*.c - v1", "q", "7", "4", '{"kind":"periodic","period":["c"]}']
_VALUES = _TEXTS + ["--", "-5", "-1", "--x", "0", "3", "1.5", "fp", "gk", "chen", "sv"]
_FLAGS = sorted({f for _, options, _ in cli._COMMANDS.values() for f, _ in options} | {"-h", "--help", "--version"})


@st.composite
def _argv(draw):
    """A subcommand's name and argv: the plain shape with every required
    flag, then up to three edits that insert a flag, an abbreviation,
    "flag=value" or a value, or that drop or replace a token."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    args = []
    for flag, spec in cli._COMMANDS[command][1]:
        if spec.get("required") or draw(st.booleans()):
            if "choices" in spec:
                good = st.sampled_from(spec["choices"])
            elif spec.get("type") is int:
                good = st.sampled_from(["0", "3", "7"])
            else:
                good = st.sampled_from(_TEXTS)
            args.append((flag, draw(good)))
    args = [t for pair in draw(st.permutations(args)) for t in pair]
    args.insert(2 * draw(st.integers(0, len(args) // 2)), draw(st.sampled_from(["GRAPH", "-"])))
    flag, value = st.sampled_from(_FLAGS), st.sampled_from(_VALUES)
    stray = st.one_of(
        flag,
        flag.map(lambda f: f[: max(3, len(f) - 2)]),
        st.builds(lambda f, v: f"{f}={v}", flag, value),
        value,
    )
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(args)))
        edit = draw(st.sampled_from(["insert", "drop", "replace"]))
        if edit == "insert":
            args.insert(at, draw(stray))
        elif at < len(args):
            args[at : at + 1] = [] if edit == "drop" else [draw(stray)]
    return command, args


@pytest.fixture(scope="module")
def toeplitz_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("argv") / "toeplitz.json"
    path.write_text(graph_to_json(g_toeplitz()), encoding="utf-8")
    return str(path)


@seed(17)
@settings(max_examples=400, deadline=None, database=None)
@given(_argv())
def test_generated_argv_is_read_as_argparse_reads_it_and_exits_0_2_or_3(toeplitz_file, command_args):
    command, args = command_args
    args = [toeplitz_file if a == "GRAPH" else a for a in args]
    top, commands = cli._parsers()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        own = _parse(commands[command], args)
        # main reads argv that is not of the plain shape with the subcommand's
        # own parser, which reads these argv as the top-level parser does
        assert _parse(top, [command, *args]) == own
    plain = cli._plain_args(command, args)
    assert plain is None or vars(plain) == own
    err = io.StringIO()
    stdin = io.StringIO(graph_to_json(g_toeplitz()))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), mock.patch.object(sys, "stdin", stdin):
        try:
            code = main([command, *args])
        except SystemExit as exc:  # --help and --version
            code = exc.code
    assert code in (0, 2, 3)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["exit"] == code


def test_a_plain_request_builds_no_parser(write_graph):
    # a fresh interpreter: the parsers of this one may be built already
    argv = ["report", write_graph(g_loop()), "--max-cycles", "5"]
    script = f"from leavitt import cli; code = cli.main({argv!r}); print(code, cli._parsers.cache_info().currsize)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cli.__file__).parent.parent), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert run.stdout.splitlines()[-1] == "0 0", (run.stdout, run.stderr)


def test_version_and_help_still_exit_through_argparse(capsys):
    for flag in ("--version", "--help"):
        with pytest.raises(SystemExit) as info:
            main([flag])
        assert info.value.code == 0
    capsys.readouterr()


def test_rose2_growth_past_the_old_path_cap(write_graph, capsys):
    code, out, err = run_cli(capsys, "growth", write_graph(g_rose2()), "--n", "19")
    assert code == 0 and err is None
    t = [1, 4] + [(k + 1) * 2**k - (k - 1) * 2 ** (k - 2) for k in range(2, 20)]
    assert out == [sum(t[: k + 1]) for k in range(20)]


def test_hedgehog_on_a_long_line_exits_0(write_graph, capsys):
    code, out, _ = run_cli(capsys, "hedgehog", write_graph(g_line(1100)), "--h", "v1100")
    assert code == 0 and out["complete"] is True and len(out["pathVertices"]) == 1099


def test_large_prime_fields(write_graph, capsys):
    loop = write_graph(g_loop())
    code, out, _ = run_cli(capsys, "eval", loop, "--expr", "1000000000000000005 v", "--field", "1000000000000000003")
    assert code == 0 and out["terms"][0]["coeff"] == "2"
    code, out, err = run_cli(capsys, "eval", loop, "--expr", "v", "--field", str(10**25 + 13))
    assert code == 2 and out is None and err["exit"] == 2


def test_cycle_cap_is_checked_before_any_address_is_listed(write_graph, capsys):
    loop = write_graph(Graph(["v"], [Edge("c", "v", "v", 10**9)]))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "report", loop)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out is None
    assert err == {"error": "more than 100000 simple cycles", "exit": 3}


def test_scalar_with_a_denominator_p_divides_exits_2(write_graph, capsys):
    loop = write_graph(g_loop())
    code, out, err = run_cli(capsys, "eval", loop, "--expr", "1/7 v", "--field", "7")
    assert code == 2 and out is None
    assert err == {"error": "the scalar 1/7 has no value in GF(7): 7 divides its denominator", "exit": 2}
    toeplitz = write_graph(g_toeplitz(), "toeplitz.json")
    code, out, err = run_cli(
        capsys, "act", toeplitz, "--module", "chen", "--stream", '{"kind":"periodic","period":["c"]}',
        "--expr", "1/7 v1", "--field", "7",
    )
    assert code == 2 and out is None and "GF(7)" in err["error"]


@pytest.mark.parametrize(
    "stream, key",
    [
        ('{"kind":"periodic","period":5}', "period"),
        ('{"kind":"periodic","period":["c"],"prefix":7}', "prefix"),
        ('{"kind":"periodic","period":[["c"]]}', "period"),
    ],
)
def test_malformed_periodic_stream_exits_2(write_graph, capsys, stream, key):
    toeplitz = write_graph(g_toeplitz())
    code, out, err = run_cli(capsys, "act", toeplitz, "--module", "chen", "--stream", stream, "--expr", "v1")
    assert code == 2 and out is None
    assert err == {"error": f'the stream\'s "{key}" must be a list of edge addresses', "exit": 2}


def test_unreadable_graph_path_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    code, out, err = run_cli(capsys, "validate", missing)
    assert code == 2 and out is None
    assert err["exit"] == 2 and err["error"].startswith(f"cannot read {missing}: ")


def test_a_graph_that_is_not_utf8_exits_2(tmp_path, capsys, monkeypatch):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"vertices": ["\xff"], "edges": []}')
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 2 and out is None
    assert err["exit"] == 2 and err["error"].startswith(f"cannot read {path}: 'utf-8' codec can't decode byte 0xff")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(path.read_bytes()), encoding="utf-8"))
    code, out, err = run_cli(capsys, "validate", "-")
    assert code == 2 and out is None
    assert err["exit"] == 2 and err["error"].startswith("cannot read stdin: 'utf-8' codec can't decode byte 0xff")


def _text_mode_read_graph(path):
    """A graph file read in text mode, as the CLI read it before it read bytes."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    return graph_from_json(text)


_TOEPLITZ_LINES = json.dumps(json.loads(graph_to_json(g_toeplitz())), indent=1)


@pytest.mark.parametrize(
    "data",
    [
        _TOEPLITZ_LINES.replace("\n", "\r\n").encode(),
        _TOEPLITZ_LINES.replace("\n", "\r").encode(),
        b'{\r\n "vertices": ["a"],\r\n "edges": [,]\r\n}\r\n',
        b'{"vertices": ["a\r\nb"], "edges": []}',
        b'{"vertices": ["' + b"a" * 9000 + b'\xff"], "edges": []}',
        b"\xef\xbb\xbf" + graph_to_json(g_toeplitz()).encode(),
        graph_to_json(g_toeplitz()).encode("utf-16"),
    ],
    ids=["crlf", "cr", "crlf-syntax-error-line-3", "crlf-in-a-string", "non-utf8-past-8192", "bom", "utf-16"],
)
def test_a_graph_file_is_read_as_text_mode_reads_it(tmp_path, capsys, monkeypatch, data):
    path = tmp_path / "g.json"
    path.write_bytes(data)
    argv = ["report", str(path)]
    got = main(argv), capsys.readouterr()
    monkeypatch.setattr(cli, "_read_graph", _text_mode_read_graph)
    assert got == (main(argv), capsys.readouterr())


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_a_graph_on_stdin_reads_as_the_same_file(tmp_path, newline):
    # the bytes reach the real stdin of a new process: a TextIOWrapper with
    # the default newline would translate them itself and hide a difference
    data = '{\n "vertices": ["a"],\n "edges": [,]\n}\n'.replace("\n", newline).encode()
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cli.__file__).parent.parent), env.get("PYTHONPATH")]))
    runs = [
        subprocess.run(
            [sys.executable, "-m", "leavitt.cli", "validate", arg],
            input=stdin, env=env, capture_output=True, timeout=60,
        )
        for arg, stdin in ((str(path), b""), ("-", data))
    ]
    assert [(r.returncode, r.stdout) for r in runs] == [(2, b"")] * 2
    assert runs[0].stderr == runs[1].stderr
    assert json.loads(runs[0].stderr)["error"].endswith("line 3 column 12 (char 33)")


def test_json_nested_too_deeply_exits_2(write_graph, tmp_path, capsys):
    deep = "[" * 100_000
    path = tmp_path / "deep.json"
    path.write_text(deep)
    nested = {"error": "the document nests deeper than the JSON decoder allows", "exit": 2}
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 2 and out is None and err == nested
    toeplitz = write_graph(g_toeplitz())
    code, out, err = run_cli(capsys, "act", toeplitz, "--module", "chen", "--stream", deep, "--expr", "v1")
    assert code == 2 and out is None and err == nested


def test_a_stream_with_an_integer_past_the_digit_limit_exits_2(write_graph, capsys):
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("integer string conversion is not limited in this interpreter")
    stream = '{"kind": "periodic", "period": %s}' % ("9" * (limit + 700))
    code, out, err = run_cli(capsys, "act", write_graph(g_toeplitz()), "--module", "chen", "--stream", stream, "--expr", "v1")
    assert code == 2 and out is None
    assert err == {"error": f"the document has an integer of more than {limit} digits", "exit": 2}


@pytest.mark.parametrize(
    "module, missing",
    [("chen", "the chen module needs --stream"), ("sv", "the sv module needs --vertex")],
)
def test_act_without_its_module_flag_exits_2(write_graph, capsys, module, missing):
    code, out, err = run_cli(capsys, "act", write_graph(g_toeplitz()), "--module", module, "--expr", "v1")
    assert code == 2 and out is None
    assert err == {"error": missing, "exit": 2}


def _primes_from(start: int):
    n = start
    while True:
        if all(n % d for d in range(2, int(n**0.5) + 1)):
            yield n
        n += 1


def test_integers_past_the_digit_limit_exit_2_or_3(write_graph, tmp_path, capsys):
    # int() and str() convert at most this many digits; the limit stays as it is
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("integer string conversion is not limited in this interpreter")
    toeplitz = write_graph(g_toeplitz())
    long_int = "9" * (limit + 700)
    code, out, err = run_cli(capsys, "eval", toeplitz, "--expr", f"{long_int} v1")
    assert code == 2 and out is None
    assert err == {"error": f"the integer at position 0 has more than {limit} digits", "exit": 2}
    code, out, err = run_cli(capsys, "act", toeplitz, "--module", "chen", "--stream",
                             '{"kind":"periodic","period":["c"]}', "--expr", f"1/{long_int} v1")
    assert code == 2 and err == {"error": f"the integer at position 2 has more than {limit} digits", "exit": 2}
    doc = tmp_path / "long_mult.json"
    doc.write_text('{"vertices": ["u", "w"], "edges": [{"id": "b", "src": "u", "dst": "w", "mult": %s}]}' % long_int)
    code, out, err = run_cli(capsys, "validate", str(doc))
    assert code == 2 and out is None
    assert err == {"error": f"the document has an integer of more than {limit} digits", "exit": 2}
    # the sum of 1/p over enough primes p has a denominator too long to print
    terms, digits = [], 0.0
    for p in _primes_from(1009):
        terms.append(f"1/{p} v1")
        digits += math.log10(p)
        if digits > limit + 100:
            break
    code, out, err = run_cli(capsys, "eval", toeplitz, "--expr", " + ".join(terms))
    assert code == 3 and out is None
    assert err == {"error": f"a coefficient has more than {limit} digits, too long to print", "exit": 3}
