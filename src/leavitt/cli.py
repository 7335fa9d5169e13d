"""Command-line front end.

Every subcommand reads a graph JSON document (file path or ``-`` for stdin),
emits one JSON document on stdout, and exits 0 on success regardless of the
verdict's polarity, 2 on input errors, and 3 when an enumeration cap is
exceeded.  Errors are reported as a JSON object on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .algebra import (
    AlgebraContext,
    PrimeField,
    RATIONALS,
    growth_profile,
)
from .closures import (
    MAX_VERTICES_HS_DEFAULT,
    breaking_vertices,
    enumerate_hs_sets,
    hedgehog,
    quotient,
    saturated_closure,
    subalgebra_graph,
)
from .errors import InputError, LeavittError, ResourceCapError
from .expressions import parse_expression
from .graph import (
    MAX_CYCLES_DEFAULT,
    Graph,
    Path,
    _json_value,
    classify_vertex,
    condition_K,
    condition_L,
    graph_from_json,
    graph_to_obj,
    line_points,
)
from .modules import (
    chen_act,
    chen_basis_element,
    stream_from_obj,
    sv_act,
)
from .structure import (
    corner_report,
    cycle_poset,
    decide_fp,
    decide_gk,
    fp_filtration,
    gk_filtration,
)


def _read_graph(path: str) -> Graph:
    # a file is read as bytes in one unbuffered read and decoded, which is
    # cheaper than text mode; json.loads still gets text, as it would take
    # bytes in UTF-16 or with a BOM
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "rb", buffering=0) as fh:
                text = fh.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {'stdin' if path == '-' else path}: {exc}") from None
    # the newlines text mode reads as "\n"; stdin on POSIX translates none,
    # so the same document gives the same error positions from either source
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return graph_from_json(text)


def _field(name: str):
    if name in ("q", "Q", "rational"):
        return RATIONALS
    try:
        return PrimeField(int(name))
    except ValueError:
        raise InputError(f"unknown field {name!r}; use 'q' or a prime number") from None


def _vertex_list(text: str) -> list[str]:
    return [v for v in text.replace(",", " ").split() if v]


def _socle(g: Graph, args) -> dict:
    lp = sorted(line_points(g))
    return {"linePoints": lp, "socleVertices": sorted(saturated_closure(g, lp).vertices)}


def _report(g: Graph, args) -> dict:
    cp = cycle_poset(g, args.max_cycles)
    classes = {}
    for v in g.vertices:
        c = classify_vertex(g, v)
        classes[v] = {"class": c.kind, "outDegree": c.out_degree}
    socle = _socle(g, args)
    return {
        "version": __version__,
        "summary": {
            "vertices": len(g.vertices),
            "edgeBundles": len(g.edges),
            "rowFinite": g.is_row_finite(),
            "conditionL": condition_L(g),
            "conditionK": condition_K(g),
        },
        "vertexClasses": classes,
        **socle,
        "cyclePoset": {
            "cycles": [list(c.edges) for c in cp.cycles],
            "antisymmetric": cp.antisymmetric,
            "longestChain": cp.longest_chain,
            "minimalCycles": [list(c.edges) for c in cp.minimal_cycles],
            "noExitCycles": [list(c.edges) for c in cp.no_exit_cycles],
        },
        "fp": decide_fp(g).to_obj(),
        "gk": decide_gk(g).to_obj(),
        "corners": {v: corner_report(g, v).to_obj() for v in g.vertices},
    }


def _closure(g: Graph, args) -> dict:
    h = saturated_closure(g, _vertex_list(args.seed))
    return {
        "generatedFrom": sorted(h.generated_from),
        "vertices": sorted(h.vertices),
        "breakingVertices": sorted(breaking_vertices(g, h.vertices)),
    }


def _hs_sets(g: Graph, args) -> dict:
    sets = enumerate_hs_sets(g, args.max_vertices_hs)
    return {"count": len(sets), "sets": [sorted(h.vertices) for h in sets]}


def _hedgehog(g: Graph, args) -> dict:
    res = hedgehog(g, _vertex_list(args.h), _vertex_list(args.s), args.depth)
    return {
        "graph": graph_to_obj(res.graph),
        "complete": res.complete,
        "depthBound": res.depth_bound,
        "pathVertices": {vid: list(p.edges) for vid, p in res.path_vertices},
    }


def _act(g: Graph, args) -> dict:
    ctx = AlgebraContext(g, _field(args.field))
    x = parse_expression(args.expr, ctx)
    fmt, one = ctx.field.format, ctx.field.one
    if args.module == "chen":
        start = chen_basis_element(g, stream_from_obj(g, _json_value(args.stream, "stream descriptor")))
        vec = chen_act(ctx, x, {start: one})
        terms = [
            {"prefix": list(k.prefix.edges), "tailIndex": k.tail_index, "coeff": fmt(c)}
            for k, c in sorted(vec.items(), key=lambda kv: (kv[0].prefix.sort_key(), kv[0].tail_index))
        ]
    else:
        vec = sv_act(ctx, args.vertex, x, {Path(g.require_vertex(args.vertex)): one})
        terms = [
            {"path": list(k.edges), "coeff": fmt(c)}
            for k, c in sorted(vec.items(), key=lambda kv: kv[0].sort_key())
        ]
    return {"module": args.module, "terms": terms}


# The subcommands: name -> (help, own options, handler).  An option is (flag,
# add_argument keywords); a handler maps (graph, parsed arguments) to the JSON
# object written on stdout.  Handlers name library functions in their bodies,
# so they resolve them when called.
_COMMANDS = {
    "validate": (
        "validate a graph document",
        (),
        lambda g, args: {"ok": True, "vertices": len(g.vertices), "edgeBundles": len(g.edges)},
    ),
    "report": ("full analysis report", (), _report),
    "fp": ("finitely-presented-modules verdict", (), lambda g, args: decide_fp(g).to_obj()),
    "gk": ("growth verdict", (), lambda g, args: decide_gk(g).to_obj()),
    "socle": ("line points and their saturated closure", (), _socle),
    "closure": (
        "saturated closure of a seed set",
        (("--seed", {"required": True, "help": "comma- or space-separated vertex ids"}),),
        _closure,
    ),
    "hs-sets": ("all hereditary saturated sets", (), _hs_sets),
    "quotient": (
        "quotient graph by (H, S)",
        (
            ("--h", {"default": "", "help": "hereditary saturated vertex set"}),
            ("--s", {"default": "", "help": "subset of breaking vertices"}),
        ),
        lambda g, args: graph_to_obj(quotient(g, _vertex_list(args.h), _vertex_list(args.s))),
    ),
    "hedgehog": (
        "graph realizing the graded ideal of (H, S)",
        (("--h", {"required": True}), ("--s", {"default": ""}), ("--depth", {"type": int, "default": 8})),
        _hedgehog,
    ),
    "ef": (
        "subalgebra graph of a finite edge set",
        (("--edges", {"required": True, "help": "comma- or space-separated edge addresses"}),),
        lambda g, args: graph_to_obj(subalgebra_graph(g, _vertex_list(args.edges))),
    ),
    "corner": (
        "corner report for one vertex",
        (("--vertex", {"required": True}),),
        lambda g, args: corner_report(g, args.vertex).to_obj(),
    ),
    "filtration": (
        "chain of graded-ideal layers",
        (("--kind", {"choices": ["fp", "gk"], "required": True}),),
        lambda g, args: (fp_filtration if args.kind == "fp" else gk_filtration)(g).to_obj(),
    ),
    "eval": (
        "evaluate an algebra expression",
        (
            ("--expr", {"required": True}),
            ("--field", {"default": "q", "help": "'q' for rationals or a prime p for GF(p)"}),
        ),
        lambda g, args: {
            "terms": parse_expression(args.expr, AlgebraContext(g, _field(args.field))).to_obj(),
        },
    ),
    "growth": (
        "dimension profile of the filtered algebra",
        (("--n", {"type": int, "required": True}),),
        lambda g, args: growth_profile(g, args.n),
    ),
    "act": (
        "act with an expression on a module vector",
        (
            ("--module", {"choices": ["chen", "sv"], "required": True}),
            ("--stream", {"help": "infinite-path descriptor JSON (chen)"}),
            ("--vertex", {"help": "infinite emitter (sv)"}),
            ("--expr", {"required": True}),
            ("--field", {"default": "q"}),
        ),
        _act,
    ),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise :class:`InputError`, so they are reported as JSON
    like every other input error; subparsers inherit this class.  The
    message carries no prog, so a subcommand's parser reports an error in
    the same words as the top-level parser."""

    def error(self, message):
        raise InputError(message)


def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser], dict[str, dict]]:
    """The top-level parser, each subcommand's own parser by name, and each
    subcommand's options by name: flag -> the argparse action that reads it."""
    ap = _Parser(
        prog="leavitt",
        description="Graph-algebra analysis: verdicts, closures, derived graphs, "
        "symbolic evaluation, and module actions over a graph JSON document.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    flags = {}
    for name, (help_text, options, handler) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("graph", help="graph JSON file, or - for stdin")
        table = flags[name] = {}
        for flag, kwargs in (
            ("--max-cycles", {"type": int, "default": MAX_CYCLES_DEFAULT}),
            ("--max-vertices-hs", {"type": int, "default": MAX_VERTICES_HS_DEFAULT}),
            *options,
        ):
            table[flag] = p.add_argument(flag, **kwargs)
        p.set_defaults(handler=handler)
    return ap, sub.choices, flags


def build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser], dict[str, dict]]:
    # building the parsers costs more than many requests; parsing leaves them unchanged
    return _build_parsers()


def _plain_args(command: str, args: list[str], flags: dict) -> argparse.Namespace | None:
    """What the subcommand's parser reads from ``args``, when they have the
    plain shape: exact flags from ``flags``, each followed by one value that
    does not start with "-" (but may be "-"), and one positional, the graph.
    Any other shape, or a value the parser would refuse, gives None."""
    ns = {}
    graph = None
    tokens = iter(args)
    for arg in tokens:
        action = flags.get(arg)
        if action is None:
            if graph is not None or (arg[:1] == "-" and arg != "-"):
                return None
            graph = arg
            continue
        value = next(tokens, None)
        if value is None or (value[:1] == "-" and value != "-"):
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (TypeError, ValueError):
                return None
        if action.choices is not None and value not in action.choices:
            return None
        ns[action.dest] = value
    if graph is None:
        return None
    for action in flags.values():
        if action.dest not in ns:
            if action.required:
                return None
            ns[action.dest] = action.default
    return argparse.Namespace(graph=graph, handler=_COMMANDS[command][2], **ns)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        top, _, flags = _parsers()
        # argv of the plain shape after a subcommand's name is read without
        # argparse; anything else goes to the top-level parser
        args = _plain_args(argv[0], argv[1:], flags[argv[0]]) if argv and argv[0] in flags else None
        if args is None:
            args = top.parse_args(argv)
        # act's flags (only act has --module) are checked before the graph is read
        module = getattr(args, "module", None)
        if module == "chen" and not args.stream:
            raise InputError("the chen module needs --stream")
        if module == "sv" and not args.vertex:
            raise InputError("the sv module needs --vertex")
        obj = args.handler(_read_graph(args.graph), args)
        # every handler returns a fresh tree, which has no cycle, so the
        # encoder's circular check (an id() kept per container) is skipped
        sys.stdout.write(json.dumps(obj, sort_keys=True, check_circular=False) + "\n")
        return 0
    except ResourceCapError as exc:
        return _fail(exc, 3)
    except LeavittError as exc:
        return _fail(exc, 2)


def _fail(exc: LeavittError, code: int) -> int:
    sys.stderr.write(json.dumps({"error": str(exc), "exit": code}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
