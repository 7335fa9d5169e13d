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
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc}") from None
    return graph_from_json(text)


def _field(name: str):
    if name in ("q", "Q", "rational"):
        return RATIONALS
    try:
        return PrimeField(int(name))
    except ValueError:
        raise InputError(f"unknown field {name!r}; use 'q' or a prime number") from None


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _vertex_list(text: str) -> list[str]:
    return [v for v in text.replace(",", " ").split() if v]


def _report(g: Graph, args) -> dict:
    cp = cycle_poset(g, args.max_cycles)
    classes = {}
    for v in g.vertices:
        c = classify_vertex(g, v)
        classes[v] = {"class": c.kind, "outDegree": c.out_degree}
    lp = sorted(line_points(g))
    socle = sorted(saturated_closure(g, lp).vertices)
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
        "linePoints": lp,
        "socleVertices": socle,
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


def _cmd(args) -> None:
    g = _read_graph(args.graph)
    cmd = args.command
    if cmd == "validate":
        _emit({"ok": True, "vertices": len(g.vertices), "edgeBundles": len(g.edges)})
    elif cmd == "report":
        _emit(_report(g, args))
    elif cmd == "fp":
        _emit(decide_fp(g).to_obj())
    elif cmd == "gk":
        _emit(decide_gk(g).to_obj())
    elif cmd == "socle":
        lp = sorted(line_points(g))
        _emit({"linePoints": lp, "socleVertices": sorted(saturated_closure(g, lp).vertices)})
    elif cmd == "closure":
        h = saturated_closure(g, _vertex_list(args.seed))
        _emit({
            "generatedFrom": sorted(h.generated_from),
            "vertices": sorted(h.vertices),
            "breakingVertices": sorted(breaking_vertices(g, h.vertices)),
        })
    elif cmd == "hs-sets":
        sets = enumerate_hs_sets(g, args.max_vertices_hs)
        _emit({"count": len(sets), "sets": [sorted(h.vertices) for h in sets]})
    elif cmd == "quotient":
        _emit(graph_to_obj(quotient(g, _vertex_list(args.h), _vertex_list(args.s))))
    elif cmd == "hedgehog":
        res = hedgehog(g, _vertex_list(args.h), _vertex_list(args.s), args.depth)
        _emit({
            "graph": graph_to_obj(res.graph),
            "complete": res.complete,
            "depthBound": res.depth_bound,
            "pathVertices": {vid: list(p.edges) for vid, p in res.path_vertices},
        })
    elif cmd == "ef":
        _emit(graph_to_obj(subalgebra_graph(g, _vertex_list(args.edges))))
    elif cmd == "corner":
        _emit(corner_report(g, args.vertex).to_obj())
    elif cmd == "filtration":
        if args.kind == "fp":
            filt = fp_filtration(g)
        else:
            filt = gk_filtration(g)
        _emit(filt.to_obj())
    elif cmd == "eval":
        ctx = AlgebraContext(g, _field(args.field))
        _emit({"terms": parse_expression(args.expr, ctx).to_obj()})
    elif cmd == "growth":
        _emit(growth_profile(AlgebraContext(g), args.n))
    elif cmd == "act":
        ctx = AlgebraContext(g, _field(args.field))
        x = parse_expression(args.expr, ctx)
        if args.module == "chen":
            try:
                desc = json.loads(args.stream)
            except json.JSONDecodeError as exc:
                raise InputError(f"malformed stream descriptor: {exc}") from None
            stream = stream_from_obj(g, desc)
            start = chen_basis_element(g, stream)
            vec = chen_act(ctx, x, {start: ctx.field.one})
            terms = [
                {
                    "prefix": list(k.prefix.edges),
                    "tailIndex": k.tail_index,
                    "coeff": ctx.field.format(c),
                }
                for k, c in sorted(vec.items(), key=lambda kv: (kv[0].prefix.sort_key(), kv[0].tail_index))
            ]
            _emit({"module": "chen", "terms": terms})
        else:
            vec = sv_act(ctx, args.vertex, x, {Path(g.require_vertex(args.vertex)): ctx.field.one})
            terms = [
                {"path": list(k.edges), "coeff": ctx.field.format(c)}
                for k, c in sorted(vec.items(), key=lambda kv: kv[0].sort_key())
            ]
            _emit({"module": "sv", "terms": terms})
    else:  # pragma: no cover
        raise InputError(f"unknown command {cmd!r}")


class _Parser(argparse.ArgumentParser):
    """Usage errors raise :class:`InputError`, so they are reported as JSON
    like every other input error; subparsers inherit this class."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="leavitt",
        description="Graph-algebra analysis: verdicts, closures, derived graphs, "
        "symbolic evaluation, and module actions over a graph JSON document.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("graph", help="graph JSON file, or - for stdin")
        p.add_argument("--max-cycles", type=int, default=MAX_CYCLES_DEFAULT)
        p.add_argument("--max-vertices-hs", type=int, default=MAX_VERTICES_HS_DEFAULT)

    common(sub.add_parser("validate", help="validate a graph document"))
    common(sub.add_parser("report", help="full analysis report"))
    common(sub.add_parser("fp", help="finitely-presented-modules verdict"))
    common(sub.add_parser("gk", help="growth verdict"))
    common(sub.add_parser("socle", help="line points and their saturated closure"))

    p = sub.add_parser("closure", help="saturated closure of a seed set")
    common(p)
    p.add_argument("--seed", required=True, help="comma- or space-separated vertex ids")

    common(sub.add_parser("hs-sets", help="all hereditary saturated sets"))

    p = sub.add_parser("quotient", help="quotient graph by (H, S)")
    common(p)
    p.add_argument("--h", default="", help="hereditary saturated vertex set")
    p.add_argument("--s", default="", help="subset of breaking vertices")

    p = sub.add_parser("hedgehog", help="graph realizing the graded ideal of (H, S)")
    common(p)
    p.add_argument("--h", required=True)
    p.add_argument("--s", default="")
    p.add_argument("--depth", type=int, default=8)

    p = sub.add_parser("ef", help="subalgebra graph of a finite edge set")
    common(p)
    p.add_argument("--edges", required=True, help="comma- or space-separated edge addresses")

    p = sub.add_parser("corner", help="corner report for one vertex")
    common(p)
    p.add_argument("--vertex", required=True)

    p = sub.add_parser("filtration", help="chain of graded-ideal layers")
    common(p)
    p.add_argument("--kind", choices=["fp", "gk"], required=True)

    p = sub.add_parser("eval", help="evaluate an algebra expression")
    common(p)
    p.add_argument("--expr", required=True)
    p.add_argument("--field", default="q", help="'q' for rationals or a prime p for GF(p)")

    p = sub.add_parser("growth", help="dimension profile of the filtered algebra")
    common(p)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("act", help="act with an expression on a module vector")
    common(p)
    p.add_argument("--module", choices=["chen", "sv"], required=True)
    p.add_argument("--stream", help="infinite-path descriptor JSON (chen)")
    p.add_argument("--vertex", help="infinite emitter (sv)")
    p.add_argument("--expr", required=True)
    p.add_argument("--field", default="q")

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # building the parser costs more than many requests; parsing leaves it unchanged
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command == "act":
            if args.module == "chen" and not args.stream:
                raise InputError("the chen module needs --stream")
            if args.module == "sv" and not args.vertex:
                raise InputError("the sv module needs --vertex")
        _cmd(args)
        return 0
    except ResourceCapError as exc:
        _fail(str(exc), 3)
        return 3
    except InputError as exc:
        _fail(str(exc), 2)
        return 2
    except LeavittError as exc:
        _fail(str(exc), 2)
        return 2


def _fail(message: str, code: int) -> None:
    sys.stderr.write(json.dumps({"error": message, "exit": code}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
