"""The three workloads: seeded request lists over fixed size ladders.

A request is either a CLI request (argv for ``leavitt.cli.main``, with the
graph JSON file as its second argument) or a library job (for products of
sums, which the expression grammar cannot write).  Family requests are the
same for every seed; the workload seed only picks which entries of the
seeded random pools join them.  Pool entries were generated by the seeded
generators below and accepted, with their reference answers, by
``record.py``; ``reference.json`` lists the accepted indices (ordered by
recorded cost), a digest of each entry (so a changed generator is caught at
set-up) and the answers.

Sizes are fixed ladders that double at each step.  No size depends on how
fast the commit under test is.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

from checks import digest

WORKLOADS = ("verdicts", "report", "symbolic")

# entries drawn from each pool per workload seed
PICKS = {
    "verdicts": {"sparse10": 16, "sparse20": 16, "sparse40": 16},
    "report": {"dense4": 24, "layered4": 24, "dense8": 16, "layered8": 16, "dense16": 1, "layered16": 1},
    "symbolic": {"element": 48, "chen": 6, "sv": 6, "eval": 64, "act_chen": 12, "act_sv": 8},
}
# The p50 of verdicts falls among its sparse-graph requests and the p90 of
# symbolic among the x^12 of its elements, where the cost rises steeply from
# one entry to the next: 8 sparse graphs per pool, or 24 of the 48 elements,
# moved those quantiles by a tenth to a quarter from seed to seed.  So
# verdicts draws 16 per pool and symbolic takes every element; its seed
# draws the other pools.
POOL_SIZES = {"eval": 96}  # other pools hold 48 entries


@dataclass(frozen=True)
class Request:
    """One request of a workload.

    ``args`` are the CLI options after the graph path, or the arguments of
    a library job.  ``checks`` name closed forms in ``checks.py``.  A
    ``defect`` names a failure documented at the commit that defined the
    benchmark; it is still counted as a failure.  A ``last`` request is
    issued after the timed passes of all the others, in passes of its own.
    """

    rid: str
    command: str
    graph: str
    args: tuple = ()
    cli: bool = True
    checks: tuple = ()
    series: str | None = None
    size: int | None = None
    defect: str | None = None
    pooled: bool = False
    last: bool = False


@dataclass
class Workload:
    name: str
    seed: int
    graphs: dict = field(default_factory=dict)  # key -> graph JSON object
    requests: list = field(default_factory=list)
    answers: dict = field(default_factory=dict)  # rid -> reference digest

    def add_graph(self, key: str, obj: dict) -> str:
        self.graphs[key] = obj
        return key

    def digest(self) -> str:
        """Digest of the request list and every input it reads."""
        doc = {
            "graphs": self.graphs,
            "requests": [list(r.__dict__.values()) for r in self.requests],
            "answers": self.answers,
        }
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Graph documents
# ---------------------------------------------------------------------------


def _graph(n_or_vertices, edges) -> dict:
    verts = n_or_vertices if isinstance(n_or_vertices, list) else [f"v{i}" for i in range(1, n_or_vertices + 1)]
    out = []
    for eid, src, dst, mult in edges:
        e = {"id": eid, "src": src, "dst": dst}
        if mult != 1:
            e["mult"] = mult
        out.append(e)
    return {"vertices": sorted(verts), "edges": sorted(out, key=lambda e: e["id"])}


def ring(n: int) -> dict:
    return _graph(n, [(f"e{i}", f"v{i}", f"v{i % n + 1}", 1) for i in range(1, n + 1)])


def _fixture(name: str, *args) -> dict:
    from leavitt import fixtures, graph_to_obj

    return graph_to_obj(getattr(fixtures, name)(*args))


ALGEBRA_GRAPHS = {
    # name -> (vertices, edges); the library graphs of the symbolic workload
    "multi": (["u", "w"], [("b", "u", "w", 3), ("c", "u", "u", 1), ("f", "w", "u", 2)]),
    "sv": (["u", "w", "y", "z"], [("a", "y", "z", 1), ("b", "u", "w", "omega"), ("c", "z", "z", 1), ("d", "z", "u", 1)]),
    "wide": (["u", "w"], [("b", "u", "w", 8192)]),
}


def algebra_graph(name: str) -> dict:
    if name in ALGEBRA_GRAPHS:
        return _graph(*ALGEBRA_GRAPHS[name])
    fixture = {"toeplitz": ("g_toeplitz",), "rose2": ("g_rose2",), "loop_chain3": ("g_loop_chain", 3)}[name]
    return _fixture(*fixture)


# ---------------------------------------------------------------------------
# Seeded generators for the pools
# ---------------------------------------------------------------------------


def sparse_graph(rng: random.Random, n: int) -> dict:
    """About one edge per vertex: few cycles, long reachability chains."""
    m = rng.randint(n, n + n // 4)
    return _graph(n, [(f"e{k}", f"v{rng.randint(1, n)}", f"v{rng.randint(1, n)}", 1) for k in range(1, m + 1)])


def dense_graph(rng: random.Random, n: int) -> dict:
    """One to two bundles per vertex, a third of them of multiplicity 2-3."""
    m = rng.randint(n, 2 * n)
    return _graph(
        n,
        [(f"e{k}", f"v{rng.randint(1, n)}", f"v{rng.randint(1, n)}", rng.choice((1, 1, 2, 3))) for k in range(1, m + 1)],
    )


def layered_graph(rng: random.Random, n: int) -> dict:
    """Disjoint simple cycles and acyclic vertices joined by downward bundles
    of multiplicity 1-3, so the cycle pre-order is antisymmetric and both
    filtrations are defined."""
    verts = [f"v{i}" for i in range(1, n + 1)]
    rng.shuffle(verts)
    blocks, i = [], 0
    while i < n:
        size = min(rng.randint(1, 3), n - i)
        blocks.append(verts[i:i + size])
        i += size
    edges = []
    for block in blocks:
        if len(block) > 1 or rng.random() < 0.5:
            for a, b in zip(block, block[1:] + block[:1]):
                edges.append((a, b, 1))
    for _ in range(n):
        hi = rng.randrange(1, len(blocks)) if len(blocks) > 1 else 0
        if hi:
            lo = rng.randrange(hi)
            edges.append((rng.choice(blocks[hi]), rng.choice(blocks[lo]), rng.choice((1, 2, 3))))
    return _graph(n, [(f"e{k}", s, d, m) for k, (s, d, m) in enumerate(edges, 1)])


def _address(rng: random.Random, e: dict) -> str:
    mult = e.get("mult", 1)
    if mult == 1:
        return e["id"]
    return f"{e['id']}[{rng.randrange(8 if mult == 'omega' else mult)}]"


def monomial_text(rng: random.Random, graph: dict, max_len: int = 2) -> str:
    """A nonzero monomial p q*: a forward walk p and a walk q into p's range."""
    out = {v: [e for e in graph["edges"] if e["src"] == v] for v in graph["vertices"]}
    inc = {v: [e for e in graph["edges"] if e["dst"] == v] for v in graph["vertices"]}
    start = rng.choice(graph["vertices"])
    p, at = [], start
    for _ in range(rng.randint(0, max_len)):
        if not out[at]:
            break
        e = rng.choice(out[at])
        p.append(_address(rng, e))
        at = e["dst"]
    q, back = [], at
    for _ in range(rng.randint(0, max_len)):
        if not inc[back]:
            break
        e = rng.choice(inc[back])
        q.append(_address(rng, e))
        back = e["src"]
    factors = p + [a + "*" for a in q]  # q was walked backwards from the range
    return ".".join(factors) if factors else at


def element_text(rng: random.Random, graph: dict, terms: int) -> str:
    text = ""
    for k in range(terms):
        scalar = rng.choice(("", "", "2 ", "3/2 ", "5 ", "1/3 "))
        sep = "" if k == 0 else rng.choice((" + ", " - "))
        text += sep + scalar + monomial_text(rng, graph)
    return text


CHEN_STREAMS = {
    "toeplitz": {"kind": "periodic", "prefix": [], "period": ["c"]},
    "rose2": {"kind": "ghstream", "g": "g", "h": "h"},
    "loop_chain3": {"kind": "periodic", "prefix": ["e1"], "period": ["c1"]},
}
SV_BASIS = (["d"], ["c", "d"], ["a", "d"], ["a", "c", "d"], ["c", "c", "d"])
FIELDS = ("q", "7", "q", "101")


def generate(pool: str, i: int) -> dict:
    """Entry ``i`` of a pool, as JSON data (deterministic in pool and i)."""
    rng = random.Random(f"{pool}:{i}")
    kind = pool.rstrip("0123456789")
    if kind in ("sparse", "dense", "layered"):
        n = int(pool[len(kind):])
        g = {"sparse": sparse_graph, "dense": dense_graph, "layered": layered_graph}[kind](rng, n)
        verts = g["vertices"]
        return {"graph": g, "seed": sorted(rng.sample(verts, rng.randint(1, 2))), "vertex": rng.choice(verts)}
    if pool == "element":
        name = rng.choice(("toeplitz", "rose2", "loop_chain3", "multi"))
        return {"g": name, "field": FIELDS[i % 4], "expr": element_text(rng, algebra_graph(name), rng.randint(2, 4))}
    if pool == "chen":
        name = rng.choice(tuple(CHEN_STREAMS))
        g = algebra_graph(name)
        return {"g": name, "exprs": [element_text(rng, g, rng.randint(1, 3)) for _ in range(6)]}
    if pool == "sv":
        g = algebra_graph("sv")
        return {"basis": rng.choice(SV_BASIS), "exprs": [element_text(rng, g, rng.randint(1, 3)) for _ in range(6)]}
    if pool == "eval":
        name = rng.choice(("toeplitz", "rose2", "loop_chain3", "multi"))
        return {"g": name, "field": FIELDS[i % 4], "expr": element_text(rng, algebra_graph(name), rng.randint(1, 4))}
    if pool == "act_chen":
        name = rng.choice(tuple(CHEN_STREAMS))
        return {"g": name, "field": FIELDS[i % 4], "expr": element_text(rng, algebra_graph(name), rng.randint(1, 4))}
    if pool == "act_sv":
        return {"field": FIELDS[i % 4], "expr": element_text(rng, algebra_graph("sv"), rng.randint(1, 4))}
    raise KeyError(pool)


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------


def entry_requests(w: Workload, pool: str, i: int, data: dict) -> list[Request]:
    """The requests of one pool entry."""
    rid = f"{pool}.{i}"
    kind = pool.rstrip("0123456789")
    if kind in ("sparse", "dense", "layered"):
        n = int(pool[len(kind):])
        g = w.add_graph(rid, data["graph"])
        series = lambda cmd: f"{'sparse' if kind == 'sparse' else 'dense'}.{cmd}"
        mk = lambda suffix, cmd, args=(): Request(
            f"{rid}/{suffix}", cmd, g, args, series=series(suffix), size=n, pooled=True
        )
        # every entry of a pool makes the same requests, so the count per pass
        # does not depend on the seed
        if kind == "sparse":
            reqs = [mk("gk", "gk"), mk("socle", "socle"), mk("closure", "closure", ("--seed", ",".join(data["seed"])))]
            if n <= 10:  # fp enumerates all 2^n vertex subsets of a cyclic graph
                reqs.append(mk("fp", "fp"))
            return reqs
        reqs = [mk("report", "report"), mk("corner", "corner", ("--vertex", data["vertex"])), mk("hs-sets", "hs-sets")]
        if kind == "layered":  # both verdicts hold, so both filtrations are defined
            reqs += [mk("filtration-gk", "filtration", ("--kind", "gk")), mk("filtration-fp", "filtration", ("--kind", "fp"))]
        return reqs
    if pool in ("element", "chen", "sv"):
        name = data.get("g", "sv")
        g = w.add_graph(name, algebra_graph(name))
        if pool == "element":
            reqs = [
                Request(f"{rid}/pow{k}", "power", g, (data["field"], data["expr"], k), cli=False,
                        series="power.x_k", size=k, pooled=True)
                for k in (3, 6, 12)
            ]
            reqs.append(Request(f"{rid}/components", "components", g, (data["field"], data["expr"]), cli=False, pooled=True))
            return reqs
        if pool == "chen":
            stream = json.dumps(CHEN_STREAMS[name], sort_keys=True)
            return [Request(f"{rid}/sweep", "chen_sweep", g, (stream, tuple(data["exprs"])), cli=False, pooled=True)]
        return [Request(f"{rid}/sweep", "sv_sweep", g, ("u", tuple(data["basis"]), tuple(data["exprs"])), cli=False, pooled=True)]
    if pool == "eval":
        g = w.add_graph(data["g"], algebra_graph(data["g"]))
        return [Request(f"{rid}/eval", "eval", g, ("--expr", data["expr"], "--field", data["field"]), pooled=True)]
    if pool == "act_chen":
        g = w.add_graph(data["g"], algebra_graph(data["g"]))
        stream = json.dumps(CHEN_STREAMS[data["g"]], sort_keys=True)
        args = ("--module", "chen", "--stream", stream, "--expr", data["expr"], "--field", data["field"])
        return [Request(f"{rid}/act", "act", g, args, pooled=True)]
    if pool == "act_sv":
        g = w.add_graph("sv", algebra_graph("sv"))
        args = ("--module", "sv", "--vertex", "u", "--expr", data["expr"], "--field", data["field"])
        return [Request(f"{rid}/act", "act", g, args, pooled=True)]
    raise KeyError(pool)


def _verdicts_family(w: Workload) -> list[Request]:
    reqs = []
    for n in (25, 50, 100, 200):
        g = w.add_graph(f"loop_chain{n}", _fixture("g_loop_chain", n))
        reqs.append(Request(f"loop_chain{n}/gk", "gk", g, checks=(("gk_finite", n),), series="loop_chain.gk", size=n))
        if n <= 100:
            reqs.append(Request(f"loop_chain{n}/filtration-gk", "filtration", g, ("--kind", "gk"),
                                series="loop_chain.filtration_gk", size=n))
    for n in (4, 8, 16, 21):
        g = w.add_graph(f"sink_chain{n}", _fixture("g_loop_chain_with_sink", n))
        defect = "ResourceCapError: 22 vertices exceed the 20-vertex subset cap of decide_fp (exit 3)" if n > 20 else None
        reqs.append(Request(f"sink_chain{n}/fp", "fp", g, checks=(("fp_ok", "OK_CYCLIC"),),
                            series=None if defect else "sink_chain.fp", size=n, defect=defect))
        if n <= 8:
            reqs.append(Request(f"sink_chain{n}/filtration-fp", "filtration", g, ("--kind", "fp"),
                                series="sink_chain.filtration_fp", size=n))
    for n in (100, 200, 400):
        g = w.add_graph(f"line{n}", _fixture("g_line", n))
        reqs.append(Request(f"line{n}/socle", "socle", g, checks=(("all_line_points",),), series="line.socle", size=n))
        reqs.append(Request(f"line{n}/fp", "fp", g, checks=(("fp_ok", "OK_ACYCLIC"),), series="line.fp", size=n))
        reqs.append(Request(f"line{n}/gk", "gk", g, checks=(("gk_finite", 0),), series="line.gk", size=n))
    for n in (125, 250, 1200):
        g = w.add_graph(f"ring{n}", ring(n))
        defect = "RecursionError in enumerate_cycles: the ring is deeper than the recursion limit" if n > 1000 else None
        reqs.append(Request(f"ring{n}/gk", "gk", g, checks=(("gk_finite", 1),),
                            series=None if defect else "ring.gk", size=n, defect=defect))
        if not defect:
            reqs.append(Request(f"ring{n}/closure", "closure", g, ("--seed", "v1"),
                                checks=(("closure_is_everything",),), series="ring.closure", size=n))
    return reqs


def _symbolic_family(w: Workload) -> list[Request]:
    reqs = []
    rose2 = w.add_graph("rose2", algebra_graph("rose2"))
    for n in (12, 13, 14, 15, 16, 19):
        defect = "ResourceCapError: growth materialises more than 10^6 paths (exit 3)" if n > 16 else None
        # the number of paths of length n doubles at each step of this ladder;
        # the failing step materialises 300 MB of paths in two seconds, which
        # slows the requests after it and would take two thirds of every pass,
        # so it runs last
        reqs.append(Request(f"rose2/growth{n}", "growth", rose2, ("--n", str(n)), checks=(("growth", n),),
                            series=None if defect else "rose2.growth", size=2 ** n, defect=defect,
                            last=bool(defect)))
    for name, n in (("loop_chain5", 16), ("multi", 8)):
        g = w.add_graph(name, _fixture("g_loop_chain", 5) if name == "loop_chain5" else algebra_graph(name))
        reqs.append(Request(f"{name}/growth{n}", "growth", g, ("--n", str(n)), checks=(("growth", n),)))
    wide = w.add_graph("wide", algebra_graph("wide"))
    reqs.append(Request("wide/eval", "eval", wide, ("--expr", "b[0].b[0]*", "--field", "q")))
    return reqs


FAMILIES = {"verdicts": _verdicts_family, "report": lambda w: [], "symbolic": _symbolic_family}


class SetupError(Exception):
    """The benchmark's inputs cannot be built or verified."""


def build(name: str, seed: int, reference: dict) -> Workload:
    """The request list of one workload for one seed."""
    w = Workload(name, seed)
    w.requests = FAMILIES[name](w)
    rng = random.Random(f"{name}:{seed}")
    for pool, k in PICKS[name].items():
        # stratified: one entry from each of k runs of the pool, which is
        # ordered by the cost recorded at the defining commit, so every seed
        # draws the same spread of costs
        accepted = reference["pools"][pool]
        bounds = [round(j * len(accepted) / k) for j in range(k + 1)]
        for lo, hi in zip(bounds, bounds[1:]):
            i = accepted[rng.randrange(lo, hi)]
            data = generate(pool, i)
            if digest(data) != reference["answers"][f"{pool}.{i}"]:
                raise SetupError(f"pool entry {pool}.{i} differs from the recorded one")
            w.requests += entry_requests(w, pool, i, data)
    for r in w.requests:
        if r.rid in reference["answers"]:
            w.answers[r.rid] = reference["answers"][r.rid]
        elif not r.checks:
            raise SetupError(f"request {r.rid} has neither a reference answer nor a closed form")
    return w


# ---------------------------------------------------------------------------
# Library jobs (looked up through the module namespaces at call time, so the
# tracer's wrappers see them)
# ---------------------------------------------------------------------------


def _context(graph, field: str):
    from leavitt import algebra

    return algebra.AlgebraContext(graph, algebra.RATIONALS if field == "q" else algebra.PrimeField(int(field)))


def _parse(text: str, ctx):
    from leavitt import expressions

    return expressions.parse_expression(text, ctx)


def job_power(graph, field: str, expr: str, k: int):
    """x^k by repeated multiplication."""
    ctx = _context(graph, field)
    x = _parse(expr, ctx)
    y = x
    for _ in range(k - 1):
        y = y * x
    return y.to_obj()


def job_components(graph, field: str, expr: str):
    """The degree components of x^2."""
    from leavitt import algebra

    ctx = _context(graph, field)
    x = _parse(expr, ctx)
    return {str(d): c.to_obj() for d, c in algebra.degree_components(x * x).items()}


def job_chen_sweep(graph, stream: str, exprs):
    """Act with each element in turn on a running vector of the infinite-path
    module, starting from the stream itself."""
    from leavitt import modules

    ctx = _context(graph, "q")
    st = modules.stream_from_obj(graph, json.loads(stream))
    vec = {modules.chen_basis_element(graph, st): ctx.field.one}
    out = []
    for text in exprs:
        vec = modules.chen_act(ctx, _parse(text, ctx), vec) or vec
        out.append(sorted([list(b.prefix.edges), b.tail_index, ctx.field.format(c)] for b, c in vec.items()))
    return out


def job_sv_sweep(graph, vertex: str, basis, exprs):
    """Act with each element in turn on a running vector of the module at an
    infinite emitter, starting from one basis path."""
    from leavitt import graph as graph_mod, modules

    ctx = _context(graph, "q")
    vec = {graph_mod.make_path(graph, list(basis)): ctx.field.one}
    out = []
    for text in exprs:
        vec = modules.sv_act(ctx, vertex, _parse(text, ctx), vec) or vec
        out.append(sorted([p.base, list(p.edges), ctx.field.format(c)] for p, c in vec.items()))
    return out


JOBS = {"power": job_power, "components": job_components, "chen_sweep": job_chen_sweep, "sv_sweep": job_sv_sweep}
