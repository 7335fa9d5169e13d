"""Answer verification, written independently of the library.

Every response is checked in up to three ways:

* closed forms for the named graph families (loop chains, lines, rings,
  loop chains with a sink);
* an independent path-count DP for ``growth``;
* a digest of the canonical output recorded at the commit that defined the
  benchmark (``reference.json``).

Verdict witnesses are removed before digesting and checked for validity
instead (two distinct simple cycles that reach each other), because the
witness rule may change while the verdict may not.  A check returns ``None``
when the response is right and a one-line reason when it is wrong.
"""

from __future__ import annotations

import hashlib
import json
import re

_ADDRESS_RE = re.compile(r"^(.*?)\[(\d+)\]$")


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Graph helpers over the JSON document (no library types)
# ---------------------------------------------------------------------------


def _bundles(graph: dict) -> dict:
    return {e["id"]: (e["src"], e["dst"], e.get("mult", 1)) for e in graph["edges"]}


def _resolve(bundles: dict, address: str):
    """(src, dst) of a concrete edge address, or None if it does not exist."""
    if address in bundles:
        src, dst, mult = bundles[address]
        return (src, dst) if mult == 1 else None
    m = _ADDRESS_RE.match(address)
    if not m or m.group(1) not in bundles:
        return None
    src, dst, mult = bundles[m.group(1)]
    if mult == 1 or (mult != "omega" and int(m.group(2)) >= mult):
        return None
    return src, dst


def _reach(graph: dict, start) -> set:
    succ: dict = {v: [] for v in graph["vertices"]}
    for e in graph["edges"]:
        succ[e["src"]].append(e["dst"])
    seen = set()
    todo = list(start)
    while todo:
        v = todo.pop()
        if v not in seen:
            seen.add(v)
            todo.extend(succ[v])
    return seen


def _cycle_vertices(bundles: dict, edges) -> list | None:
    """Vertex itinerary of a simple closed walk, or None if it is not one."""
    if not isinstance(edges, list) or not edges:
        return None
    steps = [_resolve(bundles, a) if isinstance(a, str) else None for a in edges]
    if any(s is None for s in steps):
        return None
    for (_, dst), (src, _) in zip(steps, steps[1:] + steps[:1]):
        if dst != src:
            return None
    verts = [src for src, _ in steps]
    return verts if len(set(verts)) == len(verts) else None


def _rotation(edges: list) -> tuple:
    k = min(range(len(edges)), key=lambda i: edges[i])
    return tuple(edges[k:] + edges[:k])


def check_cycle_pair(graph: dict, witness) -> str | None:
    """A non-antisymmetry witness: two distinct simple cycles that reach each other."""
    if not isinstance(witness, list) or len(witness) != 2:
        return f"witness {witness!r} is not a pair of cycles"
    bundles = _bundles(graph)
    verts = [_cycle_vertices(bundles, c) for c in witness]
    if None in verts:
        return f"witness {witness!r} is not a pair of simple cycles"
    if _rotation(witness[0]) == _rotation(witness[1]):
        return "witness cycles are equal"
    if not (_reach(graph, verts[0]) & set(verts[1]) and _reach(graph, verts[1]) & set(verts[0])):
        return "witness cycles do not reach each other"
    return None


# ---------------------------------------------------------------------------
# Canonical outputs: witnesses out, checked separately
# ---------------------------------------------------------------------------


def _strip_gk(graph: dict, obj: dict, problems: list) -> dict:
    obj = dict(obj)
    witness = obj.pop("witness", None)
    if obj.get("finite") is False:
        problem = check_cycle_pair(graph, witness)
        if problem:
            problems.append("gk " + problem)
    return obj


def _strip_fp(graph: dict, obj: dict, problems: list) -> dict:
    obj = dict(obj)
    reasons = []
    for r in obj.get("reasons", []):
        if r.get("code") == "GEQ_NOT_ANTISYMMETRIC":
            r = dict(r)
            problem = check_cycle_pair(graph, r.pop("witness", None))
            if problem:
                problems.append("fp " + problem)
        reasons.append(r)
    obj["reasons"] = reasons
    return obj


def canonical(command: str, graph: dict, obj) -> tuple[object, list[str]]:
    """The output with verdict witnesses (and the version string) removed,
    plus any witness problems found on the way."""
    problems: list[str] = []
    if command == "gk":
        obj = _strip_gk(graph, obj, problems)
    elif command == "fp":
        obj = _strip_fp(graph, obj, problems)
    elif command == "report":
        obj = dict(obj)
        obj.pop("version", None)
        obj["gk"] = _strip_gk(graph, obj["gk"], problems)
        obj["fp"] = _strip_fp(graph, obj["fp"], problems)
    return obj, problems


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def _expect(obj: dict, **want) -> str | None:
    for key, value in want.items():
        if obj.get(key) != value:
            return f"{key} is {obj.get(key)!r}, expected {value!r}"
    return None


def _gk_finite(chain: int):
    def check(graph, obj):
        return _expect(obj, finite=True, longestChain=chain, lowerBound=max(2 * chain - 1, 0))

    return check


def _fp_ok(code: str):
    def check(graph, obj):
        codes = [r.get("code") for r in obj.get("reasons", [])]
        if obj.get("allFinitelyPresented") is not True or codes != [code]:
            return f"fp verdict {obj.get('allFinitelyPresented')!r} {codes!r}, expected True [{code!r}]"
        return None

    return check


def _all_line_points(graph, obj):
    verts = sorted(graph["vertices"])
    return _expect(obj, linePoints=verts, socleVertices=verts)


def _closure_is_everything(graph, obj):
    return _expect(obj, vertices=sorted(graph["vertices"]), breakingVertices=[])


def growth_dims(graph: dict, n: int) -> list[int]:
    """dim V_0..V_n from path counts alone.

    counts[v][l] is the number of paths of length l ending at v, and
    counts[l+1][dst] += mult * counts[l][src].  A normal monomial p q* ends at
    a common range v; pairs whose last two edges are both the special edge of
    a regular vertex w are excluded, and there are counts[w][a-1] *
    counts[w][b-1] of those for every regular w, whichever edge is special.
    """
    verts = list(graph["vertices"])
    counts = {v: [1] for v in verts}
    out_degree = {v: 0 for v in verts}
    for e in graph["edges"]:
        out_degree[e["src"]] += e.get("mult", 1)
    for _ in range(n):
        nxt = {v: 0 for v in verts}
        for e in graph["edges"]:
            nxt[e["dst"]] += e.get("mult", 1) * counts[e["src"]][-1]
        for v in verts:
            counts[v].append(nxt[v])
    regular = [v for v in verts if out_degree[v] > 0]
    per_total = [0] * (n + 1)
    for a in range(n + 1):
        for b in range(n + 1 - a):
            total = sum(counts[v][a] * counts[v][b] for v in verts)
            if a and b:
                total -= sum(counts[w][a - 1] * counts[w][b - 1] for w in regular)
            per_total[a + b] += total
    dims, acc = [], 0
    for x in per_total:
        acc += x
        dims.append(acc)
    return dims


def _growth(n: int):
    def check(graph, obj):
        want = growth_dims(graph, n)
        return None if obj == want else f"growth {obj!r}, expected {want!r}"

    return check


CLOSED_FORMS = {
    "gk_finite": _gk_finite,
    "fp_ok": _fp_ok,
    "all_line_points": lambda: _all_line_points,
    "closure_is_everything": lambda: _closure_is_everything,
    "growth": _growth,
}


def closed_form(name: str, *args):
    return CLOSED_FORMS[name](*args)


def verify(command: str, graph: dict, text: str, checks, want_digest: str | None) -> str | None:
    """None when ``text`` (one JSON document) is a right answer, else why not."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    for name, *args in checks:
        problem = closed_form(name, *args)(graph, obj)
        if problem:
            return problem
    canon, problems = canonical(command, graph, obj)
    if problems:
        return problems[0]
    if want_digest is not None and digest(canon) != want_digest:
        return f"output digest {digest(canon)} differs from the reference {want_digest}"
    return None
