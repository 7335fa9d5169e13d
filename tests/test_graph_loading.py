"""Graph loading against the straightforward loader it replaced.

The oracle below is the earlier ``graph_from_obj``, ``Graph.__init__`` and
``_tarjan``, kept as they were except for their names: it built a set and a
sorted tuple per vertex for the successor and predecessor lists, checked
each edge's keys with a new set, and kept an on-stack set in the SCC pass.
On seeded documents, valid and invalid, both loaders must raise the same
first ``SchemaError`` or build equal graphs with equal condensations.

The second oracle, at the end, is the two-pass loader that one validating
pass replaced. It is held to the same rule on seeded documents and on
seeded direct ``Graph(...)`` calls.
"""

from __future__ import annotations

import copy
import random
from operator import attrgetter
from typing import Iterable

import pytest

from leavitt.errors import SchemaError
from leavitt.graph import (
    _EDGE_KEYS,
    OMEGA,
    Condensation,
    Edge,
    Graph,
    Mult,
    _addressed_bundle,
    _tarjan,
    condensation,
    graph_from_obj,
)


class _OracleGraph:
    """The earlier ``Graph.__init__``, with the attributes it filled."""

    def __init__(self, vertices: Iterable[str], edges: Iterable[Edge | tuple]):
        vs = tuple(sorted(vertices))
        if len(set(vs)) != len(vs):
            raise SchemaError("duplicate vertex ids")
        norm = []
        for e in edges:
            if not isinstance(e, Edge):
                e = Edge(*e)
            if not (e.mult is OMEGA or (isinstance(e.mult, int) and e.mult >= 1)):
                raise SchemaError(f"edge {e.id!r}: multiplicity must be a positive integer or omega")
            norm.append(e)
        es = tuple(sorted(norm, key=lambda e: e.id))
        ids = [e.id for e in es]
        if len(set(ids)) != len(ids):
            raise SchemaError("duplicate edge ids")
        if set(ids) & set(vs):
            raise SchemaError("vertex and edge ids must be distinct")
        vset = set(vs)
        for e in es:
            if e.src not in vset or e.dst not in vset:
                raise SchemaError(f"edge {e.id!r} has undeclared endpoint")
        by_id = {e.id: e for e in es}
        # every concrete edge has one address: no edge or vertex id may also
        # be the address of an edge of another bundle
        for kind, xids in (("edge", ids), ("vertex", vs)):
            for xid in xids:
                owner = _addressed_bundle(xid, by_id) if "]" in xid else None
                if owner is not None:
                    raise SchemaError(f"{kind} id {xid!r} is the address of an edge of bundle {owner!r}")
        self.vertices = vs
        self.edges = es
        out: dict[str, list[Edge]] = {v: [] for v in vs}
        inc: dict[str, list[Edge]] = {v: [] for v in vs}
        for e in es:
            out[e.src].append(e)
            inc[e.dst].append(e)
        self._out = {v: tuple(bs) for v, bs in out.items()}
        self._in = {v: tuple(bs) for v, bs in inc.items()}
        self._by_id = by_id
        self._succ = {v: tuple(sorted({e.dst for e in bs})) for v, bs in out.items()}
        self._pred = {v: tuple(sorted({e.src for e in bs})) for v, bs in inc.items()}


def _oracle_graph_from_obj(obj) -> _OracleGraph:
    """Validate a JSON object against the graph schema and build the graph."""
    if not isinstance(obj, dict):
        raise SchemaError("graph document must be a JSON object")
    extra = set(obj) - {"vertices", "edges"}
    if extra:
        raise SchemaError(f"unexpected keys: {sorted(extra)}")
    verts = obj.get("vertices")
    edges = obj.get("edges", [])
    if not isinstance(verts, list) or not all(isinstance(v, str) for v in verts):
        raise SchemaError('"vertices" must be a list of strings')
    if not isinstance(edges, list):
        raise SchemaError('"edges" must be a list')
    built = []
    for item in edges:
        if not isinstance(item, dict):
            raise SchemaError("each edge must be an object")
        extra = set(item) - {"id", "src", "dst", "mult"}
        if extra:
            raise SchemaError(f"edge has unexpected keys: {sorted(extra)}")
        try:
            eid, src, dst = item["id"], item["src"], item["dst"]
        except KeyError as k:
            raise SchemaError(f"edge missing key {k}") from None
        if not all(isinstance(x, str) for x in (eid, src, dst)):
            raise SchemaError("edge id/src/dst must be strings")
        mult = item.get("mult", 1)
        if mult == "omega":
            mult = OMEGA
        elif not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
            raise SchemaError(f"edge {eid!r}: mult must be a positive integer or \"omega\"")
        built.append(Edge(eid, src, dst, mult))
    return _OracleGraph(verts, built)


def _oracle_tarjan(g: _OracleGraph) -> Condensation:
    """Tarjan's SCC algorithm with an explicit stack: O(V + E)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    found: list[list[str]] = []  # SCCs, each after every SCC it reaches
    for root in g.vertices:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(g._succ[root]))]
        while work:
            v, succ = work[-1]
            for w in succ:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(g._succ[w])))
                    break
                if w in on_stack and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == index[v]:
                    scc = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        scc.append(w)
                        if w == v:
                            break
                    found.append(scc)
    n = len(found)
    component = {v: n - 1 - i for i, scc in enumerate(found) for v in scc}
    members = tuple(tuple(sorted(scc)) for scc in reversed(found))
    inner: list[Mult] = [0] * n
    infinite: list[str | None] = [None] * n
    branching = [False] * n
    successors: list[set[int]] = [set() for _ in range(n)]
    for e in g.edges:  # in id order, so an SCC's first infinite bundle is its least
        i, j = component[e.src], component[e.dst]
        # two or more concrete edges leave e.src (an infinite bundle counts)
        if e.mult != 1 or len(g._out[e.src]) > 1:
            branching[i] = True
        if i != j:
            successors[i].add(j)
        elif e.mult is OMEGA:
            inner[i] = OMEGA
            if infinite[i] is None:
                infinite[i] = e.id
        elif inner[i] is not OMEGA:
            inner[i] += e.mult
    return Condensation(
        component,
        members,
        tuple(inner),
        tuple(tuple(sorted(s)) for s in successors),
        tuple(infinite),
        tuple(branching),
    )


# ---------------------------------------------------------------------------
# Seeded documents
# ---------------------------------------------------------------------------

_BAD_MULTS = [0, -1, True, False, 1.5, "x", None, "Omega", [2]]
_BAD_STRINGS = [1, None, ["a"], 2.5]


def _clean(rng: random.Random) -> dict:
    """A document with no fault applied: multi-edges, omega bundles and
    bracketed ids (``b[2]`` is still an address when ``b`` has three edges)."""
    verts = [f"v{i}" for i in range(rng.randint(1, 8))]
    if rng.random() < 0.3:
        verts.append(rng.choice(["x[0]", "x[01]", "w]", "b[01]", "b[x]"]))
    edges = []
    names = rng.sample(["a", "b", "c", "d", "f", "g", "h", "k", "m", "n", "p", "q", "b[2]", "c[00]"], rng.randint(0, 10))
    for eid in names:
        e = {"id": eid, "src": rng.choice(verts), "dst": rng.choice(verts)}
        mult = rng.choice([None, None, 1, 1, 2, 3, "omega"])
        if mult is not None:
            e["mult"] = mult
        edges.append(e)
    rng.shuffle(verts)
    doc = {"vertices": verts, "edges": edges}
    if not edges and rng.random() < 0.5:
        del doc["edges"]
    return doc


def _corrupt(rng: random.Random, doc: dict):
    """One fault of the schema or of the graph, applied in place (or a new
    document when the fault is at the top level)."""
    verts, edges = doc["vertices"], doc.setdefault("edges", [])
    dicts = [e for e in edges if isinstance(e, dict)]
    # faults inside the graph are drawn more often than faults of the document
    kind = rng.choices(range(16), weights=(3, 3, 3, 3, 3, 2, 2, 2, 2, 4, 1, 1, 1, 1, 1, 3))[0]
    if kind == 0 and verts:
        verts.append(rng.choice(verts))  # duplicate vertex id
    elif kind == 1 and dicts:
        e = copy.deepcopy(rng.choice(dicts))
        edges.insert(rng.randint(0, len(edges)), e)  # duplicate edge id
    elif kind == 2 and dicts and verts:
        rng.choice(dicts)["id"] = rng.choice(verts)  # vertex and edge id overlap
    elif kind == 3 and dicts:
        rng.choice(dicts)[rng.choice(["src", "dst"])] = rng.choice(["zz", "a", "b[0]"])  # undeclared
    elif kind == 4 and dicts:
        rng.choice(dicts)["mult"] = rng.choice(_BAD_MULTS)
    elif kind == 5 and dicts:
        rng.choice(dicts)[rng.choice(["weight", "label", "Mult"])] = 1  # extra edge key
    elif kind == 6 and dicts:
        rng.choice(dicts).pop(rng.choice(["id", "src", "dst"]), None)  # missing key
    elif kind == 7 and dicts:
        rng.choice(dicts)[rng.choice(["id", "src", "dst"])] = rng.choice(_BAD_STRINGS)
    elif kind == 8:
        edges.insert(rng.randint(0, len(edges)), rng.choice(["e", 1, None, [], ["e", "v0", "v0"]]))
    elif kind == 9:
        # an address of another bundle's edge as a vertex or an edge id
        b = next((e for e in dicts if isinstance(e.get("id"), str)), None)
        if b is not None:
            b["mult"] = rng.choice([2, 3, "omega"])
            addr = f"{b['id']}[{rng.choice(['0', '1', '01', '2', '10'])}]"
            if rng.random() < 0.5:
                verts.append(addr)
            else:
                edges.append({"id": addr, "src": b.get("src"), "dst": b.get("dst")})
    elif kind == 10:
        doc[rng.choice(["extra", "Vertices", "name"])] = []
    elif kind == 11:
        doc["vertices"] = rng.choice([None, "v0", {"v0": 1}, ["v0", 1], [None]])
    elif kind == 12:
        doc["edges"] = rng.choice([None, "e", {"id": "e"}])
    elif kind == 13:
        del doc["vertices"]
    elif kind == 14:
        return rng.choice([[], "graph", None, 3, [doc]])
    elif kind == 15 and verts:
        # an edge from or to a vertex that only an address of the bundle names
        edges.append({"id": "zz", "src": rng.choice(verts), "dst": "b[1]"})
    return doc


def _documents(seed: int, count: int) -> Iterable[object]:
    rng = random.Random(seed)
    for _ in range(count):
        doc = _clean(rng)
        for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
            if not isinstance(doc, dict) or not isinstance(doc.get("vertices"), list) or not isinstance(doc.get("edges", []), list):
                break
            doc = _corrupt(rng, doc)
        yield doc


def _load(load, doc):
    try:
        return load(copy.deepcopy(doc)), None
    except SchemaError as exc:
        return None, str(exc)


@pytest.mark.parametrize("seed", [1, 2])
def test_loading_matches_the_oracle(seed):
    valid = invalid = 0
    for doc in _documents(seed, 1500):
        g, err = _load(graph_from_obj, doc)
        old, old_err = _load(_oracle_graph_from_obj, doc)
        assert err == old_err, doc
        if err is not None:
            invalid += 1
            continue
        valid += 1
        assert g.vertices == old.vertices, doc
        assert g.edges == old.edges, doc
        assert g._out == old._out and g._in == old._in, doc
        assert g._succ == old._succ, doc
        assert g._by_id == old._by_id, doc
        # the predecessor lists are gone: the incoming bundles give them
        assert {v: tuple(sorted({e.src for e in bs})) for v, bs in g._in.items()} == old._pred, doc
        assert condensation(g) == _oracle_tarjan(old), doc
    # both kinds are well represented
    assert valid >= 400 and invalid >= 400, (valid, invalid)


def test_condensations_match_the_oracle_on_larger_graphs():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(1, 40)
        verts = [f"v{i}" for i in range(n)]
        edges = [
            {"id": f"e{k}", "src": rng.choice(verts), "dst": rng.choice(verts), "mult": rng.choice([1, 1, 2, "omega"])}
            for k in range(rng.randint(0, 3 * n))
        ]
        doc = {"vertices": verts, "edges": edges}
        g = graph_from_obj(doc)
        old = _oracle_graph_from_obj(doc)
        assert g._succ == old._succ
        assert condensation(g) == _oracle_tarjan(old)


# ---------------------------------------------------------------------------
# The two-pass loader
# ---------------------------------------------------------------------------
#
# ``graph_from_obj`` and ``Graph.__init__`` as they were before loading became
# one validating pass, kept as they were except for their names and the class
# docstring: the document loader type-checked each edge, built an ``Edge`` and
# handed the list to the constructor, which type-checked every edge again and
# built the tables in separate passes (the successor lists from the incoming
# bundles).


class _TwoPassGraph:
    """The two-pass ``Graph.__init__``, with the attributes it filled."""

    __slots__ = ("vertices", "edges", "_out", "_in", "_by_id", "_succ", "_scc")

    def __init__(self, vertices: Iterable[str], edges: Iterable[Edge | tuple]):
        # a string is an iterable of letters, not of vertex ids
        if isinstance(vertices, str):
            raise SchemaError(f'"vertices" must be a list of strings, not the string {vertices!r}')
        try:
            vs = tuple(vertices)
        except TypeError:
            raise SchemaError('"vertices" must be a list of strings') from None
        if not all(isinstance(v, str) for v in vs):
            raise SchemaError('"vertices" must be a list of strings')
        vs = tuple(sorted(vs))
        vset = set(vs)
        if len(vset) != len(vs):
            raise SchemaError("duplicate vertex ids")
        try:
            items = iter(edges)
        except TypeError:
            raise SchemaError('"edges" must be a list') from None
        norm = []
        for e in items:
            if not isinstance(e, Edge):
                try:
                    e = Edge(*e)
                except TypeError:
                    raise SchemaError("each edge must be an Edge or an (id, src, dst[, mult]) tuple") from None
            if not (isinstance(e.id, str) and isinstance(e.src, str) and isinstance(e.dst, str)):
                raise SchemaError("edge id/src/dst must be strings")
            m = e.mult
            if not (m is OMEGA or (isinstance(m, int) and not isinstance(m, bool) and m >= 1)):
                raise SchemaError(f"edge {e.id!r}: multiplicity must be a positive integer or omega")
            norm.append(e)
        norm.sort(key=attrgetter("id"))
        es = tuple(norm)
        by_id = {e.id: e for e in es}
        if len(by_id) != len(es):
            raise SchemaError("duplicate edge ids")
        if not vset.isdisjoint(by_id):
            raise SchemaError("vertex and edge ids must be distinct")
        # one pass in id order: the first edge with an undeclared endpoint raises
        out: dict[str, list[Edge]] = {v: [] for v in vs}
        inc: dict[str, list[Edge]] = {v: [] for v in vs}
        for e in es:
            try:
                out[e.src].append(e)
                inc[e.dst].append(e)
            except KeyError:
                raise SchemaError(f"edge {e.id!r} has undeclared endpoint") from None
        # every concrete edge has one address: no edge or vertex id may also
        # be the address of an edge of another bundle
        for kind, xids in (("edge", by_id), ("vertex", vs)):
            for xid in xids:
                owner = _addressed_bundle(xid, by_id) if "]" in xid else None
                if owner is not None:
                    raise SchemaError(f"{kind} id {xid!r} is the address of an edge of bundle {owner!r}")
        # successors in sorted order without a sort: visiting the targets in
        # sorted order appends each to its sources' lists, once per source
        succ: dict[str, list[str]] = {v: [] for v in vs}
        for w in vs:
            for e in inc[w]:
                ws = succ[e.src]
                if not ws or ws[-1] != w:
                    ws.append(w)
        self.vertices = vs
        self.edges = es
        self._out = {v: tuple(bs) for v, bs in out.items()}
        self._in = {v: tuple(bs) for v, bs in inc.items()}
        self._by_id = by_id
        self._succ = {v: tuple(ws) for v, ws in succ.items()}


def _two_pass_graph_from_obj(obj) -> _TwoPassGraph:
    """Validate a JSON object against the graph schema and build the graph."""
    if not isinstance(obj, dict):
        raise SchemaError("graph document must be a JSON object")
    extra = set(obj) - {"vertices", "edges"}
    if extra:
        raise SchemaError(f"unexpected keys: {sorted(extra)}")
    verts = obj.get("vertices")
    edges = obj.get("edges", [])
    if not isinstance(verts, list) or not all(isinstance(v, str) for v in verts):
        raise SchemaError('"vertices" must be a list of strings')
    if not isinstance(edges, list):
        raise SchemaError('"edges" must be a list')
    built = []
    for item in edges:
        if not isinstance(item, dict):
            raise SchemaError("each edge must be an object")
        if not item.keys() <= _EDGE_KEYS:
            raise SchemaError(f"edge has unexpected keys: {sorted(item.keys() - _EDGE_KEYS)}")
        try:
            eid, src, dst = item["id"], item["src"], item["dst"]
        except KeyError as k:
            raise SchemaError(f"edge missing key {k}") from None
        if not (isinstance(eid, str) and isinstance(src, str) and isinstance(dst, str)):
            raise SchemaError("edge id/src/dst must be strings")
        mult = item.get("mult", 1)
        if mult == "omega":
            mult = OMEGA
        elif not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
            raise SchemaError(f"edge {eid!r}: mult must be a positive integer or \"omega\"")
        built.append(Edge(eid, src, dst, mult))
    return _TwoPassGraph(verts, built)


def _assert_same_graph(g, old, case):
    assert g.vertices == old.vertices, case
    assert g.edges == old.edges and all(type(e) is Edge for e in g.edges), case
    assert g._out == old._out and g._in == old._in, case
    assert g._by_id == old._by_id, case
    assert g._succ == old._succ, case
    assert condensation(g) == _tarjan(old), case


@pytest.mark.parametrize("seed", [3, 4])
def test_one_pass_loading_matches_the_two_pass_loader(seed):
    valid = invalid = 0
    for doc in _documents(seed, 1500):
        g, err = _load(graph_from_obj, doc)
        old, old_err = _load(_two_pass_graph_from_obj, doc)
        assert err == old_err, doc
        if err is not None:
            invalid += 1
            continue
        valid += 1
        _assert_same_graph(g, old, doc)
    assert valid >= 400 and invalid >= 400, (valid, invalid)


_ODD_EDGES = [("e", "v0"), ("e", "v0", "v0", 1, 2), 5, None, "ab", "abc", {"id": "e"}, [], ["m", "v0", "v0"]]
_ODD_VERTICES = [1, None, ["v0"], b"v0", 2.5]


def _graph_call(rng: random.Random):
    """The arguments of one direct ``Graph(...)`` call, as a function that
    builds them afresh (a generator is read once): ``Edge`` records and
    tuples with or without a multiplicity, with up to three faults at once,
    some of them wrong types or wrong shapes."""
    doc = _clean(rng)
    verts = list(doc["vertices"])
    edges: list = []
    for e in doc.get("edges", []):
        mult = OMEGA if e.get("mult") == "omega" else e.get("mult", 1)
        fields = (e["id"], e["src"], e["dst"]) + ((mult,) if "mult" in e or rng.random() < 0.5 else ())
        edges.append(Edge(*fields) if rng.random() < 0.5 else fields)
    for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
        kind = rng.choices(range(9), weights=(3, 3, 3, 3, 3, 3, 2, 1, 3))[0]
        # faults of one edge go to an edge with three fields or four
        proper = [k for k, e in enumerate(edges) if isinstance(e, tuple) and 3 <= len(e) <= 4]
        i = rng.choice(proper) if proper else None
        if kind == 0 and verts:
            verts.insert(rng.randint(0, len(verts)), rng.choice(verts))  # duplicate vertex id
        elif kind == 1 and edges:
            edges.insert(rng.randint(0, len(edges)), rng.choice(edges))  # duplicate edge id
        elif kind == 2 and proper and verts:
            edges[i] = (rng.choice(verts),) + tuple(edges[i][1:])  # vertex and edge id overlap
        elif kind == 3 and proper:
            e = tuple(edges[i])
            edges[i] = (e[0], rng.choice([e[1], "zz"]), rng.choice(["zz", "b[1]"])) + e[3:]  # undeclared
        elif kind == 4 and proper:
            edges[i] = Edge(*edges[i][:3], rng.choice(_BAD_MULTS + ["omega", 2.0]))  # bad multiplicity
        elif kind == 5 and proper:
            e = list(edges[i])
            e[rng.randrange(3)] = rng.choice(_BAD_STRINGS)
            edges[i] = Edge(*e) if rng.random() < 0.5 else tuple(e)  # a field of the wrong type
        elif kind == 6:
            edges.insert(rng.randint(0, len(edges)), rng.choice(_ODD_EDGES))  # not an edge
        elif kind == 7:
            verts.insert(rng.randint(0, len(verts)), rng.choice(_ODD_VERTICES))  # not a vertex id
        elif kind == 8 and proper and isinstance(edges[i][0], str):
            # an address of another bundle's edge as a vertex or an edge id
            b = edges[i]
            edges[i] = Edge(*b[:3], rng.choice([2, 3, OMEGA]))
            addr = f"{b[0]}[{rng.choice(['0', '1', '01', '2', '10'])}]"
            if rng.random() < 0.5:
                verts.append(addr)
            else:
                edges.append((addr, b[1], b[2]))
    # the containers themselves: any iterable, or something that is not one
    vform = rng.choice([list] * 8 + [tuple, iter, lambda vs: " ".join(map(str, vs)), lambda vs: None, lambda vs: 5])
    eform = rng.choice([list] * 8 + [tuple, iter, lambda es: None, lambda es: 5])
    return lambda: (vform(list(verts)), eform(list(edges)))


def _construct(cls, args):
    try:
        return cls(*args()), None
    except Exception as exc:
        return None, (type(exc), str(exc))


@pytest.mark.parametrize("seed", [5, 6])
def test_direct_graph_calls_match_the_two_pass_constructor(seed):
    rng = random.Random(seed)
    valid = invalid = 0
    for _ in range(800):
        args = _graph_call(rng)
        g, err = _construct(Graph, args)
        old, old_err = _construct(_TwoPassGraph, args)
        assert err == old_err, args()
        if err is not None:
            assert err[0] is SchemaError, err
            invalid += 1
            continue
        valid += 1
        _assert_same_graph(g, old, args())
    assert valid >= 150 and invalid >= 400, (valid, invalid)
