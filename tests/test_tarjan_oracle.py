"""Every field of the SCC pass against the pass it replaced.

``_previous_tarjan`` below is the earlier ``graph._tarjan``, kept verbatim
except for its name: it kept a separate ``index`` dict, popped every SCC as
a slice of the stack, and sorted the SCCs of two or more vertices after the
DFS.  On the shapes the pass was tuned for (a long line, one-way and two-way
rings, long loop chains) and on every corpus graph (multi-edges, loops,
``omega`` bundles), every field of the ``Condensation``, base and derived,
must have the same type and value.  ``component`` is compared as a
mapping: its iteration order, which no caller reads, now follows ``members``.
"""

from __future__ import annotations

from dataclasses import fields

from corpus import GRAPHS, ring

from leavitt.fixtures import g_line, g_loop_chain, g_loop_chain_with_sink
from leavitt.graph import OMEGA, Condensation, Edge, Graph, Mult, _tarjan


def _previous_tarjan(g: Graph) -> Condensation:
    """Tarjan's SCC algorithm with an explicit stack: O(V + E).

    A vertex is on the stack while it has an index and no SCC yet.  When
    its SCC is popped its index becomes ``done``, which is above every
    low-link, so an edge into a finished SCC lowers nothing.
    """
    succ_of, out = g._succ, g._out
    done = len(g.vertices)
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    found: list[list[str]] = []  # SCCs, each after every SCC it reaches
    for root in g.vertices:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        # a frame: the vertex, its unread successors, its place on the stack
        work = [(root, iter(succ_of[root]), len(stack))]
        stack.append(root)
        while work:
            v, succ, at = work[-1]
            for w in succ:
                i = index.get(w)
                if i is None:
                    index[w] = low[w] = len(index)
                    work.append((w, iter(succ_of[w]), len(stack)))
                    stack.append(w)
                    break
                if i < low[v]:
                    low[v] = i
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == index[v]:
                    scc = stack[at:]
                    del stack[at:]
                    for w in scc:
                        index[w] = done
                    found.append(scc)
    found.reverse()  # now each SCC comes before every SCC it reaches
    n = len(found)
    component = {v: i for i, scc in enumerate(found) for v in scc}
    members = tuple(tuple(scc) if len(scc) == 1 else tuple(sorted(scc)) for scc in found)
    inner: list[Mult] = [0] * n
    infinite: list[str | None] = [None] * n
    branching = [False] * n
    successors: list[list[int]] = [[] for _ in range(n)]
    for eid, src, dst, mult in g.edges:  # in id order, so an SCC's first infinite bundle is its least
        i, j = component[src], component[dst]
        # two or more concrete edges leave src (an infinite bundle counts)
        if mult != 1 or len(out[src]) > 1:
            branching[i] = True
        if i != j:
            successors[i].append(j)
        elif mult is OMEGA:
            inner[i] = OMEGA
            if infinite[i] is None:
                infinite[i] = eid
        elif inner[i] is not OMEGA:
            inner[i] += mult
    succs = tuple(tuple(sorted(set(s))) if len(s) > 1 else tuple(s) for s in successors)
    # the derived fields, each SCC after every SCC it reaches
    cyclic, single, no_exit = [False] * n, [False] * n, [False] * n
    r_single, r_no_exit = [False] * n, [False] * n
    reached = infinite.copy()
    bad = [False] * n  # reaches (or is) an SCC that is cyclic or branching
    depth = [0] * n
    antisymmetric = True
    for i in reversed(range(n)):
        k, succ = inner[i], succs[i]
        cyclic[i] = c = k != 0
        single[i] = s = k == len(members[i])
        no_exit[i] = x = s and not succ
        # what the successors reach: each is done, as it comes later
        rs = rx = rb = False
        least, d = reached[i], 0
        for j in succ:
            rs |= r_single[j]
            rx |= r_no_exit[j]
            rb |= bad[j]
            if depth[j] > d:
                d = depth[j]
            b = reached[j]
            if b is not None and (least is None or b < least):
                least = b
        r_single[i], r_no_exit[i] = s or rs, x or rx
        bad[i] = c or branching[i] or rb
        reached[i] = least
        depth[i] = c + d
        if c and not s:
            antisymmetric = False
    record = object.__new__(Condensation)  # no constructor: every field is written here, past __setattr__
    vars(record).update(
        component=component, members=members, inner_edges=tuple(inner), successors=succs,
        infinite_bundle=tuple(infinite), branching=tuple(branching), cyclic=tuple(cyclic),
        single_cycle=tuple(single), no_exit=tuple(no_exit), depth=tuple(depth),
        reaches_single_cycle=tuple(r_single), reaches_no_exit=tuple(r_no_exit),
        infinite_reached=tuple(reached), antisymmetric=antisymmetric,
        longest_chain=max(depth, default=0) if antisymmetric else None,
        line_points=frozenset(v for i, b in enumerate(bad) if not b for v in members[i]),
    )
    return record


def _assert_same_fields(g: Graph) -> Condensation:
    new, old = _tarjan(g), _previous_tarjan(g)
    for f in fields(Condensation):
        a, b = getattr(new, f.name), getattr(old, f.name)
        assert (type(a), a) == (type(b), b), (g, f.name)
    return new


def test_every_field_matches_on_long_lines_rings_and_loop_chains():
    one_way = ring(1500)
    two_way = Graph(one_way.vertices, one_way.edges + tuple(Edge(f"f{e.id}", e.dst, e.src) for e in one_way.edges))
    for g in (g_line(400), ring(1200), g_loop_chain(200), g_loop_chain_with_sink(21), two_way):
        _assert_same_fields(g)


def test_every_field_matches_on_seeded_graphs():
    loops = multi = omega = singletons = larger = 0
    for g in GRAPHS:
        scc = _assert_same_fields(g)
        loops += any(e.src == e.dst for e in g.edges)
        multi += any(e.mult is not OMEGA and e.mult > 1 for e in g.edges)
        omega += not g.is_row_finite()
        sizes = [len(m) for m in scc.members]
        singletons += sizes.count(1) > 1
        larger += max(sizes, default=0) > 2
    # every kind of graph is well represented: with loops, with multi-edges,
    # with omega bundles, with two singleton SCCs, and with an SCC of three or more
    counts = (loops, multi, omega, singletons, larger)
    assert min(counts) >= 300, counts
