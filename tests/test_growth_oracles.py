"""Growth profiles counted from path counts, checked against the basis
enumeration, a closed form, and the growth verdict."""

from __future__ import annotations

import inspect
import random
from itertools import accumulate

import pytest

from leavitt import AlgebraContext, decide_gk, enumerate_basis, growth_profile
from leavitt.errors import NotSupportedError, ResourceCapError
from leavitt.fixtures import (
    g_clock_omega,
    g_loop_chain,
    g_rose2,
    g_toeplitz,
    random_cyclic_graph,
    random_graph,
)
from leavitt.graph import Edge, Graph, canonical_cycle, cycle_vertices, is_regular


def _widened(rng: random.Random, g: Graph) -> Graph:
    return Graph(g.vertices, [Edge(e.id, e.src, e.dst, rng.choice((1, 2, 3))) for e in g.edges])


def _diffs(xs: list[int]) -> list[int]:
    return [b - a for a, b in zip(xs, xs[1:])]


def _degree(dims: list[int], tail: int = 10) -> int:
    """The order of the highest finite difference that is not eventually
    zero, reading "eventually" as "on the last ``tail`` entries"."""
    d, k = _diffs(dims), 0
    while any(d[-tail:]):
        d, k = _diffs(d), k + 1
    return k


def test_growth_matches_basis_count_with_bundles():
    rng = random.Random(2024)
    checked = 0
    for _ in range(60):
        g = _widened(rng, random_graph(rng, max_vertices=4, max_edges=5))
        n = 4
        try:
            basis = enumerate_basis(g, n, max_basis=50_000)
        except ResourceCapError:
            continue
        dims = growth_profile(g, n)
        assert dims == [sum(1 for m in basis if m.total_length <= k) for k in range(n + 1)]
        checked += any(e.mult > 1 for e in g.edges)
    assert checked > 20


def test_rose2_closed_form():
    n = 64
    t = [1, 4] + [(k + 1) * 2**k - (k - 1) * 2 ** (k - 2) for k in range(2, n + 1)]
    assert growth_profile(g_rose2(), n) == [sum(t[: k + 1]) for k in range(n + 1)]


def test_growth_profile_takes_no_cap():
    assert list(inspect.signature(growth_profile).parameters) == ["g", "n_max"]
    with pytest.raises(ResourceCapError):
        growth_profile(g_clock_omega(), 0)
    with pytest.raises(NotSupportedError):
        growth_profile(g_rose2(), -1)


def test_loop_chain_degree_is_the_gk_lower_bound():
    for d in range(1, 5):
        g = g_loop_chain(d)
        assert _degree(growth_profile(g, 60)) == 2 * d - 1 == decide_gk(g).lower_bound


def test_acyclic_with_loops_degree_within_one_of_the_lower_bound():
    # GKdim = max(2 d1 - 1, 2 d2) (Alahmadi, Alsulami, Jain, Zelmanov 2012),
    # so the degree may exceed the verdict's lower bound 2d - 1 by one
    assert _degree(growth_profile(g_toeplitz(), 60)) == decide_gk(g_toeplitz()).lower_bound + 1 == 2
    rng = random.Random(5)
    for _ in range(300):
        g = _widened(rng, random_graph(rng, max_vertices=8, max_edges=12, acyclic=True))
        loops = [Edge(f"c{v}", v, v) for v in g.vertices if rng.random() < 0.6]
        g = Graph(g.vertices, list(g.edges) + loops)
        verdict = decide_gk(g)
        assert verdict.finite
        assert _degree(growth_profile(g, 60)) - verdict.lower_bound in (0, 1)


def test_growth_is_exponential_when_gk_is_infinite():
    """The profile is no polynomial of degree <= 2|V| (the most a graph with
    finite GK dimension reaches), and it dominates the closed paths spelled
    by the two witness cycles.

    Sharing a vertex u, the witness cycles are two distinct first-return
    paths at u, so distinct words in them are distinct closed paths p at u,
    each a normal monomial p u*.  The sign of a high difference is no test:
    on a periodic SCC the eigenvalues beside the Perron root have the same
    modulus, and their differences grow faster and alternate in sign."""
    rng = random.Random(11)
    checked = 0
    for k in range(200):
        make = random_cyclic_graph if k % 2 else random_graph
        g = _widened(rng, make(rng, max_vertices=7, max_edges=11))
        verdict = decide_gk(g)
        if verdict.finite:
            continue
        n = 60
        dims = growth_profile(g, n)
        d = dims
        for _ in range(2 * len(g.vertices) + 1):
            d = _diffs(d)
        assert any(d[-10:])
        c1, c2 = (canonical_cycle(g, w) for w in verdict.witness)
        assert c1 != c2 and cycle_vertices(g, c1) & cycle_vertices(g, c2)
        words = [1] + [0] * n  # words[m] = words in c1, c2 of total length m
        for m in range(1, n + 1):
            words[m] = sum(words[m - len(c)] for c in (c1, c2) if m >= len(c))
        assert all(dims[m] >= sum(words[: m + 1]) for m in range(n + 1))
        checked += 1
    assert checked > 50


def test_special_edge_is_the_least_address(monkeypatch):
    g = Graph(
        ["a", "b"],
        [Edge("e", "a", "b", 2), Edge("e[", "a", "b"), Edge("f", "b", "a", 12), Edge("f[1", "b", "b")],
    )
    ctx = AlgebraContext(g)
    assert ctx.special == {v: min(g.concrete_out(v)) for v in g.vertices} == {"a": "e[", "b": "f[0]"}
    # the choice reads bundle heads only, never the 10^6 addresses of a bundle
    monkeypatch.setattr(Graph, "concrete_out", None)
    assert AlgebraContext(Graph(["u", "w"], [Edge("b", "u", "w", 10**6)])).special == {"u": "b[0]"}


def _pair_count_profile(ctx: AlgebraContext, n_max: int) -> list[int]:
    """The growth profile as counted before the self-convolution form: a
    double loop over the path lengths (a, b) at each vertex, less the
    pairs that end in the special edge into that vertex."""
    g_ = ctx.graph
    counts = {v: [1] + [0] * n_max for v in g_.vertices}
    for l in range(n_max):
        for e in g_.edges:
            counts[e.dst][l + 1] += e.mult * counts[e.src][l]
    # special_in[v] = the path counts at the sources of the special edges
    # with range v (at most one special edge per source vertex)
    special_in: dict[str, list[list[int]]] = {v: [] for v in g_.vertices}
    for addr in ctx.special.values():
        special_in[g_.dst_of(addr)].append(counts[g_.src_of(addr)])

    per_total = [0] * (n_max + 1)
    for v in g_.vertices:
        cv = counts[v]
        for a in range(n_max + 1):
            for b in range(n_max + 1 - a):
                pairs = cv[a] * cv[b]
                if a >= 1 and b >= 1:
                    for cw in special_in[v]:
                        pairs -= cw[a - 1] * cw[b - 1]
                per_total[a + b] += pairs
    dims = []
    acc = 0
    for n in range(n_max + 1):
        acc += per_total[n]
        dims.append(acc)
    return dims


def _custom_context(rng: random.Random, g: Graph) -> AlgebraContext:
    """A context whose special edges are drawn at random, one per regular vertex."""
    special = {v: rng.choice(g.concrete_out(v)) for v in g.vertices if is_regular(g, v) and rng.random() < 0.7}
    return AlgebraContext(g, special_edges=special)


def test_self_convolution_matches_the_pair_count():
    rng = random.Random(1313)
    custom = 0
    for k in range(2000):
        make = random_cyclic_graph if k % 3 == 0 else random_graph
        g = _widened(rng, make(rng, max_vertices=6, max_edges=10))
        ctx = _custom_context(rng, g) if k % 2 else AlgebraContext(g)
        custom += ctx.special != AlgebraContext(g).special
        n = rng.randint(0, 30)
        assert growth_profile(ctx, n) == growth_profile(g, n) == _pair_count_profile(ctx, n)
    assert custom > 500


def test_basis_counts_do_not_depend_on_the_special_edges():
    rng = random.Random(2718)
    differ = 0
    for _ in range(60):
        g = _widened(rng, random_graph(rng, max_vertices=4, max_edges=5))
        if all(e.mult == 1 for e in g.edges):
            continue
        # the greatest address instead of the least one, at every regular vertex
        other = AlgebraContext(g, special_edges={v: max(g.concrete_out(v)) for v in g.vertices if is_regular(g, v)})
        n = 4
        try:
            by_default, by_other = (enumerate_basis(ctx, n, max_basis=5_000) for ctx in (AlgebraContext(g), other))
        except ResourceCapError:
            continue
        per_length = [[sum(1 for m in basis if m.total_length == k) for k in range(n + 1)] for basis in (by_default, by_other)]
        assert per_length[0] == per_length[1]
        assert list(accumulate(per_length[0])) == growth_profile(g, n)
        differ += by_default != by_other
    assert differ > 20
