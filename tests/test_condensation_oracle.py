"""The derived fields of a condensation against the cached properties that
the one derivation pass replaced.

``_CachedCondensation`` holds the six fields that ``_tarjan`` fills and the
earlier ``reaches`` helper and twelve ``cached_property`` bodies, kept as
they were except for the class name and docstring, and a ``depth`` property,
the ``longest_chain`` pass without its maximum.  On every corpus graph
(multi-edges, omega bundles, cycle pre-orders that fail antisymmetry, the
empty graph), on a long line, one-way and two-way rings and long loop
chains, every derived field of ``condensation(g)`` must equal the oracle's
property, and the reachability bitsets of ``cycle_poset(g)`` its ``reach``
where the cycles can be listed.  The oracle's ``reaches_cyclic`` and
``minimal``, which the condensation no longer keeps, must read
``depth > 0`` and ``cyclic and depth == 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Mapping, Sequence

from leavitt.errors import InfinitelyManyCyclesError, ResourceCapError
from leavitt.fixtures import g_line, g_loop_chain, g_loop_chain_with_sink
from leavitt.graph import Condensation, Graph, Mult, condensation
from leavitt.structure import cycle_poset

from corpus import GRAPHS, ring, two_way_ring


@dataclass(frozen=True)
class _CachedCondensation:
    """The condensation as it was, with every answer a cached property."""

    component: Mapping[str, int]
    members: tuple[tuple[str, ...], ...]
    inner_edges: tuple[Mult, ...]
    successors: tuple[tuple[int, ...], ...]
    infinite_bundle: tuple[str | None, ...]
    branching: tuple[bool, ...]

    @cached_property
    def cyclic(self) -> tuple[bool, ...]:
        """Per SCC: whether it lies on a closed path."""
        return tuple(k != 0 for k in self.inner_edges)

    @cached_property
    def single_cycle(self) -> tuple[bool, ...]:
        """Per SCC: whether it is one simple cycle (one inner edge per vertex)."""
        return tuple(k == len(vs) for k, vs in zip(self.inner_edges, self.members))

    @cached_property
    def no_exit(self) -> tuple[bool, ...]:
        """Per SCC: whether it is a single cycle that no edge leaves."""
        return tuple(c and not s for c, s in zip(self.single_cycle, self.successors))

    def reaches(self, flags: Sequence[bool]) -> list[bool]:
        """Per SCC: whether it reaches (or is) an SCC whose flag is set."""
        out = list(flags)
        succ = self.successors
        for i in reversed(range(len(out))):
            if not out[i]:
                out[i] = any(out[j] for j in succ[i])
        return out

    @cached_property
    def reaches_cyclic(self) -> list[bool]:
        return self.reaches(self.cyclic)

    @cached_property
    def reaches_single_cycle(self) -> list[bool]:
        return self.reaches(self.single_cycle)

    @cached_property
    def reaches_no_exit(self) -> list[bool]:
        return self.reaches(self.no_exit)

    @cached_property
    def infinite_reached(self) -> list[str | None]:
        """Per SCC: the least id of an infinite bundle inside an SCC that it
        reaches (or is), or None."""
        out = list(self.infinite_bundle)
        succ = self.successors
        for i in reversed(range(len(out))):
            for j in succ[i]:
                if out[j] is not None and (out[i] is None or out[j] < out[i]):
                    out[i] = out[j]
        return out

    @cached_property
    def reach(self) -> tuple[int, ...]:
        """Per SCC: bit ``j`` is set when the SCC reaches SCC ``j`` (or is it)."""
        succ = self.successors
        reach = [0] * len(succ)
        for i in reversed(range(len(succ))):
            bits = 1 << i
            for j in succ[i]:
                bits |= reach[j]
            reach[i] = bits
        return tuple(reach)

    @cached_property
    def antisymmetric(self) -> bool:
        """Whether the cycle pre-order is antisymmetric: every cyclic SCC is
        a single cycle."""
        return all(s for c, s in zip(self.cyclic, self.single_cycle) if c)

    @cached_property
    def longest_chain(self) -> int | None:
        """The number of cycles in a longest strictly descending chain: the
        longest path of the DAG, counting cyclic SCCs (None when the
        pre-order is not antisymmetric)."""
        if not self.antisymmetric:
            return None
        succ = self.successors
        depth = [0] * len(succ)
        for i in reversed(range(len(succ))):
            depth[i] = self.cyclic[i] + max((depth[j] for j in succ[i]), default=0)
        return max(depth, default=0)

    @cached_property
    def depth(self) -> tuple[int, ...]:
        """Per SCC: the cyclic SCCs on a longest path of the DAG from it."""
        succ = self.successors
        depth = [0] * len(succ)
        for i in reversed(range(len(succ))):
            depth[i] = self.cyclic[i] + max((depth[j] for j in succ[i]), default=0)
        return tuple(depth)

    @cached_property
    def minimal(self) -> list[bool]:
        """Per SCC: whether it is cyclic and reaches no other cyclic SCC."""
        r = self.reaches_cyclic
        return [c and not any(r[j] for j in s) for c, s in zip(self.cyclic, self.successors)]

    @cached_property
    def line_points(self) -> frozenset[str]:
        """The vertices of the SCCs that reach no SCC on a closed path or
        with a vertex emitting two or more edges."""
        bad = self.reaches([c or b for c, b in zip(self.cyclic, self.branching)])
        return frozenset(v for i, r in enumerate(bad) if not r for v in self.members[i])


_BASE = [f.name for f in fields(Condensation) if f.init]
_DERIVED = [f.name for f in fields(Condensation) if not f.init]


def _assert_derived_fields(g: Graph) -> _CachedCondensation:
    """Compare the derived fields of ``g``'s condensation with the oracle."""
    scc = condensation(g)
    old = _CachedCondensation(*(getattr(scc, name) for name in _BASE))
    for name in _DERIVED:
        new, want = getattr(scc, name), getattr(old, name)
        if isinstance(want, list):
            want = tuple(want)
        assert (type(new), new) == (type(want), want), (g, name)
    # the two fields that depth replaced
    assert old.reaches_cyclic == [d > 0 for d in scc.depth], g
    assert old.minimal == [c and d == 1 for c, d in zip(scc.cyclic, scc.depth)], g
    return old


def _assert_matches(g: Graph) -> bool:
    """Compare the derived fields of ``g``'s condensation with the oracle,
    and the poset's bitsets where the cycles can be listed; whether they
    could be."""
    old = _assert_derived_fields(g)
    try:
        cp = cycle_poset(g, max_cycles=300)
    except (InfinitelyManyCyclesError, ResourceCapError):
        return False
    assert cp.reach == old.reach, g
    return True


def test_derived_fields_match_the_cached_properties():
    posets = antisymmetric = not_antisymmetric = omega = 0
    for g in GRAPHS:
        posets += _assert_matches(g)
        scc = condensation(g)
        antisymmetric += scc.antisymmetric and any(scc.cyclic)
        not_antisymmetric += not scc.antisymmetric
        omega += not g.is_row_finite()
    # every kind of graph is well represented
    counts = (posets, antisymmetric, not_antisymmetric, omega)
    assert min(counts) >= 300, counts
    assert _assert_matches(Graph([], []))


def test_derived_fields_match_on_a_long_line_and_a_long_ring():
    for g in (g_line(400), ring(1200)):
        assert _assert_matches(g)


def test_derived_fields_match_on_long_loop_chains_and_a_two_way_ring():
    for g in (g_loop_chain(200), g_loop_chain_with_sink(21)):
        assert _assert_matches(g)
    _assert_derived_fields(two_way_ring(1500))  # its 1502 cycles are past the cap
