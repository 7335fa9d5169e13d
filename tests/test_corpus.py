"""The seeded corpus covers every class that the oracle suites draw on."""

from __future__ import annotations

from collections import Counter

from corpus import CLASSES, GRAPHS, tags


def test_every_class_holds_at_least_300_graphs():
    counts = Counter(c for g in GRAPHS for c in tags(g))
    assert all(counts[c] >= 300 for c in CLASSES), counts
