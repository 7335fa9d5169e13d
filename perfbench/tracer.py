"""Spans around the calls into each ``leavitt`` module, from outside the package.

``Tracer.install`` replaces every public function of every ``leavitt``
module with a timing wrapper, in each module namespace that binds it
(``structure`` and ``cli`` import functions by name), and wraps three
methods: ``Graph.reachable``, ``AlgebraElement.__mul__`` (span
``algebra.multiply``) and ``AlgebraContext.__init__`` (span
``algebra.context``).  ``uninstall`` puts the originals back.

A span is (name, start, end, parent, request id); spans are kept in arrays
in memory and written out by ``write``.  A span's self time is its duration
minus the durations of its direct children; calls are single-threaded and
nested, so the children never overlap.  Counts are read from return values
and exceptions: cycles enumerated, terms produced, cap errors, CLI exits.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from collections import Counter
from time import perf_counter

MODULES = ("graph", "closures", "algebra", "expressions", "modules", "structure", "cli", "fixtures")

# functions that only forward to a wrapped method: their work is already a span
_FORWARDERS = {("algebra", "multiply")}


def _term_count(result) -> int:
    return len(result.terms)


# span name -> (counter suffix, function of the return value)
_OUTPUT_COUNTS = {
    "graph.enumerate_cycles": ("cycles_out", len),
    "algebra.multiply": ("terms_out", _term_count),
    "modules.chen_act": ("act.terms_out", len),
    "modules.sv_act": ("act.terms_out", len),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.counts: Counter = Counter()
        self.current_request = -1
        self._stack: list[list] = []  # [span index, child time]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> list:
        idx = len(self.name_id)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.request.append(self.current_request)
        self.end.append(0.0)
        self.self_time.append(0.0)
        frame = [idx, 0.0]
        self._stack.append(frame)
        self.start.append(perf_counter())
        return frame

    def close(self, frame: list) -> None:
        end = perf_counter()
        idx, child = frame
        self._stack.pop()
        dur = end - self.start[idx]
        self.end[idx] = end
        self.self_time[idx] = dur - child
        if self._stack:
            self._stack[-1][1] += dur

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        tracer, name_id = self, self._intern(name)

        class _Span:
            def __enter__(self):
                self.frame = tracer.open(name_id)

            def __exit__(self, *exc):
                tracer.close(self.frame)

        return _Span()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer, name_id = self, self._intern(name)
        counted = _OUTPUT_COUNTS.get(name)
        from leavitt.errors import ResourceCapError

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            except ResourceCapError:
                tracer.counts[f"{name}.cap_errors"] += 1
                raise
            except Exception:
                if name == "cli.main":
                    tracer.counts["cli.uncaught"] += 1
                raise
            finally:
                tracer.close(frame)
            if counted:
                key, measure = counted
                prefix = name.split(".")[0] if key.startswith("act.") else name
                tracer.counts[f"{prefix}.{key}"] += measure(result)
            if name == "cli.main" and result in (2, 3):
                tracer.counts[f"cli.exit{result}"] += 1
            return result

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        import leavitt
        from leavitt.algebra import AlgebraContext, AlgebraElement
        from leavitt.graph import Graph

        wrapped: dict[int, object] = {}
        namespaces = [leavitt] + [importlib.import_module(f"leavitt.{m}") for m in MODULES]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("leavitt.") or (home, obj.__name__) in _FORWARDERS:
                    continue
                if id(obj) not in wrapped:
                    wrapped[id(obj)] = self._wrap(obj, f"{home}.{obj.__name__}")
                self._patch(ns, attr, wrapped[id(obj)])
        self._patch(Graph, "reachable", self._wrap(Graph.reachable, "graph.reachable"))
        self._patch(AlgebraElement, "__mul__", self._wrap(AlgebraElement.__mul__, "algebra.multiply"))
        self._patch(AlgebraContext, "__init__", self._wrap(AlgebraContext.__init__, "algebra.context"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- results ------------------------------------------------------------

    def totals(self) -> tuple[Counter, Counter]:
        """(calls, self seconds) per span name."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for nid, st in zip(self.name_id, self.self_time):
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += st
        return calls, self_s

    def write(self, path) -> None:
        """Spans as a JSON header line followed by the raw arrays."""
        header = {
            "names": self.names,
            "spans": len(self.name_id),
            "arrays": [["name_id", "H"], ["parent", "i"], ["request", "i"], ["start", "d"], ["end", "d"], ["self", "d"]],
            "counts": dict(self.counts),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.request, self.start, self.end, self.self_time):
                arr.tofile(fh)
