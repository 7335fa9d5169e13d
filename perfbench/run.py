#!/usr/bin/env python3
"""Benchmark of the ``leavitt`` package: one client, closed loop.

    python3 perfbench/run.py --workload verdicts --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The request list of the workload (see
``workloads.py``) is issued in passes: the next request starts only when the
previous one has returned, in one process and one thread.  A first pass
verifies every answer independently (``checks.py``) and warms the process
up; then passes repeat until ``--seconds`` have elapsed, each response being
compared with the verified one and verified again if it differs.

With ``--trace 0`` the last line of stdout is one JSON object with the
end-to-end metrics; with ``--trace 1`` untraced and traced passes alternate
and the object holds the per-layer metrics (``tracer.py``), with the spans
written to ``.bench_build/perfbench/``.  Set-up time is measured in fresh
interpreters that start, import ``leavitt``, build the inputs, write the
graph files and warm up, and exit (``--setup-only``).  Latencies and set-up
times are scaled to the reference speed of a speed probe (``probe.py``), so
that they do not follow the shared machine's swings between a fast and a
slow state.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
MIN_REQUESTS = 100
LAST_PASSES = 2  # timed passes of the ``last`` requests, after the others'
MODULES = ("cli", "graph", "closures", "structure", "algebra", "expressions", "modules")
SCALING = (
    "loop_chain.gk", "loop_chain.filtration_gk", "sink_chain.fp", "line.socle", "line.fp", "line.gk",
    "ring.gk", "ring.closure", "sparse.gk", "sparse.socle", "sparse.closure",
    "dense.report", "dense.corner", "dense.hs-sets", "rose2.growth", "power.x_k",
)
# (metric, unit, better) of the traced run; every value is per pass over the request list
PER_LAYER = [
    ("graph.enumerate_cycles.calls", "count", "lower"),
    ("graph.enumerate_cycles.per_req", "count", "lower"),
    ("graph.enumerate_cycles.cycles_out", "count", "lower"),
    ("graph.enumerate_cycles.self_s", "s", "lower"),
    ("structure.cycle_poset.calls", "count", "lower"),
    ("structure.cycle_poset.self_s", "s", "lower"),
    ("structure.decide_gk.self_s", "s", "lower"),
    ("structure.decide_fp.self_s", "s", "lower"),
    ("structure.filtration.self_s", "s", "lower"),
    ("structure.corner_report.calls", "count", "lower"),
    ("graph.line_points.self_s", "s", "lower"),
    ("graph.vertices_on_closed_paths.self_s", "s", "lower"),
    ("graph.reachable.calls", "count", "lower"),
    ("graph.condition_K.self_s", "s", "lower"),
    ("closures.enumerate_hs_sets.self_s", "s", "lower"),
    ("closures.enumerate_hs_sets.cap_errors", "count", "lower"),
    ("closures.saturated_closure.calls", "count", "lower"),
    ("closures.quotient.calls", "count", "lower"),
    ("graph.graph_from_json.self_s", "s", "lower"),
    ("cli.exit2", "count", "lower"),
    ("cli.exit3", "count", "lower"),
    ("cli.uncaught", "count", "lower"),
    ("algebra.multiply.calls", "count", "lower"),
    ("algebra.multiply.self_s", "s", "lower"),
    ("algebra.multiply.terms_out", "count", "lower"),
    ("algebra.growth_profile.self_s", "s", "lower"),
    ("algebra.growth_profile.cap_errors", "count", "lower"),
    ("algebra.context.self_s", "s", "lower"),
    ("expressions.parse_expression.self_s", "s", "lower"),
    ("modules.chen_act.self_s", "s", "lower"),
    ("modules.sv_act.self_s", "s", "lower"),
    ("modules.act.terms_out", "count", "lower"),
] + [(f"{m}.self_s", "s", "lower") for m in MODULES] + [
    (f"scaling.{s}.exp", "1", "lower") for s in SCALING
] + [("trace.overhead_frac", "ratio", "lower")]


def load(name: str, seed: int) -> workloads.Workload:
    reference = json.loads((HERE / "reference.json").read_text())
    w = workloads.build(name, seed, reference)
    if len(w.requests) < MIN_REQUESTS:
        raise workloads.SetupError(f"{len(w.requests)} requests per pass; at least {MIN_REQUESTS} are needed")
    return w


class Bench:
    """One workload's inputs, written out, with the verified first answers."""

    def __init__(self, w: workloads.Workload, workdir: Path):
        from leavitt import graph_from_obj

        self.w = w
        workdir.mkdir(parents=True, exist_ok=True)
        self.paths, self.lib_graphs = {}, {}
        for key, obj in self.w.graphs.items():
            path = workdir / f"{key}.json"
            path.write_text(json.dumps(obj, sort_keys=True))
            self.paths[key] = str(path)
        for r in self.w.requests:
            if not r.cli and r.graph not in self.lib_graphs:
                self.lib_graphs[r.graph] = graph_from_obj(self.w.graphs[r.graph])
        self.first: list = [None] * len(w.requests)  # (response, outcome) of the verifying pass

    def execute(self, r) -> tuple[str, str]:
        """(status, stdout) of one request; status "0" is an answer."""
        if r.cli:
            from leavitt import cli

            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.main([r.command, self.paths[r.graph], *r.args])
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # a non-LeavittError escaping the CLI is a failure
                    code = f"raised {type(exc).__name__}"
            return str(code), out.getvalue()
        from leavitt.errors import LeavittError

        try:
            obj = workloads.JOBS[r.command](self.lib_graphs[r.graph], *r.args)
        except LeavittError as exc:
            return f"error {type(exc).__name__}", ""
        except Exception as exc:
            return f"raised {type(exc).__name__}", ""
        return "0", json.dumps(obj, sort_keys=True)

    def classify(self, r, response: tuple[str, str]) -> str:
        """"ok", "wrong" or "failed"."""
        status, text = response
        if status != "0":
            return "failed"
        problem = checks.verify(r.command, self.w.graphs[r.graph], text, r.checks, self.w.answers.get(r.rid))
        return "wrong" if problem else "ok"

    def warm_up(self) -> None:
        """One request of each command: the first of its kind in the list."""
        seen = set()
        for r in self.w.requests:
            if (r.command, r.cli) not in seen and r.defect is None:
                seen.add((r.command, r.cli))
                self.execute(r)

    def verify_all(self, last=None) -> None:
        """Issue and verify every request (with ``last``, those whose
        ``Request.last`` equals it)."""
        for i, r in enumerate(self.w.requests):
            if last is None or r.last == last:
                response = self.execute(r)
                self.first[i] = (response, self.classify(r, response))

    def run_pass(self, tracer=None, last=None) -> tuple[float, list, list]:
        """(wall seconds, latency per request, outcome per request).  With
        ``last``, only the requests whose ``Request.last`` equals it are
        issued; the others have latency and outcome None.  Metrics count each
        request of the list once, so this changes when a latency is sampled,
        not the mix.

        Untraced, a speed probe runs before the first request and after each
        one, and each latency is at the probe's reference speed
        (``probe.adjust``); the wall seconds leave the probes out."""
        lats, outcomes = [], []
        probe_s = 0.0
        if tracer:
            request_span, verify_span = tracer.span("bench.request"), tracer.span("bench.verify")
        # every pass starts from the same collector state, whatever the
        # previous pass allocated (the failing growth request makes 10^6 paths)
        gc.collect()
        before = None if tracer else probe.measure()
        t0 = time.perf_counter()
        for i, r in enumerate(self.w.requests):
            if last is not None and r.last != last:
                lats.append(None)
                outcomes.append(None)
            elif tracer:
                tracer.current_request += 1
                with request_span:
                    s = time.perf_counter()
                    response = self.execute(r)
                    lats.append(time.perf_counter() - s)
                with verify_span:
                    outcomes.append(self.outcome(i, r, response))
            else:
                s = time.perf_counter()
                response = self.execute(r)
                lat = time.perf_counter() - s
                outcomes.append(self.outcome(i, r, response))
                after = probe.measure()
                probe_s += after
                lats.append(probe.adjust(lat, before, after))
                before = after
        return time.perf_counter() - t0 - probe_s, lats, outcomes

    def outcome(self, i: int, r, response) -> str:
        first, verdict = self.first[i]
        return verdict if response == first else self.classify(r, response)


def _quantile(values: list[float], q: int) -> float:
    """The q-th 10-quantile (q = 5 is the median)."""
    return statistics.median(values) if q == 5 else statistics.quantiles(values, n=10)[q - 1]


def _slope(points: list[tuple[int, float]]) -> float:
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx if sxx else 0.0


def _typical(passes: list) -> list[float]:
    """Each request's latency: its median over the passes that issued it,
    of latencies already at the probe's reference speed.  The median leaves
    out the samples that a change of the machine's state in mid-request, or
    a probe slowed by an interrupt, scaled wrongly."""
    return [statistics.median(t for t in col if t is not None) for col in zip(*(p[1] for p in passes))]


def _verified(passes: list) -> list[bool]:
    """Per request: answered and verified every time it was issued."""
    return [all(o in ("ok", None) for o in col) for col in zip(*(p[2] for p in passes))]


def end_to_end(bench: Bench, passes: list, setup_samples: list[float]) -> dict:
    lat = _typical(passes)
    verified = _verified(passes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        # one client in a closed loop: throughput is the reciprocal of the mean
        # latency of the verified requests.  A failure is not throughput, and
        # the failing growth request (about 2 s, 300 MB of paths) would be two
        # thirds of symbolic's time while not following the machine's swings
        # as the probe and the other requests do; it shows in ok_frac
        "req_per_s": {"value": sum(verified) / sum(t for t, ok in zip(lat, verified) if ok), "unit": "1/s"},
        "lat_p50_ms": {"value": 1000 * _quantile(lat, 5), "unit": "ms"},
        "lat_p90_ms": {"value": 1000 * _quantile(lat, 9), "unit": "ms"},
        "ok_frac": {"value": sum(verified) / len(verified), "unit": "ratio"},
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def per_layer(bench: Bench, tracer, plain: list, traced: list) -> dict:
    calls, self_s = tracer.totals()
    n = len(traced)
    values = {"trace.overhead_frac": sum(p[0] for p in traced) / sum(p[0] for p in plain) - 1}
    values["graph.enumerate_cycles.per_req"] = calls["graph.enumerate_cycles"] / (n * len(bench.w.requests))
    values["structure.filtration.self_s"] = (self_s["structure.fp_filtration"] + self_s["structure.gk_filtration"]) / n
    for m in MODULES:
        values[f"{m}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(m + ".")) / n
    lat, ok = _typical(plain), _verified(plain)
    for s in SCALING:
        points = [(r.size, t) for r, t, good in zip(bench.w.requests, lat, ok) if r.series == s and good]
        values[f"scaling.{s}.exp"] = _slope(points) if points else 0.0
    out = {}
    for name, unit, _ in PER_LAYER:
        if name not in values:
            span, _, what = name.rpartition(".")
            if what == "calls":
                values[name] = calls[span] / n
            elif what == "self_s":
                values[name] = self_s[span] / n
            else:
                values[name] = tracer.counts[name] / n
        out[name] = {"value": values[name], "unit": unit}
    return out


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up times at the probe's reference speed, like latencies."""
    samples = []
    before = probe.measure()
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        seconds = time.perf_counter() - t0
        after = probe.measure()
        samples.append(probe.adjust(seconds, before, after))
        before = after
    return samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="set up, warm up and exit (timed by the parent)")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "leavitt" / "__init__.py").is_file():
        print(f"perfbench: no leavitt package under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import leavitt

    if Path(leavitt.__file__).resolve().parent != (src / "leavitt").resolve():
        print(f"perfbench: imported leavitt from {leavitt.__file__}, not from {src}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_build" / "perfbench"
    workdir = out_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.setup_only:
            Bench(load(args.workload, args.seed), workdir).warm_up()
            return 0
        for _ in range(3):  # the probe's first runs are slower
            probe.measure()
        setup_samples = [] if args.trace else measure_setup(args.workload, args.seed)
        bench = Bench(load(args.workload, args.seed), workdir)
        bench.verify_all(last=None if args.trace else False)
        deadline = time.perf_counter() + args.seconds
        plain, traced = [], []
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            while not plain or time.perf_counter() < deadline:
                plain.append(bench.run_pass())
                tracer.install()
                try:
                    traced.append(bench.run_pass(tracer))
                finally:
                    tracer.uninstall()
            tracer.write(out_dir / f"trace-{args.workload}.bin")  # the latest run's spans
            metrics = per_layer(bench, tracer, plain, traced)
        else:
            while not plain or time.perf_counter() < deadline:
                plain.append(bench.run_pass(last=False))
            if any(r.last for r in bench.w.requests):
                bench.verify_all(last=True)
                plain += [bench.run_pass(last=True) for _ in range(LAST_PASSES)]
            metrics = end_to_end(bench, plain, setup_samples)
    except workloads.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    timed = [(r, o) for p in plain + traced for r, o in zip(bench.w.requests, p[2]) if o is not None]
    first = [(r, o) for r, (_, o) in zip(bench.w.requests, bench.first)]
    # wrong answers, and failures other than the documented defects, are incorrect
    correct = all(o == "ok" or (o == "failed" and r.defect) for r, o in timed + first)
    # each request of the list is one operation, however many passes issued
    # it, so both counts depend on the seed only and not on the machine's speed
    ok = [f[1] == "ok" and v for f, v in zip(bench.first, _verified(plain + traced))]
    if probe.TIMES:  # which state the machine was in
        print(f"perfbench: median probe {1000 * statistics.median(probe.TIMES):.3f} ms over {len(probe.TIMES)} probes "
              f"(reference {1000 * probe.REFERENCE_S:.2f} ms)", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(ok), "failed": ok.count(False), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
