#!/usr/bin/env python3
"""Write ``reference.json``: the accepted pool entries and reference answers.

    python3 perfbench/record.py

Run from the root of a checkout, and only at the commit that defines the
benchmark: the answers recorded here are what every later commit is checked
against.  For each pool it generates entries 0, 1, 2, ... and accepts an
entry when its graph has few enough simple cycles for a request to stay
well under a second, its x^12 has a bounded number of terms, and the
library answers every request the entry makes.  Accepted entries are listed
by their cost here (the sum of each request's better of two latencies),
which ``workloads.build`` stratifies on; the cost is recorded once, at this
commit, and no later commit's speed changes which entries a seed draws.  Family requests are recorded too; they must meet their
closed forms, and only the documented defects may fail.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from run import Bench  # noqa: E402

MAX_CYCLES = {"sparse": 64, "dense": 48, "layered": 48}
POWER_TERMS = {6: (0, 200), 12: (40, 800)}  # x^12 neither collapses nor takes a second


def answer(bench: Bench, r) -> tuple[str | None, str, float]:
    """(digest of the canonical answer or None if the request failed, the
    answer, the better of two latencies in seconds)."""
    t0 = time.perf_counter()
    status, text = bench.execute(r)
    dt = time.perf_counter() - t0
    if status != "0":
        return None, text, dt
    problem = checks.verify(r.command, bench.w.graphs[r.graph], text, r.checks, None)
    if problem:
        raise SystemExit(f"{r.rid}: {problem}")
    canon, _ = checks.canonical(r.command, bench.w.graphs[r.graph], json.loads(text))
    t0 = time.perf_counter()
    bench.execute(r)
    return checks.digest(canon), text, min(dt, time.perf_counter() - t0)


def prefilter(pool: str, data: dict) -> bool:
    kind = pool.rstrip("0123456789")
    if kind not in MAX_CYCLES:
        return True
    from leavitt import enumerate_cycles, graph_from_obj
    from leavitt.errors import ResourceCapError

    try:
        enumerate_cycles(graph_from_obj(data["graph"]), MAX_CYCLES[kind])
    except ResourceCapError:
        return False
    return True


def main() -> int:
    workdir = HERE.parent / ".bench_build" / "perfbench" / f"record-{os.getpid()}"
    answers: dict[str, str] = {}
    pools: dict[str, list[int]] = {}
    times: list[tuple[float, str]] = []
    try:
        for name in workloads.WORKLOADS:
            w = workloads.Workload(name, 0)
            w.requests = workloads.FAMILIES[name](w)
            bench = Bench(w, workdir)
            for r in w.requests:
                got, _, dt = answer(bench, r)
                times.append((dt, r.rid))
                if got is None and not r.defect:
                    raise SystemExit(f"{r.rid} failed")
                if got is not None:
                    answers[r.rid] = got
        for pool in sorted({p for picks in workloads.PICKS.values() for p in picks}):
            accepted: list[tuple[float, int]] = []  # (seconds, index)
            i = 0
            while len(accepted) < workloads.POOL_SIZES.get(pool, 48):
                data = workloads.generate(pool, i)
                if prefilter(pool, data):
                    w = workloads.Workload(pool, 0)
                    w.requests = workloads.entry_requests(w, pool, i, data)
                    bench = Bench(w, workdir)
                    got, cost = {}, 0.0
                    for r in w.requests:
                        got[r.rid], text, dt = answer(bench, r)
                        times.append((dt, r.rid))
                        cost += dt
                        if got[r.rid] is None:
                            break
                        low, high = POWER_TERMS.get(r.args[-1], (0, 10**9)) if r.command == "power" else (0, 10**9)
                        if not low <= len(json.loads(text)) <= high:
                            break
                    else:
                        accepted.append((cost, i))
                        answers[f"{pool}.{i}"] = checks.digest(data)
                        answers.update(got)
                i += 1
            pools[pool] = [i for _, i in sorted(accepted)]
            print(f"{pool}: accepted {len(accepted)} of {i} candidates", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for dt, rid in sorted(times)[-12:]:
        print(f"{dt:8.3f} s  {rid}", file=sys.stderr)
    doc = {"pools": pools, "answers": dict(sorted(answers.items()))}
    (HERE / "reference.json").write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
