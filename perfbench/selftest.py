"""Self-tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py      # or: python3 perfbench/selftest.py

They check that a corrupted answer counts as a failure, that span self
times add up to the traced wall time, that a seed fixes the request list
byte for byte and a new seed changes only the pooled random requests, and
that ``BENCHMARK.json`` names exactly the metrics ``run.py`` prints.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402


def _bench(workload: str, seed: int = 1, only=None) -> run.Bench:
    w = run.load(workload, seed)
    if only is not None:
        w.requests = [r for r in w.requests if only(r)]
    workdir = HERE.parent / ".bench_build" / "perfbench" / f"selftest-{os.getpid()}"
    return run.Bench(w, workdir)


def teardown_module(module=None):
    shutil.rmtree(HERE.parent / ".bench_build" / "perfbench" / f"selftest-{os.getpid()}", ignore_errors=True)


def _corrupt(bench: run.Bench, rid: str, change) -> tuple[str, str]:
    (r,) = [r for r in bench.w.requests if r.rid == rid]
    status, text = bench.execute(r)
    assert bench.classify(r, (status, text)) == "ok"
    obj = json.loads(text)
    change(obj)
    return bench.classify(r, (status, json.dumps(obj)))


def test_flipped_verdict_is_a_failure():
    bench = _bench("verdicts", only=lambda r: not r.pooled)

    def flip(obj):
        obj["finite"] = not obj["finite"]

    assert _corrupt(bench, "loop_chain25/gk", flip) == "wrong"
    assert _corrupt(bench, "ring125/gk", flip) == "wrong"


def test_changed_coefficient_is_a_failure():
    bench = _bench("symbolic", only=lambda r: r.command in ("eval", "power"))
    evals = [r for r in bench.w.requests if r.command == "eval" and r.pooled]
    powers = [r for r in bench.w.requests if r.command == "power"]

    def cli_coeff(obj):
        obj["terms"][0]["coeff"] = obj["terms"][0]["coeff"] + "1"

    def lib_coeff(obj):
        obj[0]["coeff"] = obj[0]["coeff"] + "1"

    assert _corrupt(bench, evals[0].rid, cli_coeff) == "wrong"
    assert _corrupt(bench, powers[0].rid, lib_coeff) == "wrong"


def test_invalid_witness_is_a_failure():
    bench = _bench("verdicts", only=lambda r: r.command == "gk" and r.pooled)
    for r in bench.w.requests:
        status, text = bench.execute(r)
        obj = json.loads(text)
        if not obj["finite"]:
            obj["witness"] = [obj["witness"][0], obj["witness"][0]]
            assert bench.classify(r, (status, json.dumps(obj))) == "wrong"
            return
    raise AssertionError("no infinite-growth graph among the pooled gk requests")


def test_self_times_sum_to_traced_wall_time():
    bench = _bench("report")
    bench.w.requests = bench.w.requests[:40]
    bench.verify_all()
    tracer = Tracer()
    tracer.install()
    try:
        wall, _, outcomes = bench.run_pass(tracer)
    finally:
        tracer.uninstall()
    assert set(outcomes) == {"ok"}
    total = sum(tracer.self_time)
    assert abs(total - wall) <= 0.02 * wall, (total, wall)
    assert all(s >= 0 for s in tracer.self_time)


def test_seed_fixes_the_request_list():
    for name in ("verdicts", "report", "symbolic"):
        a, b, c = run.load(name, 7), run.load(name, 7), run.load(name, 8)
        assert a.digest() == b.digest()
        fixed = lambda w: [r for r in w.requests if not r.pooled]
        pooled = lambda w: {r.rid for r in w.requests if r.pooled}
        assert fixed(a) == fixed(c)
        assert len(a.requests) == len(c.requests)
        assert pooled(a) != pooled(c)


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    bench = _bench("symbolic", only=lambda r: r.command == "eval")
    bench.verify_all()
    passes = [bench.run_pass()]
    e2e = run.end_to_end(bench, passes, [1.0])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: v["unit"] for k, v in e2e.items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOADS)


if __name__ == "__main__":
    try:
        for name, fn in list(globals().items()):
            if name.startswith("test_"):
                fn()
                print(f"ok  {name}")
    finally:
        teardown_module()
