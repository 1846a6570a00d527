"""Tests of the benchmark itself: inputs, the correctness gate and the tracer.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from indstab.mis import MisResult  # noqa: E402
from speed import INTEGER_S, MIXED_S, Speedometer  # noqa: E402
from tracing import Sampler, Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_names_agree_with_benchmark_json():
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [w["why"] for w in BENCH["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    assert run.SUITES == workloads.Catalog.SUITES


def test_queries_inputs_follow_the_seed():
    a = "\n".join(workloads.Queries.make_inputs(5)).encode()
    assert a == "\n".join(workloads.Queries.make_inputs(5)).encode()
    assert a != "\n".join(workloads.Queries.make_inputs(6)).encode()
    assert len(workloads.Queries.make_inputs(5)) == 131


def test_injected_wrong_answer_raises_fail_frac(monkeypatch):
    workload = workloads.Queries(1)
    workload.inputs = workload.inputs[:4]
    attempted, failures, metrics, info, _ = run.end_to_end(
        workload, 0, [(0, 0)], Speedometer()
    )
    assert attempted == 4 and not failures and info["fail_frac"] == 0
    assert list(metrics) == [m["name"] for m in BENCH["end_to_end"]]

    real = workloads.max_independent_set

    def wrong(g):
        result = real(g)
        return MisResult(result.alpha, result.witness & (result.witness - 1))

    monkeypatch.setattr(workloads, "max_independent_set", wrong)
    workload = workloads.Queries(1)
    workload.inputs = workload.inputs[:4]
    attempted, failures, _, info, _ = run.end_to_end(
        workload, 0, [(0, 0)], Speedometer()
    )
    assert len(failures) == attempted == 4
    assert info["fail_frac"] == 1.0


def test_pinned_scan_answer_is_enforced():
    scans = workloads.Scans.__new__(workloads.Scans)
    assert scans.check(0, True) is None
    assert scans.check(0, False) is not None
    assert scans.check(2, 1) is not None


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


def _module(name, source, **names):
    mod = types.ModuleType(name)
    vars(mod).update(names)
    exec(compile(source, f"<{name}>", "exec"), vars(mod))
    return mod


def test_self_time_of_nested_calls():
    clock = FakeClock()
    tick = clock.tick
    leaf = _module(
        "fake.leaf",
        "def leaf():\n    tick(2)\n    return True\n"
        "def gen():\n    tick(1)\n    yield 1\n    tick(2)\n    yield 2\n    tick(4)\n",
        tick=tick,
    )
    mid = _module(
        "fake.mid",
        "def middle():\n"
        "    tick(1)\n    leaf()\n    tick(3)\n    leaf()\n"
        "    for _ in gen():\n        tick(10)\n"
        "    return [1, 2]\n",
        tick=tick, leaf=leaf.leaf, gen=leaf.gen,
    )
    top = _module(
        "fake.top", "def top():\n    tick(5)\n    middle()\n    tick(7)\n",
        tick=tick, middle=mid.middle,
    )
    tracer = Tracer(clock=clock)
    tracer.install([top, mid], "fake")
    with tracer.span("bench", "root"):
        top.top()
    tracer.uninstall()
    assert vars(mid)["leaf"] is leaf.leaf and vars(top)["middle"] is mid.middle

    got = {(s["layer"], s["function"]): s for s in tracer.spans()}
    assert got[("leaf", "leaf")]["calls"] == 2
    assert got[("leaf", "leaf")]["self_s"] == 4
    assert got[("leaf", "leaf")]["true_results"] == 2
    assert got[("leaf", "gen")]["calls"] == 1
    assert got[("leaf", "gen")]["self_s"] == 7
    assert got[("leaf", "gen")]["items"] == 2
    # middle: 1 + 2 + 3 + 2 + 7 + 2 * 10 = 35, of which leaf and gen cover 11
    assert got[("mid", "middle")]["total_s"] == 35
    assert got[("mid", "middle")]["self_s"] == 24
    assert got[("mid", "middle")]["caller"] == "top"
    assert got[("bench", "root")]["total_s"] == 47
    assert got[("bench", "root")]["self_s"] == 12
    assert sum(s["self_s"] for s in tracer.spans()) == 47


def test_sampler_finds_work_the_spans_charge_to_another_layer():
    tracer = Tracer()
    sampler = Sampler(tracer, {})
    helper = _module(
        "fake.helper", "def helper():\n    sample(sys._getframe())\n",
        sample=sampler.sample, sys=sys,
    )
    mid = _module(
        "fake.mid",
        "def middle():\n    sample(sys._getframe())\n    helper()\n",
        sample=sampler.sample, sys=sys, helper=helper.helper,
    )
    sampler.files = {
        mid.middle.__code__.co_filename: "mid",
        helper.helper.__code__.co_filename: "helper",
    }
    with tracer.span("mid", "middle"):
        mid.middle()
    sampler.sample(sys._getframe())
    assert sampler.counts == {("mid", "mid"): 1, ("helper", "mid"): 1, ("other", "-"): 1}


def test_speed_correction():
    clock = FakeClock()
    # the machine runs at half the reference speed: each loop takes twice
    # its reference time
    loops = (
        lambda: clock.tick(2 * INTEGER_S),
        lambda: clock.tick(2 * (MIXED_S - INTEGER_S)),
    )
    speedometer = Speedometer(clock=clock, loops=loops)
    for _ in range(3):
        clock.tick(0.05)
        speedometer.tick()
    a = speedometer.starts[0] - 0.01
    b = clock()
    # b - a spans 0.11 s of work and the three handler calls
    for setup in (False, True):
        assert abs(speedometer.speed(a, b, setup) - 0.5) < 1e-12
        assert abs(speedometer.corrected(a, b, setup) - 0.055) < 1e-12
    assert Speedometer().corrected(1.0, 3.0) == 2.0


def test_layer_metrics_from_spans_and_samples():
    spans = [
        {"layer": "bench", "function": "pass", "caller": "-", "calls": 1,
         "total_s": 10.0, "self_s": 1.0, "true_results": 0, "items": 0},
        {"layer": "stability", "function": "is_stable", "caller": "bench", "calls": 2,
         "total_s": 9.0, "self_s": 3.0, "true_results": 2, "items": 0},
        {"layer": "mis", "function": "alpha_at_least", "caller": "stability", "calls": 8,
         "total_s": 6.0, "self_s": 6.0, "true_results": 6, "items": 0},
    ]
    samples = [
        {"module": "mis", "charged": "mis", "samples": 60},
        {"module": "graphs", "charged": "stability", "samples": 10},
        {"module": "trace", "charged": "mis", "samples": 5},
        {"module": "stability", "charged": "stability", "samples": 25},
    ]
    metrics = run.layer_metrics(spans, samples, 10.5, 7.0)
    assert [(k, u) for k, (_, u) in metrics.items()] == [
        (m["name"], m["unit"]) for m in BENCH["per_layer"]
    ]
    m = {k: v for k, (v, _) in metrics.items()}
    assert m["stability.mis_calls_per_scan"] == 4
    assert m["mis.alpha_at_least.hit_ratio"] == 0.75
    assert m["trace.overhead_ratio"] == 1.5
    assert m["trace.unaccounted_s"] == 1.05


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *cmd[1:], "--workload", "scans", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
