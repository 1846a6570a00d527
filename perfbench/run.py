"""Benchmark of the indstab library: one workload per run, in a fresh interpreter.

    python3 perfbench/run.py --workload queries --seed 3 --seconds 25 --trace 0
    python3 perfbench/run.py                  # every workload, one table

One run imports the library, sets the workload up several times (the median
is ``setup_s``), then runs passes over the workload's operations, one caller
at a time and with jobs=1, until another pass would overrun ``--seconds``.
Every output is checked after the timed region.  With ``--trace 0`` the last
line of stdout is a JSON object holding the end-to-end metrics, every time
corrected for the machine's speed (see speed.py); with ``--trace 1`` the run
makes one untraced and one traced set-up and pass and reports per-layer
metrics instead.  The line before it records the environment, and each run
also writes its result, with its raw timings or the aggregated spans of a
traced run, under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
from speed import Speedometer
from tracing import Sampler, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 15
WORKLOAD_NAMES = ("catalog", "tight8", "scans", "queries")
SUITES = ("stability_bound", "hall", "constructions", "edge_bounds", "erdos_rogers")
# the modules of src/indstab the workloads reach; cli, a thin argparse layer,
# is left out
LAYERS = (
    "graphs", "graph6", "families", "canon", "mis", "stability",
    "enumeration", "erdos_rogers", "verify",
)


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def commit() -> str | None:
    """The checked-out commit, or None outside a git checkout.

    The ceiling keeps git from taking the commit of a repository that merely
    contains this checkout.
    """
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run_pass(workload) -> list[tuple[float, float, object, str | None]]:
    """(start, end, output, error) of each operation of one pass."""
    out = []
    for _, thunk in workload.ops():
        t0 = time.perf_counter()
        try:
            result = thunk()
        except Exception:
            out.append((t0, time.perf_counter(), None, traceback.format_exc()))
            continue
        out.append((t0, time.perf_counter(), result, None))
    return out


def check_pass(workload, results) -> list[str]:
    """Failure messages of one pass, outside any timed region."""
    failures = []
    for index, (_, _, output, error) in enumerate(results):
        if error is None:
            try:
                error = workload.check(index, output)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            failures.append(f"op {index}: {error}")
    return failures


def fresh_import():
    """Import the library and the workloads anew, as a new interpreter would
    once the standard library modules they use are loaded."""
    for name in list(sys.modules):
        if name in ("workloads", "indstab") or name.startswith("indstab."):
            del sys.modules[name]
    return importlib.import_module("workloads")


def timed_setup(name: str, seed: int):
    """The workloads module and the workload of the last of SETUP_REPS
    set-ups, each a fresh import and a construction, and their (start, end)."""
    spans = []
    for _ in range(SETUP_REPS):
        # free the previous set-up's modules, so that they do not count
        # toward peak_rss_mib
        workloads = workload = None
        gc.collect()
        t0 = time.perf_counter()
        workloads = fresh_import()
        workload = workloads.WORKLOADS[name](seed)
        spans.append((t0, time.perf_counter()))
    return workloads, workload, spans


def measure(workload, seconds: float):
    """(start, end, cpu_s, results) of passes until another one would end
    after `seconds`; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        c0 = time.process_time()
        results = run_pass(workload)
        t1 = time.perf_counter()
        passes.append((t0, t1, time.process_time() - c0, results))
        if t1 - start + (t1 - t0) > seconds:
            return passes


def end_to_end(workload, seconds: float, setup_spans, speedometer):
    """End-to-end metrics; every time is corrected to the reference speed."""
    passes = measure(workload, seconds)
    speedometer.stop()
    failures = []
    for *_, results in passes:
        failures += check_pass(workload, results)
    fix = speedometer.corrected
    walls = [fix(t0, t1) for t0, t1, _, _ in passes]
    latencies = sorted(fix(a, b) for *_, results in passes for a, b, _, _ in results)
    attempted = len(latencies)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(fix(a, b, setup=True) for a, b in setup_spans), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "query_p50_ms": (percentile(latencies, 0.50) * 1e3, "ms"),
        "query_p90_ms": (percentile(latencies, 0.90) * 1e3, "ms"),
    }
    # CPU time well below wall time means the process waited for a CPU; the
    # speed is the machine's, relative to the reference machine
    info = {
        "passes": len(passes),
        "pass_s": walls,
        "pass_wall_s": [t1 - t0 for t0, t1, _, _ in passes],
        "pass_cpu_s": [cpu for _, _, cpu, _ in passes],
        "pass_speed": [speedometer.speed(t0, t1) for t0, t1, _, _ in passes],
        "setup_speed": [speedometer.speed(a, b, setup=True) for a, b in setup_spans],
        "speed_samples": len(speedometer.starts),
        "query_samples": attempted,
        "fail_frac": len(failures) / attempted,
    }
    timings = {
        # start, integer loop, both loops, handler
        "reference": list(zip(
            speedometer.starts, speedometer.integer, speedometer.mixed, speedometer.handler
        )),
        "setups": setup_spans,
        "ops": [(a, b) for *_, results in passes for a, b, _, _ in results],
    }
    return attempted, failures, metrics, info, timings


def traced(cls, workload, seed: int, modules, extra):
    """One untraced and one traced set-up plus pass; per-layer metrics."""
    t0 = time.perf_counter()
    cls(seed)
    plain = run_pass(workload)
    untraced_s = time.perf_counter() - t0

    callers = {"workloads": "bench"}
    files = {mod.__file__: callers.get(mod.__name__, tracing.layer_of(mod.__name__)) for mod in modules}
    files.update({__file__: "bench", tracing.__file__: "trace"})
    tracer = Tracer()
    sampler = Sampler(tracer, files)
    tracer.install(modules, "indstab", extra, callers)
    sampler.start()
    try:
        t0 = time.perf_counter()
        with tracer.span("bench", "setup"):
            traced_workload = cls(seed)
        with tracer.span("bench", "pass"):
            results = run_pass(traced_workload)
        traced_s = time.perf_counter() - t0
    finally:
        sampler.stop()
        tracer.uninstall()

    failures = check_pass(workload, plain) + check_pass(traced_workload, results)
    spans = tracer.spans()
    samples = sampler.records()
    metrics = layer_metrics(spans, samples, traced_s, untraced_s)
    attempted = len(plain) + len(results)
    info = {"fail_frac": len(failures) / attempted, "traced_s": traced_s}
    return attempted, failures, metrics, info, {"spans": spans, "samples": samples}


def layer_metrics(spans: list[dict], samples: list[dict], traced_s: float, untraced_s: float) -> dict:
    """The per-layer metrics from aggregated spans and the sampler's counts."""

    def total(field, layer=None, function=None, caller=None, cross=False):
        return sum(
            s[field]
            for s in spans
            if (layer is None or s["layer"] == layer)
            and (function is None or s["function"] == function)
            and (caller is None or s["caller"] == caller)
            and not (cross and s["caller"] == s["layer"])
        )

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for layer in LAYERS + ("bench",):
        m[f"{layer}.self_s"] = (total("self_s", layer), "s")
        if layer != "bench":
            m[f"{layer}.calls"] = (total("calls", layer, cross=True), "count")
    # _pack only serialises a code; the canonical searches are the other calls
    searches = m["canon.calls"][0] - total("calls", "canon", "_pack")
    m["canon.calls"] = (searches, "count")
    m["canon.us_per_call"] = (ratio(m["canon.self_s"][0], searches) * 1e6, "us")
    for fn in ("alpha_at_least", "alpha_mask"):
        m[f"mis.{fn}.calls"] = (total("calls", "mis", fn), "count")
        m[f"mis.{fn}.self_s"] = (total("self_s", "mis", fn), "s")
    m["mis.alpha_at_least.hit_ratio"] = (
        ratio(total("true_results", "mis", "alpha_at_least"), m["mis.alpha_at_least.calls"][0]),
        "ratio",
    )
    m["stability.mis_calls_per_scan"] = (
        ratio(total("calls", "mis", caller="stability"), m["stability.calls"][0]),
        "ratio",
    )
    m["enumeration.expand_calls"] = (total("calls", "enumeration", "_expand"), "count")
    classes = total("items", "enumeration", "_expand")
    m["enumeration.classes_out"] = (classes, "count")
    m["enumeration.accept_ratio"] = (
        ratio(classes, total("calls", "canon", "_search", "enumeration")),
        "ratio",
    )
    m["verify.enumerate_calls"] = (
        total("calls", "enumeration", "enumerate_graphs", "verify"),
        "count",
    )
    for suite in SUITES:
        m[f"verify.{suite}_s"] = (total("total_s", "verify", f"suite_{suite}"), "s")
    m["trace.overhead_ratio"] = (ratio(traced_s, untraced_s), "ratio")
    # the share of samples in which the module running is not the layer its
    # innermost span charges, the tracer's own samples apart
    wrong = sum(r["samples"] for r in samples if r["module"] not in (r["charged"], "trace"))
    m["trace.unaccounted_s"] = (traced_s * ratio(wrong, sum(r["samples"] for r in samples)), "s")
    return m


def run_one(args) -> int:
    if not (ROOT / "src" / "indstab").is_dir():
        print(f"error: no indstab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    load_start = loadavg()
    speedometer = Speedometer()
    if not args.trace:
        speedometer.start()
    try:
        # the first import also loads the standard library modules the
        # library uses, once per process; it is recorded, not a metric
        t0 = time.perf_counter()
        fresh_import()
        first_import_s = time.perf_counter() - t0

        workloads, workload, setup_spans = timed_setup(args.workload, args.seed)
        cls = workloads.WORKLOADS[args.workload]
        if args.trace:
            modules = [importlib.import_module(f"indstab.{name}") for name in LAYERS]
            enumeration = modules[LAYERS.index("enumeration")]
            verify = modules[LAYERS.index("verify")]
            extra = [(enumeration, "_expand")] + [(verify, f"suite_{s}") for s in SUITES]
            modules.append(workloads)
            attempted, failures, metrics, info, detail = traced(
                cls, workload, args.seed, modules, extra
            )
        else:
            attempted, failures, metrics, info, detail = end_to_end(
                workload, args.seconds, setup_spans, speedometer
            )
    finally:
        speedometer.stop()
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "takes_seed": cls.takes_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "loadavg_start": load_start,
        "loadavg_end": loadavg(),
        "first_import_wall_s": first_import_s,
        **info,
    }
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {"env": env, "result": result, "failures": failures, "detail": detail}
    (out / name).write_text(json.dumps(record, indent=1) + "\n")
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own interpreter, printed as one table."""
    summary = {}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary[name] = result
        print(f"{name}: attempted {result['attempted']}, "
              f"fail_frac {result['failed'] / result['attempted']:g}")
        for metric, value in result["metrics"].items():
            print(f"  {metric:36s} {value['value']:14.6g} {value['unit']}")
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
