"""Parent-against-change harness shared by the bench scripts.

A bench script is a docstring, a case list and `measure(case) -> dict`, run
from its `main` through `parse_args` and `run`.  `measure` runs in a fresh
interpreter per measurement, `python SCRIPT --one CASE` with PYTHONPATH set
to one side's src/, and returns the timed metric, any other numeric fields,
the `result` and, optionally, the `counters`.  A per-call script hands its
call to `per_call`, which counts the first call and reports `us_per_call`;
the others time one call themselves, in `seconds`, with the counters on.
Either way `count_calls` counts, and `per_call` puts the real functions
back before it times.

The side that runs first alternates from pair to pair.  Each side's result
and counters must repeat on every run, and the sides' results must agree;
the run stops otherwise.  Each case also records `change_faster_pairs` and
`change_over_parent`, the quartiles of the pairs' change/parent ratios
(none for a pair whose parent reads 0): a pair's two runs are back to back,
so its ratio follows the host's speed swings less than the medians do.
The document is rewritten after every case.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

SIDES = ("parent", "change")
MIN_SECONDS, MIN_CALLS = 0.5, 3


def count_calls(counts: dict, key: str, module, name: str, test=None) -> None:
    """Rebind module.name to count its calls (those passing `test`) in counts[key]."""
    real = getattr(module, name)

    def call(*args):
        if test is None or test(args):
            counts[key] += 1
        return real(*args)

    setattr(module, name, call)


def per_call(op, targets: list) -> dict:
    """Count op's first call, then time op with the real functions back: the
    median over at least MIN_CALLS calls and MIN_SECONDS.  Each of `targets`
    is count_calls' (key, module, name[, test]).  Returns `us_per_call`, the
    first call's `result` and the `counters`."""
    counts = {key: 0 for key, *_ in targets}
    real = [(module, name, getattr(module, name)) for _, module, name, *_ in targets]
    for key, module, name, *test in targets:
        count_calls(counts, key, module, name, *test)
    try:
        result = op()
    finally:
        for module, name, fn in real:
            setattr(module, name, fn)
    times: list[float] = []
    while sum(times) < MIN_SECONDS or len(times) < MIN_CALLS:
        t = time.perf_counter()
        op()
        times.append(time.perf_counter() - t)
    return {
        "us_per_call": round(statistics.median(times) * 1e6, 1),
        "result": result,
        "counters": counts,
    }


def parse_args(doc: str, out: str, **extra: int) -> argparse.Namespace:
    """PARENT_SRC, --pairs, --out, --one, and one int option per `extra` (its default)."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("parent_src", nargs="?")
    ap.add_argument("--pairs", type=int, default=5)
    for name, default in extra.items():
        ap.add_argument("--" + name.replace("_", "-"), type=int, default=default)
    ap.add_argument("--out", default=out)
    ap.add_argument("--one", metavar="CASE", help="measure one case, a JSON list, and print it")
    args = ap.parse_args()
    if not args.one and not args.parent_src:
        ap.error("PARENT_SRC is required")
    return args


def _measure(script: str, src: str, case: tuple) -> dict:
    out = subprocess.run(
        [sys.executable, script, "--one", json.dumps(case)],
        env=dict(os.environ, PYTHONPATH=src), check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out)


def _metric(run: dict) -> str:
    return "us_per_call" if "us_per_call" in run else "seconds"


def _quartiles(xs: list) -> dict:
    # the inclusive method keeps the quartiles within the values; the default
    # extrapolates past two of them
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else (xs[0],) * 3
    return {"median": round(med, 3), "q1": round(q1, 3), "q3": round(q3, 3)}


def _summary(runs: list[dict]) -> dict:
    first = runs[0]
    for r in runs[1:]:
        if (r["result"], r.get("counters")) != (first["result"], first.get("counters")):
            raise SystemExit(f"runs disagree: {first} vs {r}")
    metric = _metric(first)
    xs = [r[metric] for r in runs]
    out = {metric: {**_quartiles(xs), "runs": xs}}
    for key, value in first.items():
        if key in ("result", "counters"):
            out[key] = value
        elif key != metric:
            out[key] = [r[key] for r in runs]
    return out


def run(script: str, measure, args: argparse.Namespace, plan: list, check=None) -> None:
    """Print measure(--one) here, or run each (case, pairs) of `plan` into args.out.

    The document's label is the name of args.out without `BENCH_` and
    `.json`.  `check(case, entry, doc)`, if given, sees each case's entry
    after the common gates, before the document is written, and may stop the
    run or add to the document.
    """
    if args.one:
        print(json.dumps(measure(json.loads(args.one))))
        return
    here = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(script))), "src")
    src = {"parent": os.path.abspath(args.parent_src), "change": here}
    options = [f"--{k.replace('_', '-')} {v}" for k, v in vars(args).items()
               if k not in ("parent_src", "out", "one")]
    doc = {
        "label": os.path.basename(args.out).removeprefix("BENCH_").removesuffix(".json"),
        "host": f"{os.cpu_count()} CPUs, Python {platform.python_version()}",
        "command": " ".join([f"python bench/{os.path.basename(script)} PARENT_SRC", *options]),
        "cases": {},
    }
    for case, pairs in plan:
        if not pairs:
            continue
        runs = {side: [] for side in SIDES}
        readings = []  # (parent, change) per pair
        for i in range(pairs):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                runs[side].append(_measure(script, src[side], case))
            last = {side: r[-1][_metric(r[-1])] for side, r in runs.items()}
            readings.append((last["parent"], last["change"]))
            print(case, i, last, file=sys.stderr)
        entry = {side: _summary(r) for side, r in runs.items()}
        if entry["parent"]["result"] != entry["change"]["result"]:
            raise SystemExit(f"{case}: the sides disagree")
        entry["change_faster_pairs"] = f"{sum(c < p for p, c in readings)} of {pairs}"
        ratios = [c / p for p, c in readings if p]
        entry["change_over_parent"] = _quartiles(ratios) if ratios else None
        if check:
            check(case, entry, doc)
        doc["cases"][" ".join(map(str, case))] = entry
        with open(args.out, "w", encoding="utf-8") as fh:  # after every case
            json.dump(doc, fh, indent=1)
            fh.write("\n")
