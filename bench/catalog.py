"""Catalog level bench: writes BENCH_catalog_levels.json.

    python bench/catalog.py PARENT_SRC [--pairs 5] [--out BENCH_catalog_levels.json]

PARENT_SRC is the src/ directory of a checkout of the commit to compare
against; this checkout's src/ is the change.  Every measurement runs in a
fresh interpreter, once per side per pair, and the side that runs first
alternates from pair to pair.  Measured, all serial:

- "count 9": count_graphs(9);
- "facts 8": catalog_facts of VerifyConfig(max_n=8, jobs=1) with every
  suite but uniqueness, the catalog pass of the verify run;
- "tight 8 2 0": search_tight_stable(8, 2, 0), the tight8 workload's search;
- "alphas N": subset_alphas on 200 G(N, 1/2) graphs from a fixed seed, at
  N = 8 and 9, in microseconds per call (best of 5 sweeps).

For the first three: wall seconds, the peak RSS of the process, and the
work counters.  `expand_roots` counts the root partitions _expand computes
itself, and `root_refinements` adds the canonical searches enumeration
starts without a root, which compute their own.  `refine_calls` counts
every run of canon._refine (the parent's _expand called it directly),
`searches` the calls to enumeration._search and `leaves` those to
canon._leaf_code.  Each side's counts and answers must
repeat exactly on every run, and the answers (class counts and digests) and
the searches and leaves must agree between the sides; the script stops
otherwise.  The serial count_graphs(10) time is projected from "count 9" by
the class counts, 12,005,168 / 274,668; it is a projection, not a run.
One measurement alone, in this interpreter, prints its JSON line:

    PYTHONPATH=SRC python bench/catalog.py --one '["count", 9]'
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

CASES = [("count", 9), ("facts", 8), ("tight", 8, 2, 0), ("alphas", 8), ("alphas", 9)]
CLASSES_9, CLASSES_10 = 274_668, 12_005_168


def _count_calls(counts: dict, key: str, module, name: str, test=None) -> None:
    """Rebind module.name to count its calls (those passing `test`) in counts[key]."""
    real = getattr(module, name)

    def call(*args):
        if test is None or test(args):
            counts[key] += 1
        return real(*args)

    setattr(module, name, call)


def _alphas(n: int) -> dict:
    from indstab.mis import subset_alphas

    rng = random.Random(n)
    graphs = []
    for _ in range(200):
        adj = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        graphs.append(tuple(adj))
    digest = hashlib.sha256(bytes(x for a in graphs for x in subset_alphas(a, n)))
    best = float("inf")
    for _ in range(5):
        t = time.perf_counter()
        for a in graphs:
            subset_alphas(a, n)
        best = min(best, time.perf_counter() - t)
    return {"us_per_call": round(best / len(graphs) * 1e6, 2),
            "result": {"sha256": digest.hexdigest()}}


def measure(case: list) -> dict:
    """One measurement, in this interpreter: indstab comes from PYTHONPATH."""
    kind, n, *rest = case
    if kind == "alphas":
        return _alphas(n)
    from indstab import canon, enumeration
    from indstab.enumeration import count_graphs, search_tight_stable
    from indstab.verify import SUITE_ORDER, VerifyConfig, catalog_facts

    keys = ("expand_roots", "root_refinements", "refine_calls", "searches", "leaves")
    counts = dict.fromkeys(keys, 0)
    # the parent's _expand refined with _refine, the change's with _refine_root
    root = "_refine_root" if hasattr(enumeration, "_refine_root") else "_refine"
    _count_calls(counts, "root_refinements", enumeration, root)
    _count_calls(counts, "expand_roots", enumeration, root)
    _count_calls(counts, "root_refinements", enumeration, "_search",
                 lambda args: len(args) < 3 or args[2] is None)
    _count_calls(counts, "searches", enumeration, "_search")
    _count_calls(counts, "refine_calls", canon, "_refine")
    if root == "_refine":
        _count_calls(counts, "refine_calls", enumeration, "_refine")
    _count_calls(counts, "leaves", canon, "_leaf_code")
    t = time.perf_counter()
    if kind == "count":
        result = {"classes": count_graphs(n)}
    elif kind == "facts":
        suites = tuple(s for s in SUITE_ORDER if s != "uniqueness")
        facts = catalog_facts(VerifyConfig(max_n=n, jobs=1, suites=suites))
        result = {
            "classes": {m: len(level) for m, level in facts.items()},
            "sha256": hashlib.sha256(repr(sorted(facts.items())).encode()).hexdigest(),
        }
    else:
        found = search_tight_stable(n, *rest)
        result = {
            "classes": len(found),
            "sha256": hashlib.sha256(b"".join(c.code for c in found)).hexdigest(),
        }
    seconds = time.perf_counter() - t
    return {
        "seconds": round(seconds, 3),
        "rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "result": result,
        "counters": counts,
    }


def _run(src: str, case: tuple) -> dict:
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, __file__, "--one", json.dumps(case)],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out)


def _quartiles(xs: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
    return {"median": round(med, 3), "q1": round(q1, 3), "q3": round(q3, 3), "runs": xs}


def _summary(runs: list[dict]) -> dict:
    for r in runs[1:]:
        if (r["result"], r.get("counters")) != (runs[0]["result"], runs[0].get("counters")):
            raise SystemExit(f"runs disagree: {runs[0]} vs {r}")
    metric = "us_per_call" if "us_per_call" in runs[0] else "seconds"
    out = {metric: _quartiles([r[metric] for r in runs])}
    if "rss_mib" in runs[0]:
        out["rss_mib"] = [r["rss_mib"] for r in runs]
        out["counters"] = runs[0]["counters"]
    out["result"] = runs[0]["result"]
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_src", nargs="?")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--out", default="BENCH_catalog_levels.json")
    ap.add_argument("--one", metavar="CASE", help="measure one case, a JSON list, and print it")
    args = ap.parse_args()
    if args.one:
        print(json.dumps(measure(json.loads(args.one))))
        return
    if not args.parent_src:
        ap.error("PARENT_SRC is required")
    here = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sides = {"parent": os.path.abspath(args.parent_src), "change": here}
    doc = {
        "label": "catalog_levels",
        "host": f"{os.cpu_count()} CPUs, Python {platform.python_version()}",
        "command": "python bench/catalog.py PARENT_SRC --pairs %d" % args.pairs,
        "cases": {},
    }
    for case in CASES:
        runs = {"parent": [], "change": []}
        wins = 0
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(_run(sides[side], case))
            metric = "us_per_call" if case[0] == "alphas" else "seconds"
            wins += runs["change"][-1][metric] < runs["parent"][-1][metric]
            print(case, i, {s: r[-1][metric] for s, r in runs.items()}, file=sys.stderr)
        entry = {side: _summary(r) for side, r in runs.items()}
        if entry["parent"]["result"] != entry["change"]["result"]:
            raise SystemExit(f"{case}: the sides disagree")
        if case[0] != "alphas":
            work = [{k: e["counters"][k] for k in ("searches", "leaves")} for e in entry.values()]
            if work[0] != work[1]:
                raise SystemExit(f"{case}: searches or leaves differ: {work}")
        entry["change_faster_pairs"] = f"{wins} of {args.pairs}"
        doc["cases"][" ".join(map(str, case))] = entry
        if case == ("count", 9):
            doc["projection_count_10_serial_s"] = {
                "note": "a projection, not a run: the count 9 median times "
                "12,005,168 / 274,668 classes",
                **{side: round(entry[side]["seconds"]["median"] * CLASSES_10 / CLASSES_9, 1)
                   for side in sides},
            }
        with open(args.out, "w", encoding="utf-8") as fh:  # after every case
            json.dump(doc, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
