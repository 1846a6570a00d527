"""Depth-first enumeration bench: writes BENCH_dfs.json.

    python bench/dfs.py PARENT_SRC [--pairs 5] [--long-pairs 1] [--out BENCH_dfs.json]

PARENT_SRC is the src/ directory of a checkout of the commit to compare
against; this checkout's src/ is the change.  Every measurement runs in a
fresh interpreter, once per side per pair, and the side that runs first
alternates from pair to pair.  Measured:

- count_graphs(9) at jobs 1 and 2: wall seconds, the CPU seconds of the
  measuring process (at jobs 2: the caller's walk of levels <= n - 2 and
  its pool traffic), and the peak RSS of that process and of its largest
  child (the pool's workers);
- tight (2, 0) at n = 10 and 11, (3, 1) at n = 10 and 9 and (3, 2) at
  n = 9, at jobs 1 and 2: the same, with the class count and digest
  (sha256 of the sorted codes) and, serially, the calls to
  enumeration._expand and enumeration._search;
- the first match of tight (2, 0) at n = 9 and (3, 1) at n = 10, serial:
  the _expand calls made before next() returns, and its seconds;
- count_graphs(10) at jobs 2, over --long-pairs pairs only (about ten
  minutes a run on 2 vCPUs).

Cases are keyed "count N JOBS", "search N JOBS K L" and "first N K L".
Counts and answers must repeat exactly on every run of a side, and answers
must agree between the sides; the script stops otherwise.  One measurement
alone, in this interpreter, prints its JSON line:

    PYTHONPATH=SRC python bench/dfs.py --one '["search", 11, 1, 2, 0]'
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

CASES = [
    ("count", 9, 1),
    ("count", 9, 2),
    ("search", 10, 1, 2, 0),
    ("search", 10, 2, 2, 0),
    ("search", 10, 1, 3, 1),
    ("search", 10, 2, 3, 1),
    ("search", 9, 1, 3, 1),
    ("search", 9, 2, 3, 1),
    ("search", 9, 1, 3, 2),
    ("search", 9, 2, 3, 2),
    ("search", 11, 1, 2, 0),
    ("search", 11, 2, 2, 0),
    ("first", 9, 2, 0),
    ("first", 10, 3, 1),
]
LONG_CASES = [("count", 10, 2)]


def _mib(kib: int) -> float:
    return round(kib / 1024, 1)  # ru_maxrss is in KiB on Linux


def measure(case: list) -> dict:
    """One measurement, in this interpreter: indstab comes from PYTHONPATH."""
    from indstab import enumeration
    from indstab.enumeration import Stable, count_graphs, enumerate_graphs, search_tight_stable

    counts = {"_expand": 0, "_search": 0}
    for name in counts:
        real = getattr(enumeration, name)

        def call(*args, name=name, real=real):
            counts[name] += 1
            return real(*args)

        setattr(enumeration, name, call)
    kind, n, *rest = case
    t, cpu = time.perf_counter(), time.process_time()
    if kind == "count":
        result = {"classes": count_graphs(n, jobs=rest[0])}
    elif kind == "search":
        jobs, k, l = rest
        found = search_tight_stable(n, k, l, jobs=jobs, allow_long=n > 10)
        result = {
            "classes": len(found),
            "sha256": hashlib.sha256(b"".join(c.code for c in found)).hexdigest(),
        }
    else:
        stream = enumerate_graphs(n, predicate=Stable(*rest, tight=True))
        code, _ = next(stream)
        result = {"first_code": code.code.hex()}
        counts = {"_expand": counts["_expand"]}
        stream.close()
    seconds, cpu = time.perf_counter() - t, time.process_time() - cpu
    if kind != "first" and rest[0] > 1:
        counts = {}  # the workers' calls are not seen here
    return {
        "seconds": round(seconds, 3),
        "cpu_self_s": round(cpu, 3),
        "rss_self_mib": _mib(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
        "rss_children_mib": _mib(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss),
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


def _summary(runs: list[dict]) -> dict:
    secs = [r["seconds"] for r in runs]
    q1, med, q3 = statistics.quantiles(secs, n=4) if len(secs) > 1 else (secs[0],) * 3
    for r in runs[1:]:
        if (r["result"], r["counters"]) != (runs[0]["result"], runs[0]["counters"]):
            raise SystemExit(f"runs disagree: {runs[0]} vs {r}")
    return {
        "seconds": {"median": round(med, 3), "q1": round(q1, 3), "q3": round(q3, 3),
                    "runs": secs},
        "cpu_self_s": [r["cpu_self_s"] for r in runs],
        "rss_self_mib": [r["rss_self_mib"] for r in runs],
        "rss_children_mib": [r["rss_children_mib"] for r in runs],
        "result": runs[0]["result"],
        "counters": runs[0]["counters"],
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_src", nargs="?")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--long-pairs", type=int, default=1)
    ap.add_argument("--out", default="BENCH_dfs.json")
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
        "label": "dfs",
        "host": f"{os.cpu_count()} CPUs, Python {platform.python_version()}",
        "command": "python bench/dfs.py PARENT_SRC --pairs %d --long-pairs %d"
        % (args.pairs, args.long_pairs),
        "cases": {},
    }
    cases = [(c, args.pairs) for c in CASES] + [(c, args.long_pairs) for c in LONG_CASES]
    for case, pairs in cases:
        if not pairs:
            continue
        runs = {"parent": [], "change": []}
        wins = 0
        for i in range(pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(_run(sides[side], case))
            wins += runs["change"][-1]["seconds"] < runs["parent"][-1]["seconds"]
            print(case, i, {s: r[-1]["seconds"] for s, r in runs.items()}, file=sys.stderr)
        entry = {side: _summary(r) for side, r in runs.items()}
        if entry["parent"]["result"] != entry["change"]["result"]:
            raise SystemExit(f"{case}: the sides disagree")
        entry["change_faster_pairs"] = f"{wins} of {pairs}"
        doc["cases"][" ".join(map(str, case))] = entry
        with open(args.out, "w", encoding="utf-8") as fh:  # after every case
            json.dump(doc, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
