"""Depth-first enumeration bench: writes BENCH_dfs.json.

    python bench/dfs.py PARENT_SRC [--pairs 5] [--long-pairs 1] [--out BENCH_dfs.json]

PARENT_SRC is the src/ directory of the commit to compare against; the
pairs, gates and summaries are bench/pairs.py's.  Measured:

- count_graphs(9) at jobs 1 and 2: wall seconds, the CPU seconds of the
  measuring process (at jobs 2: the caller's walk of levels <= n - 2 and
  its pool traffic), and the peak RSS of that process and of its largest
  child (the pool's workers);
- tight (2, 0) at n = 10 and 11, (3, 1) at n = 10 and 9 and (3, 2) at
  n = 9, at jobs 1 and 2: the same, with the class count and digest
  (sha256 of the sorted codes) and, serially, the calls to
  enumeration._expand, _automorphisms, _least and _search (a tree without
  the first two makes its group searches through _search);
- the first match of tight (2, 0) at n = 9 and (3, 1) at n = 10, serial:
  the _expand calls made before next() returns, and its seconds;
- count_graphs(10) at jobs 2, over --long-pairs pairs only (about ten
  minutes a run on 2 vCPUs).

Cases are keyed "count N JOBS", "search N JOBS K L" and "first N K L".
One measurement alone, in this interpreter, prints its JSON line:

    PYTHONPATH=SRC python bench/dfs.py --one '["search", 11, 1, 2, 0]'
"""

from __future__ import annotations

import hashlib
import resource
import time

import pairs

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
    from indstab.enumeration import (
        count_graphs, enumerate_graphs, parse_predicate, search_tight_stable,
    )

    names = ("_expand", "_automorphisms", "_least", "_search")
    counts = {name: 0 for name in names if hasattr(enumeration, name)}
    for name in counts:
        pairs.count_calls(counts, name, enumeration, name)
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
        # the registry name, which both sides parse to their tight predicate
        k, l = rest
        stream = enumerate_graphs(n, predicate=parse_predicate(f"tight-stable:{k},{l}"))
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


def main() -> None:
    args = pairs.parse_args(__doc__, "BENCH_dfs.json", long_pairs=1)
    plan = [(c, args.pairs) for c in CASES] + [(c, args.long_pairs) for c in LONG_CASES]
    pairs.run(__file__, measure, args, plan)


if __name__ == "__main__":
    main()
