"""Catalog level bench: writes BENCH_catalog_levels.json.

    python bench/catalog.py PARENT_SRC [--pairs 5] [--out BENCH_catalog_levels.json]

PARENT_SRC is the src/ directory of the commit to compare against; the
pairs, gates and summaries are bench/pairs.py's.  Measured, all serial:

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
every run of canon._refine, `searches` the calls to enumeration._search
and `leaves` those to canon._leaf_code.  The searches and leaves must
also agree between the sides; the script stops otherwise.  The serial
count_graphs(10) time is projected from "count 9" by the class counts,
12,005,168 / 274,668; it is a projection, not a run.
One measurement alone, in this interpreter, prints its JSON line:

    PYTHONPATH=SRC python bench/catalog.py --one '["count", 9]'
"""

from __future__ import annotations

import hashlib
import random
import resource
import time

import pairs

CASES = [("count", 9), ("facts", 8), ("tight", 8, 2, 0), ("alphas", 8), ("alphas", 9)]
CLASSES_9, CLASSES_10 = 274_668, 12_005_168


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
    pairs.count_calls(counts, "root_refinements", enumeration, "_refine_root")
    pairs.count_calls(counts, "expand_roots", enumeration, "_refine_root")
    pairs.count_calls(counts, "root_refinements", enumeration, "_search",
                      lambda args: len(args) < 3 or args[2] is None)
    pairs.count_calls(counts, "searches", enumeration, "_search")
    pairs.count_calls(counts, "refine_calls", canon, "_refine")
    pairs.count_calls(counts, "leaves", canon, "_leaf_code")
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


def _check(case: tuple, entry: dict, doc: dict) -> None:
    """The sides' searches and leaves must agree; "count 9" adds the projection."""
    if case[0] == "alphas":
        return
    work = [{k: entry[s]["counters"][k] for k in ("searches", "leaves")} for s in pairs.SIDES]
    if work[0] != work[1]:
        raise SystemExit(f"{case}: searches or leaves differ: {work}")
    if case == ("count", 9):
        doc["projection_count_10_serial_s"] = {
            "note": "a projection, not a run: the count 9 median times "
            "12,005,168 / 274,668 classes",
            **{side: round(entry[side]["seconds"]["median"] * CLASSES_10 / CLASSES_9, 1)
               for side in pairs.SIDES},
        }


def main() -> None:
    args = pairs.parse_args(__doc__, "BENCH_catalog_levels.json")
    pairs.run(__file__, measure, args, "catalog_levels", [(c, args.pairs) for c in CASES], _check)


if __name__ == "__main__":
    main()
