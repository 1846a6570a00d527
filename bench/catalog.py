"""Whole-run bench of the enumeration layers: writes BENCH_catalog_levels.json.

    python bench/catalog.py PARENT_SRC [--pairs 5] [--long-pairs 1] [--out BENCH_catalog_levels.json]

PARENT_SRC is the src/ directory of the commit to compare against; the
pairs, gates and summaries are bench/pairs.py's.  Each case is one whole
run, keyed by its words; PRED is predicate registry text such as
"tight-stable:2,0" or "stable:3,1":

- "count N JOBS": count_graphs(N, jobs=JOBS); "count 10 2" runs over
  --long-pairs pairs only (about ten minutes a run on 2 vCPUs);
- "facts 8": catalog_facts of VerifyConfig(max_n=8, jobs=1) with every
  suite but uniqueness, the catalog pass of the verify run;
- "search N JOBS PRED": search_with(N, parse_predicate(PRED), jobs=JOBS,
  allow_long=N > 10): tight searches at jobs 1 and 2, Stable ones serially;
- "first N PRED": the first match of enumerate_graphs(N, predicate=...);
- "alphas N": subset_alphas on 200 G(N, 1/2) graphs from a fixed seed, in
  microseconds per call (best of 5 sweeps).

Every case but "alphas" records wall seconds, the CPU seconds of the
measuring process (at jobs 2: the caller's walk of levels <= n - 2 and its
pool traffic), the peak RSS of that process and of its largest child (the
pool's workers), and its class count, with a digest (sha256 of the sorted
codes) for a search, or the first match's code.  Counters, at jobs 1 only:
`expand`, the calls to enumeration._expand (a "first" case keeps it alone);
`expand_roots`, the root partitions _expand computes, and
`root_refinements`, those plus canon's (canon._refine_root); `refine_calls`,
the runs of canon._refine; `searches`, the group searches of enumeration's
_automorphisms and of canon._code for a class whose group the walk does not
hold; `least_walks`, the least-leaf walks likewise (_least, one per _code
call); `leaves`, canon._leaf_code and canon._is_automorphism; and
`worst_drops`, _worst_drop from stability (the matches' removal scans) and,
on a tree whose windows still scan, from enumeration.  Each search counts
all of them, so its seconds carry more counting overhead than in
BENCH_dfs.json or BENCH_stable_window.json; both sides pay it alike.

Gates: the sides must make as many searches, and the change no more leaves;
a "stable:" search's median on the change may not exceed the parent's third
quartile.  The script stops otherwise.  The serial count_graphs(10) time is
projected from "count 9 1" by the class counts, 12,005,168 / 274,668.
One measurement alone, in this interpreter, prints its JSON line:

    PYTHONPATH=SRC python bench/catalog.py --one '["search", 11, 1, "tight-stable:2,0"]'
"""

from __future__ import annotations

import hashlib
import random
import resource
import time

import pairs

TIGHT = [(10, "2,0"), (10, "3,1"), (9, "3,1"), (9, "3,2"), (11, "2,0")]
CASES = [
    ("count", 9, 1),
    ("count", 9, 2),
    ("facts", 8),
    ("search", 8, 1, "tight-stable:2,0"),
    *[("search", n, jobs, f"tight-stable:{kl}") for n, kl in TIGHT for jobs in (1, 2)],
    *[("search", 8, 1, f"stable:{k},{l}") for k in range(1, 6) for l in range(k)],
    *[("search", 9, 1, f"stable:{kl}") for kl in ("3,0", "2,0", "2,1")],
    ("first", 9, "tight-stable:2,0"),
    ("first", 10, "tight-stable:3,1"),
    ("alphas", 8),
    ("alphas", 9),
]
LONG_CASES = [("count", 10, 2)]
COUNTERS = ("expand", "expand_roots", "root_refinements", "refine_calls", "searches",
            "least_walks", "leaves", "worst_drops")
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


def _mib(kib: int) -> float:
    return round(kib / 1024, 1)  # ru_maxrss is in KiB on Linux


def measure(case: list) -> dict:
    """One measurement, in this interpreter: indstab comes from PYTHONPATH."""
    kind, n, *rest = case
    if kind == "alphas":
        return _alphas(n)
    from indstab import canon, enumeration, stability
    from indstab.enumeration import count_graphs, enumerate_graphs, parse_predicate, search_with
    from indstab.verify import SUITE_ORDER, VerifyConfig, catalog_facts

    counts = dict.fromkeys(COUNTERS, 0)
    pairs.count_calls(counts, "expand", enumeration, "_expand")
    pairs.count_calls(counts, "expand_roots", enumeration, "_refine_root")
    for module in (enumeration, canon):
        pairs.count_calls(counts, "root_refinements", module, "_refine_root")
        pairs.count_calls(counts, "searches", module, "_automorphisms")
        pairs.count_calls(counts, "least_walks", module, "_least")
    pairs.count_calls(counts, "refine_calls", canon, "_refine")
    for name in ("_leaf_code", "_is_automorphism"):
        pairs.count_calls(counts, "leaves", canon, name)
    for module in (enumeration, stability):
        if hasattr(module, "_worst_drop"):  # enumeration's: a tree whose windows scan
            pairs.count_calls(counts, "worst_drops", module, "_worst_drop")
    t, cpu = time.perf_counter(), time.process_time()
    if kind == "count":
        result = {"classes": count_graphs(n, jobs=rest[0])}
    elif kind == "facts":
        suites = tuple(s for s in SUITE_ORDER if s != "uniqueness")
        facts = catalog_facts(VerifyConfig(max_n=n, jobs=1, suites=suites))
        result = {
            "classes": {m: len(level) for m, level in facts.items()},
            "sha256": hashlib.sha256(repr(sorted(facts.items())).encode()).hexdigest(),
        }
    elif kind == "search":
        jobs, pred = rest
        found = search_with(n, parse_predicate(pred), jobs=jobs, allow_long=n > 10)
        result = {
            "classes": len(found),
            "sha256": hashlib.sha256(b"".join(c.code for c in found)).hexdigest(),
        }
    else:
        stream = enumerate_graphs(n, predicate=parse_predicate(rest[0]))
        code, _ = next(stream)
        result = {"first_code": code.code.hex()}
        counts = {"expand": counts["expand"]}
        stream.close()
    seconds, cpu = time.perf_counter() - t, time.process_time() - cpu
    if kind in ("count", "search") and rest[0] > 1:
        counts = {}  # the workers' calls are not seen here
    return {
        "seconds": round(seconds, 3),
        "cpu_self_s": round(cpu, 3),
        "rss_self_mib": _mib(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
        "rss_children_mib": _mib(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss),
        "result": result,
        "counters": counts,
    }


def _check(case: tuple, entry: dict, doc: dict) -> None:
    """The sides' searches must agree and the change's leaves may not rise,
    where the case counts them; a "stable:" search may not be slower than
    the parent's q3; "count 9 1" adds the projection."""
    counters = [entry[side].get("counters") or {} for side in pairs.SIDES]
    if "searches" in counters[0]:
        work = [{k: c[k] for k in ("searches", "leaves")} for c in counters]
        if work[0]["searches"] != work[1]["searches"] or work[1]["leaves"] > work[0]["leaves"]:
            raise SystemExit(f"{case}: searches differ or leaves rose: {work}")
    if case[0] == "search" and case[3].startswith("stable:"):
        change, parent = (entry[side]["seconds"] for side in ("change", "parent"))
        if change["median"] > parent["q3"]:
            raise SystemExit(f"{case}: change median {change['median']} s is above "
                             f"the parent's third quartile {parent['q3']} s")
    if case == ("count", 9, 1):
        doc["projection_count_10_serial_s"] = {
            "note": "a projection, not a run: the count 9 1 median times "
            "12,005,168 / 274,668 classes",
            **{side: round(entry[side]["seconds"]["median"] * CLASSES_10 / CLASSES_9, 1)
               for side in pairs.SIDES},
        }


def main() -> None:
    args = pairs.parse_args(__doc__, "BENCH_catalog_levels.json", long_pairs=1)
    plan = [(c, args.pairs) for c in CASES] + [(c, args.long_pairs) for c in LONG_CASES]
    pairs.run(__file__, measure, args, plan, _check)


if __name__ == "__main__":
    main()
