"""MIS solver bench: writes BENCH_mis_propagation.json.

    python bench/mis.py PARENT_SRC [--pairs 5] [--out BENCH_mis_propagation.json]

PARENT_SRC is the src/ directory of the commit to compare against; the
pairs, gates and summaries are bench/pairs.py's.  Measured, in microseconds
per call (the median of repeated calls, at least 3 and at least 0.5 s):

- the 131 graphs of perfbench's `queries` workload, in three bands of n
  (32-40, 48-56 and 64 vertices): each call runs max_independent_set,
  alpha_mask and is_stable(g, 1, 0) on every graph of the band;
- is_stable(stable3_circulant(5), 3, 0), a full removal scan on 40 vertices;
- search_tight_stable(8, 2, 0), canonical augmentation whose alpha prune and
  scans solve subgraphs of at most 8 vertices.

The counter `nodes`, from the first call alone, counts the solver's nodes:
the calls mis._grow makes to mis._cover_exceeds (the bound's own recursive
calls are not nodes).  The result is a sha256 over every alpha, witness and
answer the calls return, so the sides must return the same ones.  The script
stops if a case's change makes more nodes than its parent.
One measurement alone, in this interpreter, prints its JSON line:

    PYTHONPATH=SRC python bench/mis.py --one '["queries", 64, 64]'
"""

from __future__ import annotations

import hashlib
import os
import statistics
import sys
import time

import pairs

CASES = [
    ("queries", 32, 40),
    ("queries", 48, 56),
    ("queries", 64, 64),
    ("is_stable", "stable3(5)", 3, 0),
    ("tight", 8, 2, 0),
]
MIN_SECONDS, MIN_CALLS = 0.5, 3


def _op(case: list):
    """The case's call, with its graphs built; it returns the values to hash."""
    from indstab.enumeration import search_tight_stable
    from indstab.families import stable3_circulant
    from indstab.graphs import build
    from indstab.mis import alpha_mask, max_independent_set
    from indstab.stability import is_stable

    kind, *params = case
    if kind == "tight":
        return lambda: [c.code for c in search_tight_stable(*params)]
    if kind == "is_stable":
        g = stable3_circulant(5)
        return lambda: is_stable(g, *params[1:])
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from perfbench.workloads import Queries

    lo, hi = params
    graphs = [build(n, edges) for n, edges in Queries.structures() if lo <= n <= hi]

    def band():
        out = []
        for g in graphs:
            r = max_independent_set(g)
            out.append((r.alpha, r.witness, alpha_mask(g.adj, g.vertex_mask), is_stable(g, 1, 0)))
        return out

    return band


def _from_grow(args) -> bool:
    # frame 0 is this test, 1 the counting wrapper, 2 the wrapper's caller
    return sys._getframe(2).f_code.co_name == "_grow"


def measure(case: list) -> dict:
    """One measurement, in this interpreter: indstab comes from PYTHONPATH."""
    from indstab import mis

    op = _op(case)
    counts = {"nodes": 0}
    real = mis._cover_exceeds
    pairs.count_calls(counts, "nodes", mis, "_cover_exceeds", _from_grow)
    result = op()
    mis._cover_exceeds = real
    times: list[float] = []
    while sum(times) < MIN_SECONDS or len(times) < MIN_CALLS:
        t = time.perf_counter()
        op()
        times.append(time.perf_counter() - t)
    return {
        "us_per_call": round(statistics.median(times) * 1e6, 1),
        "result": {"sha256": hashlib.sha256(repr(result).encode()).hexdigest()},
        "counters": counts,
    }


def _check(case: tuple, entry: dict, doc: dict) -> None:
    """The change may not make more solver nodes than its parent."""
    nodes = [entry[side]["counters"]["nodes"] for side in pairs.SIDES]
    if nodes[1] > nodes[0]:
        raise SystemExit(f"{case}: solver nodes {nodes[0]} -> {nodes[1]}")


def main() -> None:
    args = pairs.parse_args(__doc__, "BENCH_mis_propagation.json")
    pairs.run(__file__, measure, args, [(c, args.pairs) for c in CASES], _check)


if __name__ == "__main__":
    main()
