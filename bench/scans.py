"""Per-call bench of the search layers: writes BENCH_generator_scans.json.

    python bench/scans.py PARENT_SRC [--pairs 5] [--out BENCH_generator_scans.json]

PARENT_SRC is the src/ directory of the commit to compare against; the
pairs, gates, summaries and per-call timing are bench/pairs.py's.  Measured,
in microseconds per call:

- the five operations of perfbench's `scans` workload, on stable3_circulant
  at m = 3, 4 and stable4_circulant at m = 3;
- is_stable of the paper's larger circulants: stable3_circulant(5) at
  (3, 0), stable4_circulant at m = 4 and 5 at (4, 0);
- is_stable(circulant(20, {2, 5}), 3, 0), a regular graph whose scan is
  decided inside its first first-level subtree;
- is_tight_stable(lift(kn_tight(20), 6), 7, 6), whose six isolated twins
  the first removed vertex's stabilizer swaps;
- search_tight_stable(8, 2, 0), canonical augmentation whose alpha prune and
  scans solve subgraphs of at most 8 vertices;
- the 131 graphs of perfbench's `queries` workload, in three bands of n
  (32-40, 48-56 and 64 vertices): each call runs max_independent_set,
  alpha_mask and is_stable(g, 1, 0) on every graph of the band.

Each call builds its graphs afresh, so no call reads the alpha solve that a
Graph value keeps from an earlier call.

Counters, from the first call alone: `solver_calls`, the calls stability
makes to mis.independent_set_at_least; `group_searches`, its calls to
canon._automorphisms; and `nodes`, the solver's nodes, the calls mis._grow
makes to mis._cover_exceeds (the bound's own recursive calls are not
nodes).  A scan's result is its answer; a band's is a sha256 over every
alpha, witness and answer its calls return.  The script stops if a case's
change makes more solver calls or more nodes than its parent.
One measurement alone, in this interpreter, prints its JSON line:

    PYTHONPATH=SRC python bench/scans.py --one '["is_stable", "stable4(5)", 4, 0]'
    PYTHONPATH=SRC python bench/scans.py --one '["queries", 64, 64]'
"""

from __future__ import annotations

import hashlib
import os
import sys

import pairs

CASES = [
    ("is_stable", "stable3(3)", 3, 0),
    ("is_stable", "stable3(4)", 3, 0),
    ("alpha_drop", "stable3(4)", 3),
    ("is_stable", "stable4(3)", 4, 0),
    ("alpha_drop", "stable4(3)", 4),
    ("is_stable", "stable3(5)", 3, 0),
    ("is_stable", "stable4(4)", 4, 0),
    ("is_stable", "stable4(5)", 4, 0),
    ("is_stable", "circulant(20,{2,5})", 3, 0),
    ("is_tight_stable", "lift(kn_tight(20),6)", 7, 6),
    ("tight", 8, 2, 0),
    ("queries", 32, 40),
    ("queries", 48, 56),
    ("queries", 64, 64),
]


def _op(case: list):
    """The case's call, with its graphs built; a band's returns the values to hash."""
    from indstab import families
    from indstab.enumeration import search_tight_stable
    from indstab.graphs import build
    from indstab.mis import alpha_mask, max_independent_set
    from indstab.stability import alpha_drop, is_stable, is_tight_stable

    kind, target, *params = case
    if kind == "tight":
        return lambda: len(search_tight_stable(target, *params))
    if kind == "queries":
        sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        from perfbench.workloads import Queries

        band_edges = [(n, edges) for n, edges in Queries.structures() if target <= n <= params[0]]

        def band():
            out = []
            for n, edges in band_edges:
                g = build(n, edges)
                r = max_independent_set(g)
                out.append((r.alpha, r.witness, alpha_mask(g.adj, g.vertex_mask), is_stable(g, 1, 0)))
            return out

        return band
    # the graph is named by the families' functions, stable3 and stable4
    # standing for stable3_circulant and stable4_circulant
    make = eval("lambda: " + target, {**vars(families), "stable3": families.stable3_circulant,
                                      "stable4": families.stable4_circulant})
    scan = {"is_stable": is_stable, "is_tight_stable": is_tight_stable, "alpha_drop": alpha_drop}[kind]
    return lambda: scan(make(), *params)


def _from_grow(args) -> bool:
    # frame 0 is this test, 1 the counting wrapper, 2 the wrapper's caller
    return sys._getframe(2).f_code.co_name == "_grow"


def measure(case: list) -> dict:
    """One measurement, in this interpreter: indstab comes from PYTHONPATH."""
    from indstab import mis, stability

    out = pairs.per_call(_op(case), [
        ("solver_calls", stability, "independent_set_at_least"),
        ("group_searches", stability, "_automorphisms"),
        ("nodes", mis, "_cover_exceeds", _from_grow),
    ])
    if case[0] == "queries":
        out["result"] = {"sha256": hashlib.sha256(repr(out["result"]).encode()).hexdigest()}
    return out


def _check(case: tuple, entry: dict, doc: dict) -> None:
    """The change may not make more solver calls or more nodes than its parent."""
    for key in ("solver_calls", "nodes"):
        parent, change = (entry[side]["counters"][key] for side in pairs.SIDES)
        if change > parent:
            raise SystemExit(f"{case}: {key} {parent} -> {change}")


def main() -> None:
    args = pairs.parse_args(__doc__, "BENCH_generator_scans.json")
    pairs.run(__file__, measure, args, [(c, args.pairs) for c in CASES], _check)


if __name__ == "__main__":
    main()
