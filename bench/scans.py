"""Orbit-pruned removal scan bench: writes BENCH_generator_scans.json.

    python bench/scans.py PARENT_SRC [--pairs 5] [--out BENCH_generator_scans.json]

PARENT_SRC is the src/ directory of the commit to compare against; the
pairs, gates and summaries are bench/pairs.py's.  Measured, in microseconds
per call (the median of repeated calls, at least 3 and at least 0.5 s):

- the five operations of perfbench's `scans` workload, on stable3_circulant
  at m = 3, 4 and stable4_circulant at m = 3;
- is_stable of the paper's larger circulants: stable3_circulant(5) at
  (3, 0), stable4_circulant at m = 4 and 5 at (4, 0);
- is_stable(circulant(20, {2, 5}), 3, 0), a regular graph whose scan is
  decided inside its first first-level subtree;
- is_tight_stable(lift(kn_tight(20), 6), 7, 6), whose six isolated twins
  the first removed vertex's stabilizer swaps;
- search_tight_stable(8, 2, 0), canonical augmentation with removal scans
  of at most 8 vertices.

Counters, from the first call alone: `solver_calls`, the calls stability
makes to mis.independent_set_at_least, and `group_searches`, its calls to
canon._automorphisms.  The script stops if a case's change makes more
solver calls than its parent.
One measurement alone, in this interpreter, prints its JSON line:

    PYTHONPATH=SRC python bench/scans.py --one '["is_stable", "stable4(5)", 4, 0]'
"""

from __future__ import annotations

import statistics
import time

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
]
MIN_SECONDS, MIN_CALLS = 0.5, 3


def _op(case: list):
    """The case's call, with its graph built."""
    from indstab.enumeration import search_tight_stable
    from indstab.families import circulant, kn_tight, lift, stable3_circulant, stable4_circulant
    from indstab.stability import alpha_drop, is_stable, is_tight_stable

    kind, target, *params = case
    if kind == "tight":
        return lambda: len(search_tight_stable(target, *params))
    graphs = {
        "stable3(3)": lambda: stable3_circulant(3),
        "stable3(4)": lambda: stable3_circulant(4),
        "stable3(5)": lambda: stable3_circulant(5),
        "stable4(3)": lambda: stable4_circulant(3),
        "stable4(4)": lambda: stable4_circulant(4),
        "stable4(5)": lambda: stable4_circulant(5),
        "circulant(20,{2,5})": lambda: circulant(20, {2, 5}),
        "lift(kn_tight(20),6)": lambda: lift(kn_tight(20), 6),
    }
    g = graphs[target]()
    scan = {"is_stable": is_stable, "is_tight_stable": is_tight_stable, "alpha_drop": alpha_drop}[kind]
    return lambda: scan(g, *params)


def measure(case: list) -> dict:
    """One measurement, in this interpreter: indstab comes from PYTHONPATH."""
    from indstab import stability

    op = _op(case)
    counts = {"solver_calls": 0, "group_searches": 0}
    names = {"solver_calls": "independent_set_at_least", "group_searches": "_automorphisms"}
    real = {name: getattr(stability, name) for name in names.values()}
    for key, name in names.items():
        pairs.count_calls(counts, key, stability, name)
    result = op()
    for name, fn in real.items():
        setattr(stability, name, fn)
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


def _check(case: tuple, entry: dict, doc: dict) -> None:
    """The change may not make more solver calls than its parent."""
    calls = [entry[side]["counters"]["solver_calls"] for side in pairs.SIDES]
    if calls[1] > calls[0]:
        raise SystemExit(f"{case}: solver calls {calls[0]} -> {calls[1]}")


def main() -> None:
    args = pairs.parse_args(__doc__, "BENCH_generator_scans.json")
    pairs.run(__file__, measure, args, [(c, args.pairs) for c in CASES], _check)


if __name__ == "__main__":
    main()
