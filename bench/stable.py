"""Stable(k, l) search bench: writes BENCH_stable_window.json.

    python bench/stable.py PARENT_SRC [--pairs 5] [--out BENCH_stable_window.json]

PARENT_SRC is the src/ directory of the commit to compare against; the
pairs, gates and summaries are bench/pairs.py's.  Measured, all serial:
search_with(n, Stable(k, l)) for every 1 <= k <= 5 and l < k at n = 8, and
for (3, 0), (2, 0) and (2, 1) at n = 9.  Each case records its wall
seconds, its class count and digest (sha256 of the sorted codes) as its
result, and the calls to enumeration._expand and stability._worst_drop (the
removal scans of the windows and of the predicate's matches) as its
counters.  The run stops when a case's median on the change is above the
parent's third quartile.  Cases are keyed "N K L".  One measurement alone,
in this interpreter, prints its JSON line:

    PYTHONPATH=SRC python bench/stable.py --one '[9, 3, 0]'
"""

from __future__ import annotations

import hashlib
import time

import pairs

CASES = [(8, k, l) for k in range(1, 6) for l in range(k)] + [(9, 3, 0), (9, 2, 0), (9, 2, 1)]


def measure(case: list) -> dict:
    """One measurement, in this interpreter: indstab comes from PYTHONPATH."""
    from indstab import enumeration, stability
    from indstab.enumeration import parse_predicate, search_with

    counts = {"_expand": 0, "_worst_drop": 0}
    pairs.count_calls(counts, "_expand", enumeration, "_expand")
    # both modules' names: the windows call enumeration's, is_stable stability's
    pairs.count_calls(counts, "_worst_drop", enumeration, "_worst_drop")
    pairs.count_calls(counts, "_worst_drop", stability, "_worst_drop")
    n, k, l = case
    t = time.perf_counter()
    found = search_with(n, parse_predicate(f"stable:{k},{l}"))
    seconds = time.perf_counter() - t
    return {
        "seconds": round(seconds, 3),
        "result": {
            "classes": len(found),
            "sha256": hashlib.sha256(b"".join(c.code for c in found)).hexdigest(),
        },
        "counters": counts,
    }


def _check(case: tuple, entry: dict, doc: dict) -> None:
    """No Stable search may be slower on the change than the parent's q3."""
    change, parent = (entry[side]["seconds"] for side in ("change", "parent"))
    if change["median"] > parent["q3"]:
        raise SystemExit(f"{case}: change median {change['median']} s is above "
                         f"the parent's third quartile {parent['q3']} s")


def main() -> None:
    args = pairs.parse_args(__doc__, "BENCH_stable_window.json")
    pairs.run(__file__, measure, args, "stable_window", [(c, args.pairs) for c in CASES], _check)


if __name__ == "__main__":
    main()
