"""Exact small-n values of the Erdos-Rogers function, independent-set form.

For parameters (n, s, t), the value is the minimum over all n-vertex graphs
with independence number at most s + t - 1 of the largest vertex subset whose
induced subgraph has independence number at most s - 1.  Complementation maps
this to the classical clique formulation, and the minimum over isomorphism
classes equals the minimum over labeled graphs, so the computation iterates
the enumeration catalog.  Each class is read through its alpha profile p(q),
the least independence number over its q-vertex induced subgraphs (from
mis.subset_alphas and mis.alpha_profile): the largest subset with induced
independence number at most s - 1 has the largest q with p(q) <= s - 1.
er_f reads one cell of the (s, t) grid that er_table builds.  Whenever
s > floor((n-t+1)/2) and s + t <= n + 1 the value equals n - t exactly.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from typing import Iterable

from indstab.enumeration import enumerate_levels
from indstab.graphs import Graph
from indstab.mis import alpha_profile, subset_alphas

ER_MAX_N = 8


def er_predicted(n: int, s: int, t: int) -> int | None:
    """n - t when the exact-value conditions hold, else None (not applicable)."""
    if min(n, s, t) < 1:
        raise ValueError(f"parameters must be positive, got {(n, s, t)}")
    if s > (n - t + 1) // 2 and s + t <= n + 1:
        return n - t
    return None


def er_f(n: int, s: int, t: int, *, jobs: int = 1) -> int:
    """Exact Erdos-Rogers value: one cell of er_table(n)."""
    if min(n, s, t) < 1:
        raise ValueError(f"parameters must be positive, got {(n, s, t)}")
    if n > ER_MAX_N:
        raise ValueError(f"exact values are enumeration-backed, n <= {ER_MAX_N} only")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if s > n:
        return n  # every subset qualifies
    # t >= n admits every class, as t = n already does; rows run s-major
    return er_table(n, jobs=jobs)[(s - 1) * n + min(t, n) - 1].computed


@dataclass(frozen=True)
class ErRow:
    s: int
    t: int
    predicted: int | None
    computed: int
    match: bool | None  # None when the prediction does not apply


def er_table(n: int, *, jobs: int = 1) -> list[ErRow]:
    """The full (s, t) grid at fixed n, one catalog pass for all cells."""
    if not 1 <= n <= ER_MAX_N:
        raise ValueError(f"table needs 1 <= n <= {ER_MAX_N}, got {n}")
    profiles = enumerate_levels(n, partial(_profile, n), jobs=jobs)
    return er_grid(n, (p for _, p in profiles))


def _profile(n: int, g: Graph, code) -> tuple[int, ...] | None:
    """The emit of er_table: an n-vertex class's alpha profile, in its worker."""
    return alpha_profile(subset_alphas(g.adj, n)) if g.n == n else None


def er_grid(n: int, profiles: Iterable[tuple[int, ...]]) -> list[ErRow]:
    """The (s, t) grid at n from every n-vertex class's alpha profile, a tuple.

    A class's largest subset with alpha <= s - 1 is the largest q with
    p(q) <= s - 1, found by bisection because p never decreases.  A cell is
    the minimum over the classes with alpha = p(n) <= s + t - 1, so it is a
    prefix minimum over alpha buckets, so each distinct profile is read once.
    """
    # low[a - 1][s - 1] = min of that subset maximum over classes with
    # alpha == a; an empty bucket keeps n, which no cell minimum exceeds, and
    # bucket 1 always holds the complete graph
    low = [[n] * n for _ in range(n)]
    for p in set(profiles):
        row = low[p[n] - 1]
        for s in range(1, n + 1):
            row[s - 1] = min(row[s - 1], bisect_right(p, s - 1) - 1)
    rows = []
    for s in range(1, n + 1):
        for t in range(1, n + 1):
            computed = min(low[a][s - 1] for a in range(min(s + t - 1, n)))
            predicted = er_predicted(n, s, t)
            match = None if predicted is None else computed == predicted
            rows.append(ErRow(s, t, predicted, computed, match))
    return rows
