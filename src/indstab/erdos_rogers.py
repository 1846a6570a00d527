"""Exact small-n values of the Erdos-Rogers function, independent-set form.

For parameters (n, s, t), the value is the minimum over all n-vertex graphs
with independence number at most s + t - 1 of the largest vertex subset whose
induced subgraph has independence number at most s - 1.  Complementation maps
this to the classical clique formulation, and the minimum over isomorphism
classes equals the minimum over labeled graphs, so the computation iterates
the enumeration catalog.  Each class is read through its mis.subset_alphas
table, which holds the independence number of every induced subgraph; er_f
reads one cell of the (s, t) grid that er_table builds.  Whenever
s > floor((n-t+1)/2) and s + t <= n + 1 the value equals n - t exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations
from typing import Iterable, Sequence

from indstab.enumeration import enumerate_graphs
from indstab.graphs import Graph, vset
from indstab.mis import alpha_mask, subset_alphas

ER_MAX_N = 8


def max_subset_alpha_below(g: Graph, s: int) -> int:
    """Largest |S| whose induced subgraph has independence number <= s - 1.

    Scans subset sizes downward and stops at the first size with a qualifying
    subset; smaller sizes cannot do better.  Size s - 1 always qualifies, so
    the result is at least min(n, s - 1).
    """
    if s < 1:
        raise ValueError(f"s must be at least 1, got {s}")
    limit = s - 1
    for q in range(g.n, 0, -1):
        for members in combinations(range(g.n), q):
            mask = vset(members)
            if alpha_mask(g.adj, mask) <= limit:
                return q
    return 0


def er_predicted(n: int, s: int, t: int) -> int | None:
    """n - t when the exact-value conditions hold, else None (not applicable)."""
    if min(n, s, t) < 1:
        raise ValueError(f"parameters must be positive, got {(n, s, t)}")
    if s > (n - t + 1) // 2 and s + t <= n + 1:
        return n - t
    return None


def _mbelow_all_s(table: Sequence[int]) -> list[int]:
    """[max_subset_alpha_below for s = 1..n], from an n-vertex graph's
    subset_alphas table."""
    n = len(table).bit_length() - 1
    best_by_alpha = [0] * (n + 1)  # alpha value -> largest subset size with it
    for mask, a in enumerate(table):
        size = mask.bit_count()
        if size > best_by_alpha[a]:
            best_by_alpha[a] = size
    # s - 1 = limit: the largest subset with alpha <= limit
    return list(accumulate(best_by_alpha[:n], max))


def er_f(n: int, s: int, t: int, *, jobs: int = 1) -> int:
    """Exact Erdos-Rogers value: one cell of er_table(n)."""
    if min(n, s, t) < 1:
        raise ValueError(f"parameters must be positive, got {(n, s, t)}")
    if n > ER_MAX_N:
        raise ValueError(f"exact values are enumeration-backed, n <= {ER_MAX_N} only")
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
    """The full (s, t) grid at fixed n, one catalog pass for all cells.

    For every graph alpha and the per-s subset maxima come from its
    subset_alphas table."""
    if not 1 <= n <= ER_MAX_N:
        raise ValueError(f"table needs 1 <= n <= {ER_MAX_N}, got {n}")
    tables = (subset_alphas(g.adj, n) for _, g in enumerate_graphs(n, jobs=jobs))
    return er_grid(n, ((table[-1], _mbelow_all_s(table)) for table in tables))


def er_grid(n: int, classes: Iterable[tuple[int, Sequence[int]]]) -> list[ErRow]:
    """The (s, t) grid at n from (alpha, _mbelow_all_s) of every n-vertex class.

    A cell is the minimum over the classes with alpha <= s + t - 1, so it is
    a prefix minimum over alpha buckets; repeated pairs change nothing.
    """
    # low[a - 1][s - 1] = min of mbelow(G, s) over classes with alpha == a;
    # an empty bucket keeps n, which no cell minimum exceeds, and bucket 1
    # always holds the complete graph
    low = [[n] * n for _ in range(n)]
    for a, mbelow in classes:
        low[a - 1] = [min(x, y) for x, y in zip(low[a - 1], mbelow)]
    rows = []
    for s in range(1, n + 1):
        for t in range(1, n + 1):
            computed = min(low[a][s - 1] for a in range(min(s + t - 1, n)))
            predicted = er_predicted(n, s, t)
            match = None if predicted is None else computed == predicted
            rows.append(ErRow(s, t, predicted, computed, match))
    return rows
