"""Immutable labeled simple graphs with bitmask adjacency.

Vertices are labeled 0..n-1 with n <= 64, so one machine word holds a row of
the adjacency matrix and a vertex subset alike.  Vertex sets are plain ints
throughout the package: bit v set means vertex v is in the set.  Graphs are
values: no operation mutates its inputs, and assigning or deleting an
attribute raises AttributeError, so instances are safe to share between
worker processes.  A value also carries a private cache, filled on first use
by indstab.mis with its alpha solve; equality, hashing and pickling ignore it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

MAX_VERTICES = 64


@dataclass(frozen=True, init=False, repr=False)
class Graph:
    """Simple undirected graph on labels 0..n-1, adjacency as per-vertex bitmasks.

    `adj[v]` has bit u set iff u and v are adjacent.  Instances are immutable;
    construct them through :func:`build` or the transformer functions.
    """

    # slots declared by hand: with slots=True, Python 3.11 raises TypeError,
    # not FrozenInstanceError, on assigning or deleting an unknown attribute.
    # `_mis`, not a field, is mis._alpha_set_of's cache, unset until filled
    __slots__ = ("n", "adj", "_mis")
    n: int
    adj: tuple[int, ...]

    def __init__(self, n: int, adj: Iterable[int]):
        adj = tuple(adj)
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in [1, {MAX_VERTICES}], got {n}")
        if len(adj) != n:
            raise ValueError(f"adjacency has {len(adj)} rows for {n} vertices")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"adjacency row {v} has bits beyond vertex {n - 1}")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v, row in enumerate(adj):
            for u in vset_members(row):
                if not (adj[u] >> v) & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)

    @classmethod
    def _wrap(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        # internal fast path: caller guarantees the invariants
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        return g

    def __reduce__(self):
        # the default restores slots through the frozen __setattr__; _mis is dropped
        return (self._wrap, (self.n, self.adj))

    @property
    def vertex_mask(self) -> int:
        """Bitmask of the full vertex set."""
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.adj)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        return [
            (v, u) for v, row in enumerate(self.adj)
            for u in vset_members(row >> (v + 1) << (v + 1))  # the neighbors above v
        ]

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()})"


def vset(vertices: Iterable[int]) -> int:
    """Bitmask of a vertex collection; a vertex outside 0..63 is a ValueError."""
    m = 0
    for v in vertices:
        if not 0 <= v < MAX_VERTICES:
            raise ValueError(f"vertex {v} is outside 0..{MAX_VERTICES - 1}")
        m |= 1 << v
    return m


def vset_members(mask: int) -> tuple[int, ...]:
    """Vertices of a bitmask, ascending; a mask outside 0..2^64 - 1 is a ValueError."""
    if not 0 <= mask < 1 << MAX_VERTICES:
        raise ValueError(f"vertex mask must be non-negative and below 2^64, got {mask}")
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(out)


def _check_vset(g: Graph, mask: int, what: str) -> None:
    if mask < 0 or mask & ~g.vertex_mask:
        raise ValueError(f"{what} is not a subset of the {g.n} vertex labels")


def build(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from a vertex count and unordered edge pairs.

    Duplicate pairs collapse to a single edge.  Rejects self-loops,
    out-of-range endpoints, and n outside [1, 64].
    """
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count must be in [1, {MAX_VERTICES}], got {n}")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph._wrap(n, tuple(adj))


def remove_vertices(g: Graph, vertices: int) -> Graph:
    """Induced subgraph on the complement of `vertices`, relabeled.

    Surviving vertices keep their relative order and become 0..m-1.  Removing
    every vertex is rejected so the independence number of the result is
    always defined.
    """
    _check_vset(g, vertices, "removal set")
    keep = g.vertex_mask & ~vertices
    if keep == 0:
        raise ValueError("cannot remove every vertex")
    if vertices == 0:
        return g
    survivors = vset_members(keep)
    newlab = {v: i for i, v in enumerate(survivors)}
    adj = tuple(vset(newlab[u] for u in vset_members(g.adj[v] & keep)) for v in survivors)
    return Graph._wrap(len(survivors), adj)


def complement(g: Graph) -> Graph:
    """Edge-complement: (u, v) present iff absent in g, u != v."""
    full = g.vertex_mask
    adj = tuple((full & ~row) & ~(1 << v) for v, row in enumerate(g.adj))
    return Graph._wrap(g.n, adj)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union; h's labels are shifted up by g.n."""
    n = g.n + h.n
    if n > MAX_VERTICES:
        raise ValueError(f"union would have {n} > {MAX_VERTICES} vertices")
    adj = list(g.adj) + [row << g.n for row in h.adj]
    return Graph._wrap(n, tuple(adj))


def neighborhood(g: Graph, vertices: int) -> int:
    """External neighborhood: all neighbors of the set, minus the set itself."""
    _check_vset(g, vertices, "vertex set")
    out = 0
    for v in vset_members(vertices):
        out |= g.adj[v]
    return out & ~vertices
