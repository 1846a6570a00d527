"""Vertex-removal stability of the independence number.

A graph is (k, l)-stable when removing any k vertices lowers the independence
number by at most l; the parameter domain is n > k > l >= 0 and anything else
is rejected rather than extrapolated.  A (k, l)-stable graph on n vertices
satisfies alpha <= floor((n-k+1)/2) + l, and graphs attaining equality are
called tight.

Removal scans are implicit hitting-set searches (Moreno-Centeno & Karp, Oper.
Res. 61(2), 2013).  An independent set of the needed size that misses a
removal set S certifies S, so each scan keeps a pool of the witnesses found
so far: a pooled witness disjoint from S answers the check, the solver runs
only when none is, and every witness it returns joins the pool.  A removal
set that misses the witness certifying its prefix is certified too, so the
scan extends a prefix only by vertices of that witness.  A pool may start
with any independent sets of the graph: the entry points start it with the
maximum independent set of the graph's one alpha solve, which the Graph
value keeps (mis._alpha_set_of), and enumeration's window test with the
child's maximum set and those of its siblings' scans that the parent's graph
holds.  The drop found is exact whatever the pool holds; the pool changes
only how often the solver runs.

Every scan searches for the worst drop.  A prefix that no witness of
alpha - drop vertices avoids raises the drop found by one (supersets of the
prefix only lower alpha further), and the scan stops once the drop reaches its
cut-off: for alpha_drop the reach, the most k deletions can take (_reach),
and min(alpha - F, r) + 1 in _within, the one test of "L <= alpha <= H, and
every k deletions leave alpha >= max(F, alpha - r)" behind is_stable ((0, n,
k, 0, l)), is_tight_stable ((b, b, k, b - l, n) for the bound b) and
enumeration's predicates with bounds.  No scan runs when its cut-off is 0 or
above the reach.  No other bound is tried: an optimistic completion asks for
more vertices than the scan needs and mostly fails.
stable_vertex_count probes each vertex through a pool too.

The first removed vertex ranges over automorphism orbits (as canonical
search prunes its candidates, McKay, J. Algorithms 26, 1998).  When the
subtree of removal sets holding u ends below the cut-off, the scan bans u's
whole orbit, not u alone.  This is exact because the banned set stays a union
of orbits: an automorphism maps a k-set that holds a vertex of u's orbit and
avoids the earlier orbits onto one that holds u, avoids them too and has the
same drop.  In the first root subtree, which starts with nothing banned, the
second removed vertex ranges likewise over the orbits of u's stabilizer
(orbital branching, Ostrowski et al., Math. Program. 126, 2011); another root
subtree would need another stabilizer.  A vertex-transitive graph, as the
paper's circulants are, needs the root check and one root subtree.  The group
is searched once, when the first subtree below u ends undecided, by the
generator-only canon._automorphisms (no canonical code), from the root
partition with u's cell first and u first in it, so the generators found
below u generate u's stabilizer (McKay, Congressus Numerantium 30, 1981).
It is searched only for k >= 2 and graphs of at least _ORBIT_MIN_N vertices:
a scan that stops early, or at k = 1 where each subtree is one witness test,
would pay more for the search than it saves.

Once the group is known, the pool uses it at every depth: an automorphism
maps a witness onto an independent set of the same size, so each pooled set,
and each witness the solver returns later, joins the pool with its images
under the root generators, those that move u.  The stabilizer's generators
are left out: they multiply the pool, whose linear lookup then costs more
than the solver calls it saves.
"""

from __future__ import annotations

from indstab.canon import _automorphisms, _orbit, _refine_root
from indstab.graphs import Graph, vset, vset_members
from indstab.mis import _alpha_set_of, independent_set_at_least

# Scans of graphs with fewer vertices never search the automorphism group.
# Canonical augmentation runs its many scans on at most 11 vertices, where a
# search would cost more than it saves; the bound keeps them off this path.
_ORBIT_MIN_N = 12


def stability_bound(n: int, k: int, l: int) -> int:
    """Largest independence number a (k, l)-stable graph on n vertices can have."""
    if not n > k > l >= 0:
        raise ValueError(f"parameters must satisfy n > k > l >= 0, got {(n, k, l)}")
    return (n - k + 1) // 2 + l


class _RemovalScan:
    """One worst-drop scan over a graph's k-vertex removals, with its witness pool."""

    def __init__(self, g: Graph, k: int, a: int, stop: int, pool: list[int]):
        self.n = g.n
        self.adj = g.adj
        self.full = g.vertex_mask
        self.k = k
        self.a = a
        self.stop = stop
        self.best = 0  # largest drop certified so far
        self.pool = pool  # independent sets of g; the scan appends its own
        self.by_orbit = k >= 2 and g.n >= _ORBIT_MIN_N
        self.gens: list[list[int]] | None = None  # automorphism generators, once searched
        self.stab: list[list[int]] = []  # those that fix the first removed vertex
        self.moves: list[list[int]] = []  # the others, the root generators

    def witness(self, removed: int, size: int) -> int | None:
        """An independent set of >= size vertices avoiding `removed`, or None."""
        for w in self.pool:
            if not w & removed and w.bit_count() >= size:
                return w
        w = independent_set_at_least(self.adj, self.full & ~removed, size)
        if w is not None:
            self.pool.append(w)
            if self.moves:
                self.pool += self.images([w])
        return w

    def images(self, sets: list[int]) -> list[int]:
        """The images of `sets` under each root generator: independent sets
        of the same sizes."""
        return [vset(s[v] for v in vset_members(w)) for s in self.moves for w in sets]

    def scan(self, removed: int, banned: int, depth: int) -> bool:
        """Scan the k-sets extending `removed` by vertices outside `banned`.

        Returns True once the drop reaches `stop`.
        """
        w = self.witness(removed, self.a - self.best)
        while w is None:
            # no independent set of a - best vertices avoids `removed`
            self.best += 1
            if self.best >= self.stop:
                return True
            w = self.witness(removed, self.a - self.best)
        left = self.k - depth
        if not left:
            return False
        free = self.full & ~(removed | banned)
        cand = w & free
        # at the root and in the first root subtree, `removed` and `banned`
        # are unions of orbits of the automorphisms fixing `removed`
        by_orbit = self.by_orbit and (not depth or depth == 1 and not banned)
        # a k-set missing w is certified by w; the rest contain a vertex of w
        while cand and free.bit_count() >= left:
            bit = cand & -cand
            if self.scan(removed | bit, banned, depth + 1):
                return True
            if by_orbit:
                # a k-set through the orbit maps onto one through `bit`
                bit = self.orbit(bit, removed)
            banned |= bit
            free &= ~bit
            cand &= ~bit
        return False

    def orbit(self, bit: int, fixed: int) -> int:
        """The orbit of the vertex `bit` under the automorphisms fixing `fixed`,
        no vertex or the first removed one u, as a mask; the first call, which
        searches the group, comes from depth 1 of the first root subtree."""
        if self.gens is None:
            root = _refine_root(self.n, self.adj)
            u = fixed.bit_length() - 1
            i = next(i for i, c in enumerate(root) if u in c)  # u's cell first, u first in it
            root.insert(0, [u] + [v for v in root.pop(i) if v != u])
            self.gens = _automorphisms(self.n, self.adj, root)
            self.stab = [s for s in self.gens if s[u] == u]
            self.moves = [s for s in self.gens if s[u] != u]
            self.pool += self.images(self.pool)
        return vset(_orbit([bit.bit_length() - 1], self.stab if fixed else self.gens))


def _worst_drop(g: Graph, k: int, a: int, stop: int, pool: list[int]) -> int:
    """The worst drop of alpha = `a` over k-vertex removals, or a value >= stop
    as soon as one is found; the scan starts from `pool` and appends to it."""
    s = _RemovalScan(g, k, a, stop, pool)
    s.scan(0, 0, 0)
    return s.best


def _reach(n: int, k: int, a: int) -> int:
    """The most k deletions lower alpha = `a` on n vertices: k, and a - 1 while one is left."""
    return min(k, a - (k < n))


def alpha_drop(g: Graph, k: int) -> int:
    """Worst-case drop of the independence number over all k-vertex removals."""
    stability_bound(g.n, k, 0)
    a, w = _alpha_set_of(g)
    return (reach := _reach(g.n, k, a)) and _worst_drop(g, k, a, reach, [w])


def _within(g: Graph, L: int, H: int, k: int, F: int, r: int) -> bool:
    """Whether L <= alpha <= H and every k deletions leave alpha >= max(F, alpha - r)."""
    a, w = _alpha_set_of(g)
    cut = min(a - F, r)
    return L <= a <= H and (_reach(g.n, k, a) <= cut or _worst_drop(g, k, a, cut + 1, [w]) <= cut)


def is_stable(g: Graph, k: int, l: int) -> bool:
    """Whether every k-vertex removal lowers alpha by at most l."""
    stability_bound(g.n, k, l)
    return _within(g, 0, g.n, k, 0, l)


def is_tight_stable(g: Graph, k: int, l: int) -> bool:
    """(k, l)-stable and attaining the stability bound exactly."""
    b = stability_bound(g.n, k, l)
    return _within(g, b, b, k, b - l, g.n)


def stable_vertex_count(g: Graph) -> int:
    """Number of vertices whose removal leaves the independence number unchanged."""
    if g.n < 2:
        raise ValueError("stable_vertex_count needs at least 2 vertices")
    a, w = _alpha_set_of(g)
    s = _RemovalScan(g, 1, a, 1, [w])
    return sum(1 for v in range(g.n) if s.witness(1 << v, a) is not None)
