"""Canonical forms by equitable refinement and individualization.

The canonical code of a graph is the lexicographically least upper-triangle
adjacency bit string over the leaf labelings of the refinement tree: starting
from the degree partition, cells are split by neighbor counts until stable,
then a vertex of the first non-singleton cell is individualized and the
process recurses.  The degree partition is read from the rows' bit counts,
with no masks.  Each later round counts neighbors only in the cells the
previous round split (at first every degree cell, or the new singleton): a
cell already has one count in each cell left whole, so the partitions are
those of counting in every cell.  Discovered automorphisms
prune branches that can only replay an explored subtree, which keeps highly
symmetric graphs (complete, empty, circulant) tractable.  The discovered set
generates the full automorphism group, so it is returned with the code and its
labeling, and a vertex's orbit is its closure under those generators.

Two graphs receive equal codes iff they are isomorphic: the code itself spells
out an adjacency matrix, so equal codes decode to the same labeled graph, and
invariance over relabelings holds because refinement commutes with
isomorphisms.  This is cross-validated against all-permutation minimization
in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from indstab.graphs import Graph


@dataclass(frozen=True, order=True)
class CanonicalCode:
    """Isomorphism-invariant identifier: equal codes iff isomorphic graphs."""

    code: bytes
    n: int

    def __repr__(self) -> str:
        return f"CanonicalCode(n={self.n}, {self.code.hex()})"


def _refine(adj: tuple[int, ...], cells: list[list[int]], fresh: list[int]) -> list[list[int]]:
    """Equitable refinement of an ordered partition.

    Splits cells by their count vector of neighbors in the fresh cells (those
    indexed by `fresh`, then the pieces of each cell the last round split),
    sub-cells by ascending vector, so the procedure commutes with isomorphisms.
    Counting in every cell gives the same partition: a cell's vertices share
    their count in each cell left whole.  This holds from the start for a root
    call on one cell, and for an individualization of an equitable partition
    passing [v], whose count fixes the next cell's, the rest of v's old cell.
    """
    while fresh:
        masks = []
        for i in fresh:
            m = 0
            for v in cells[i]:
                m |= 1 << v
            masks.append(m)
        new_cells: list[list[int]] = []
        fresh = []
        for c in cells:
            if len(c) == 1:
                new_cells.append(c)
                continue
            sigs: dict[int | tuple[int, ...], list[int]] = {}
            if len(masks) == 1:
                m = masks[0]
                for v in c:
                    sigs.setdefault((adj[v] & m).bit_count(), []).append(v)
            else:
                for v in c:
                    a = adj[v]
                    sigs.setdefault(tuple([(a & m).bit_count() for m in masks]), []).append(v)
            if len(sigs) == 1:
                new_cells.append(c)
            else:
                for sig in sorted(sigs):
                    fresh.append(len(new_cells))
                    new_cells.append(sigs[sig])
        cells = new_cells
    return cells


def _refine_root(n: int, adj: tuple[int, ...]) -> list[list[int]]:
    """The refined one-cell partition, equal to _refine(adj, [list(range(n))], [0]).

    Its first round is the degree partition, read from `bit_count` with no
    masks, so refinement starts there with every cell fresh.
    """
    by_degree: dict[int, list[int]] = {}
    for v in range(n):
        by_degree.setdefault(adj[v].bit_count(), []).append(v)
    if len(by_degree) == 1:
        return list(by_degree.values())
    return _refine(adj, [by_degree[d] for d in sorted(by_degree)], list(range(len(by_degree))))


def _leaf_code(n: int, adj: tuple[int, ...], perm: list[int]) -> int:
    """Upper-triangle bits of the relabeled adjacency matrix, row-major."""
    code = 0
    for i in range(n):
        row = adj[perm[i]]
        for j in range(i + 1, n):
            code = (code << 1) | ((row >> perm[j]) & 1)
    return code


def _orbit(points: list[int], gens: list[list[int]]) -> set[int]:
    """Closure of `points` under the vertex maps in `gens`."""
    orbit = set(points)
    frontier = list(points)
    while frontier:
        u = frontier.pop()
        for s in gens:
            w = s[u]
            if w not in orbit:
                orbit.add(w)
                frontier.append(w)
    return orbit


def _descend(n: int, adj: tuple[int, ...], cells: list[list[int]], fixed: list[int], leaves, gens,
             stab: list[list[int]]):
    """Search the refinement tree below `cells`, reached by individualizing `fixed`.

    `leaves` holds the first and the least leaf found so far, each as
    (code, perm); `gens` collects, as vertex maps, the automorphisms found
    between leaves of equal code, and `stab` those found before this node
    that fix every vertex of `fixed`.
    """
    target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
    if target is None:
        perm = [c[0] for c in cells]
        code = _leaf_code(n, adj, perm)
        if not leaves:
            leaves += [(code, perm)] * 2
            return
        for ref_code, ref_perm in leaves:
            if code == ref_code and perm != ref_perm:
                sigma = [0] * n
                for i in range(n):
                    sigma[ref_perm[i]] = perm[i]
                gens.append(sigma)
                break
        if code < leaves[1][0]:
            leaves[1] = (code, perm)
        return

    cell = cells[target]
    cand = list(cell)
    done: list[int] = []
    while cand:
        v = cand.pop(0)
        split = cells[:target] + [[v], [u for u in cell if u != v]] + cells[target + 1:]
        below = [s for s in stab if s[v] == v] if stab else stab  # the child's stab
        seen = len(gens)
        _descend(n, adj, _refine(adj, split, [target]), fixed + [v], leaves, gens, below)
        done.append(v)
        if cand and len(gens) > seen:  # found below v: test against the whole prefix
            stab = stab + [s for s in gens[seen:] if all(s[p] == p for p in fixed)]
        if cand and stab:
            # a candidate that an automorphism fixing `fixed` maps into the
            # processed ones can only replay an explored subtree
            orbit = _orbit(done, stab)
            cand = [u for u in cand if u not in orbit]


def _search(n: int, adj: tuple[int, ...], root: list[list[int]] | None = None):
    """Full refinement search, from the refined one-cell partition `root` if given.

    Returns (code, canonical_perm, generators): the CanonicalCode, the leaf
    labeling that spells it (positions to original vertices), and
    automorphisms, as vertex maps, that generate the full group.
    """
    leaves: list[tuple[int, list[int]]] = []
    gens: list[list[int]] = []
    _descend(n, adj, root or _refine_root(n, adj), [], leaves, gens, [])
    code_int, perm = leaves[1]
    return CanonicalCode(_pack(code_int, n), n), perm, gens


def _pack(code_int: int, n: int) -> bytes:
    nbits = n * (n - 1) // 2
    return bytes([n]) + code_int.to_bytes((nbits + 7) // 8, "big")


def canonical(g: Graph) -> CanonicalCode:
    """Canonical code of a graph; equal across all relabelings."""
    return _search(g.n, g.adj)[0]
