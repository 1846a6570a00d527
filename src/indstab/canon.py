"""Canonical forms by equitable refinement and individualization.

The canonical code of a graph is the lexicographically least upper-triangle
adjacency bit string over the leaf labelings of the refinement tree: starting
from the degree partition, cells are split by neighbor counts until stable,
then a vertex of the first non-singleton cell is individualized and the
process recurses.  The degree partition is read from the rows' bit counts,
with no masks.  Each later round counts neighbors only in the cells the
previous round split (at first every degree cell, or the new singleton): a
cell already has one count in each cell left whole, so the partitions are
those of counting in every cell.

The search runs in two phases.  _automorphisms finds generators of the
whole group with no code, by a first-path search as symmetry-only tools do
(saucy, Darga et al., DAC 2004).  Then _least walks the tree for the least
leaf, pruned by that group, which keeps highly symmetric graphs (complete,
empty, circulant) tractable.

Two graphs receive equal codes iff they are isomorphic: the code itself spells
out an adjacency matrix, so equal codes decode to the same labeled graph, and
invariance over relabelings holds because refinement commutes with
isomorphisms.  The test suite checks the codes against all-permutation
minimization, the least leaf against the unpruned walk, and the group
against networkx, brute force and the count of labeled graphs.
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


def _split(adj: tuple[int, ...], cells: list[list[int]], target: int, v: int) -> list[list[int]]:
    """The refined partition after individualizing v, a vertex of cells[target]."""
    cell = cells[target]
    split = cells[:target] + [[v], [u for u in cell if u != v]] + cells[target + 1:]
    return _refine(adj, split, [target])


def _is_automorphism(adj: tuple[int, ...], sigma: list[int]) -> bool:
    """Whether the vertex map `sigma` maps every row of `adj` onto its image's row."""
    for v, row in enumerate(adj):
        img = 0
        while row:
            low = row & -row
            img |= 1 << sigma[low.bit_length() - 1]
            row ^= low
        if img != adj[sigma[v]]:
            return False
    return True


def _equivalent_leaf(adj, cells, depth, sizes, first, stab) -> list[int] | None:
    """An automorphism mapping the first leaf onto a leaf below `cells`, or None.

    A node whose cell sizes differ from the first path's at its depth holds
    no such leaf; nor does a candidate in the orbit, under `stab` (the
    generators fixing the node's individualized vertices), of one tried.
    """
    if [len(c) for c in cells] != sizes[depth]:
        return None
    target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
    if target is None:
        sigma = [0] * len(first)
        for a, c in zip(first, cells):
            sigma[a] = c[0]
        return sigma if _is_automorphism(adj, sigma) else None
    tried: set[int] = set()
    for v in cells[target]:
        if v in tried:
            continue
        below = [s for s in stab if s[v] == v]
        sigma = _equivalent_leaf(adj, _split(adj, cells, target, v), depth + 1, sizes, first, below)
        if sigma:
            return sigma
        tried = _orbit([*tried, v], stab)
    return None


def _automorphisms(n: int, adj: tuple[int, ...],
                   root: list[list[int]] | None = None) -> list[list[int]]:
    """Generators of the automorphism group, as vertex maps, with no canonical code.

    Walks the first path (always the first vertex of the first non-singleton
    cell) from the refined partition `root`, or from the refined one-cell
    partition.  Then, bottom-up, it looks below each other vertex w of a
    path node's target cell for one leaf equivalent to the first, unless the
    generators found so far map the path vertex onto w or w onto a vertex
    tried in vain.  The generators found at depth d and below fix the path
    vertices above d and generate the group fixing them (McKay, Congressus
    Numerantium 30, 1981), so those found below depth 0 generate the
    stabilizer of the first path vertex.
    """
    path: list[tuple[list[list[int]], int]] = []
    sizes = []
    cells = root or _refine_root(n, adj)
    while True:
        sizes.append([len(c) for c in cells])
        target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            break
        path.append((cells, target))
        cells = _split(adj, cells, target, cells[target][0])
    first = [c[0] for c in cells]
    gens: list[list[int]] = []
    for depth in range(len(path) - 1, -1, -1):
        cells, target = path[depth]
        known = {cells[target][0]}  # v's orbit and the vertices known off it
        for w in cells[target]:
            if w in known:
                continue
            stab = [s for s in gens if s[w] == w]
            below = _split(adj, cells, target, w)
            sigma = _equivalent_leaf(adj, below, depth + 1, sizes, first, stab)
            if sigma:
                gens.append(sigma)
            known = _orbit([*known, w], gens)
    return gens


def _least(n: int, adj: tuple[int, ...], cells: list[list[int]], stab: list[list[int]], best=None):
    """The least leaf below `cells` as (code, perm), or `best` if no leaf is less.

    A candidate in the orbit of one already walked, under `stab` (the
    automorphisms fixing the vertices individualized above `cells`), only
    repeats its subtree, so it is skipped.  That never cuts the first least
    leaf of the unpruned walk, the one kept of leaves of equal code.
    """
    target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
    if target is None:
        perm = [c[0] for c in cells]
        code = _leaf_code(n, adj, perm)
        return (code, perm) if best is None or code < best[0] else best
    walked: set[int] = set()
    for v in cells[target]:
        if v in walked:
            continue
        best = _least(n, adj, _split(adj, cells, target, v), [s for s in stab if s[v] == v], best)
        walked |= _orbit([v], stab)
    return best


def _search(n: int, adj: tuple[int, ...], root: list[list[int]] | None = None):
    """Full refinement search, from the refined one-cell partition `root` if given.

    Returns (code, canonical_perm, generators): the CanonicalCode, the leaf
    labeling that spells it (positions to original vertices), and
    automorphisms, as vertex maps, that generate the full group.
    """
    cells = root or _refine_root(n, adj)
    gens = _automorphisms(n, adj, cells)
    code_int, perm = _least(n, adj, cells, gens)
    return CanonicalCode(_pack(code_int, n), n), perm, gens


def _pack(code_int: int, n: int) -> bytes:
    nbits = n * (n - 1) // 2
    return bytes([n]) + code_int.to_bytes((nbits + 7) // 8, "big")


def canonical(g: Graph) -> CanonicalCode:
    """Canonical code of a graph; equal across all relabelings."""
    return _search(g.n, g.adj)[0]
