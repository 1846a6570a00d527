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

The search runs in two phases over one depth-first leaf walk, _leaves,
which skips a candidate in the orbit of one already walked under the known
automorphisms fixing the node's individualized vertices.  _automorphisms
finds generators of the whole group with no code, by a first-path search as
symmetry-only tools do (saucy, Darga et al., DAC 2004): below each candidate
it takes the first leaf equivalent to the first path's.  Then _least takes
the least leaf code over the walk pruned by that group, which keeps highly
symmetric graphs (complete, empty, circulant) tractable.  _code, the one
function that returns a code, runs both; it skips the first when its caller
holds the group, as enumeration does for the classes it builds on.

Two graphs receive equal codes iff they are isomorphic: the code itself spells
out an adjacency matrix, so equal codes decode to the same labeled graph, and
invariance over relabelings holds because refinement commutes with
isomorphisms.  The test suite checks the codes against all-permutation
minimization, the least leaf against the unpruned walk, and the group
against networkx, brute force and the count of labeled graphs.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from operator import itemgetter

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


def _leaves(adj: tuple[int, ...], cells: list[list[int]], stab: list[list[int]],
            sizes: list[list[int]] | None = None, depth: int = 0) -> Iterator[list[int]]:
    """The leaf labelings below `cells`, at `depth` in the tree, depth first.

    A candidate in the orbit, under `stab` (automorphisms fixing the vertices
    individualized above `cells`), of one already walked only repeats its
    subtree, so it is skipped; a child gets those fixing its new vertex.
    Given `sizes`, the first path's cell sizes by depth, a node whose sizes
    differ holds no leaf equivalent to the first, so it is skipped too.
    """
    if sizes and [len(c) for c in cells] != sizes[depth]:
        return
    target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
    if target is None:
        yield [c[0] for c in cells]
        return
    walked: set[int] = set()
    for v in cells[target]:
        if v in walked:
            continue
        below = [s for s in stab if s[v] == v]
        yield from _leaves(adj, _split(adj, cells, target, v), below, sizes, depth + 1)
        walked |= _orbit([v], stab)


def _automorphisms(n: int, adj: tuple[int, ...],
                   root: list[list[int]] | None = None) -> list[list[int]]:
    """Generators of the automorphism group, as vertex maps, with no canonical code.

    Walks the first path (always the first vertex of the first non-singleton
    cell) from the refined partition `root`, or from the refined one-cell
    partition.  Then, bottom-up, below each other vertex w of a path node's
    target cell it takes the first leaf of _leaves whose map from the first
    leaf is an automorphism, unless the generators found so far map the
    path vertex onto w or w onto a vertex tried in vain.  The generators
    found at depth d and below fix the path vertices above d and generate
    the group fixing them (McKay, Congressus Numerantium 30, 1981), so those
    found below depth 0 generate the stabilizer of the first path vertex.
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
            for leaf in _leaves(adj, _split(adj, cells, target, w), stab, sizes, depth + 1):
                sigma = [0] * n
                for a, b in zip(first, leaf):
                    sigma[a] = b
                if _is_automorphism(adj, sigma):
                    gens.append(sigma)
                    break
            known = _orbit([*known, w], gens)
    return gens


def _least(n: int, adj: tuple[int, ...], cells: list[list[int]], stab: list[list[int]]):
    """The least leaf below `cells` as (code, perm), over _leaves under `stab`.

    Its skipped subtrees repeat walked ones, so it never cuts the first
    least leaf of the unpruned walk, the one `min` keeps of equal codes.
    """
    return min(((_leaf_code(n, adj, perm), perm) for perm in _leaves(adj, cells, stab)),
               key=itemgetter(0))


def _code(n: int, adj: tuple[int, ...], root: list[list[int]] | None,
          gens: list[list[int]] | None) -> CanonicalCode:
    """The canonical code: the least leaf below the refined one-cell partition
    `root` (computed when None) under the generators `gens` of the
    automorphism group, searched first when None."""
    cells = root or _refine_root(n, adj)
    code = _least(n, adj, cells, _automorphisms(n, adj, cells) if gens is None else gens)[0]
    return CanonicalCode(bytes([n]) + code.to_bytes((n * (n - 1) // 2 + 7) // 8, "big"), n)


def canonical(g: Graph) -> CanonicalCode:
    """Canonical code of a graph; equal across all relabelings."""
    return _code(g.n, g.adj, None, None)
