"""Independent brute-force oracles the solver implementations are checked against.

Everything here deliberately avoids the package's own algorithms: the
independence oracle scans every one of the 2^n vertex subsets with vectorized
edge tests, and the subset-alpha oracle takes each mask's largest
independent subset from that scan.  The profile oracle reads every lane of
a table, the isomorphism oracle minimizes the adjacency code over all n!
permutations, and the census oracle deduplicates every labeled graph.  The
attachment oracle takes the automorphism group from the package's canonical
search, but walks every one of the 2^n attachment sets.  The refinement
oracle recomputes every cell's count vector in every round.  The plain
branch-and-bound is the solver as it stood before its bound was tested first:
every node recomputes each residual degree and the whole greedy clique cover,
and recurses on both branches, so its witnesses pin the package solver's.  The
maximum-set walk lists every maximum independent set under the plain solver's
alpha, and the stable-vertex check solves every one-vertex removal.  The
Erdos-Rogers subset oracle scans vertex subsets from the largest size down.
The labeling, orbit and generator views of one graph are thin wrappers over
the package's canonical search, which the tests check against brute force.
The group oracle closes the identity under the given generators; the
path group-order oracle multiplies orbit sizes along a first path it walks
again with the package's refinement.
The stabilizer-orbit oracle joins each vertex to its images under every
automorphism networkx's VF2++ matcher lists with the fixed vertex in a
colour of its own; for the whole group, and on graphs with twin vertices,
it asks the matcher whether a vertex maps onto each orbit found so far.
"""

from __future__ import annotations

from itertools import combinations, permutations

import networkx as nx
import numpy as np

from indstab.canon import _automorphisms, _least, _orbit, _refine_root, _split
from indstab.graphs import Graph, build, vset


def _independent_subsets(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(independent, sizes) over all 2^n vertex subsets, indexed by mask."""
    n = g.n
    subsets = np.arange(1 << n, dtype=np.uint32)
    independent = np.ones(1 << n, dtype=bool)
    for u in range(n):
        row = g.adj[u]
        for v in range(u + 1, n):
            if (row >> v) & 1:
                independent &= ~(((subsets >> u) & (subsets >> v)) & 1).astype(bool)
    sizes = np.zeros(1 << n, dtype=np.uint8)
    for v in range(n):
        sizes += ((subsets >> v) & 1).astype(np.uint8)
    return independent, sizes


def alpha_brute(g: Graph) -> int:
    """Independence number by scanning all 2^n subsets for independence."""
    independent, sizes = _independent_subsets(g)
    return int(sizes[independent].max())


def subset_alphas_brute(g: Graph) -> bytes:
    """Every induced subgraph's independence number, indexed by vertex mask:
    the largest independent subset below each mask, taken over one bit at
    a time from the independent subsets' sizes."""
    independent, sizes = _independent_subsets(g)
    best = np.where(independent, sizes, 0).astype(np.uint8)
    masks = np.arange(1 << g.n)
    for v in range(g.n):
        above = masks[(masks >> v) & 1 == 1]
        best[above] = np.maximum(best[above], best[above ^ (1 << v)])
    return best.tobytes()


def alpha_profile_plain(table: bytes) -> tuple[int, ...]:
    """The least independence number per subgraph size, by one pass over
    every lane of a subset_alphas table."""
    n = len(table).bit_length() - 1
    least = [n] * (n + 1)
    for mask, a in enumerate(table):
        size = mask.bit_count()
        if a < least[size]:
            least[size] = a
    return tuple(least)


def max_clique_brute(g: Graph) -> int:
    """Largest clique size by direct subset scan (small n only)."""
    best = 1
    for size in range(g.n, 1, -1):
        for members in combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in combinations(members, 2)):
                return size
    return best


def _cover_bound(adj: tuple[int, ...], mask: int) -> int:
    """Greedy clique cover size of the subgraph on `mask`."""
    k = 0
    m = mask
    while m:
        v = (m & -m).bit_length() - 1
        clique = 1 << v
        cand = adj[v] & m
        while cand:
            u = (cand & -cand).bit_length() - 1
            clique |= 1 << u
            cand &= adj[u]
        m &= ~clique
        k += 1
    return k


def _max_degree_vertex(adj: tuple[int, ...], mask: int) -> tuple[int, int]:
    """Vertex of maximum residual degree in `mask`, lowest label on ties."""
    best_v = -1
    best_d = -1
    m = mask
    while m:
        v = (m & -m).bit_length() - 1
        d = (adj[v] & mask).bit_count()
        if d > best_d:
            best_d = d
            best_v = v
        m &= m - 1
    return best_v, best_d


def _plain_grow(
    adj: tuple[int, ...], sub: int, chosen: int, size: int,
    best: int, best_set: int, stop: int,
) -> tuple[int, int]:
    """The plain branch-and-bound: include the maximum-degree vertex, then
    exclude it, bounding each node by its full greedy clique cover."""
    v, d = _max_degree_vertex(adj, sub)
    if d <= 0:
        total = size + sub.bit_count()
        if total > best:
            return total, chosen | sub
        return best, best_set
    if size + _cover_bound(adj, sub) <= best:
        return best, best_set
    best, best_set = _plain_grow(
        adj, sub & ~(adj[v] | (1 << v)), chosen | (1 << v), size + 1,
        best, best_set, stop,
    )
    if best >= stop:
        return best, best_set
    return _plain_grow(adj, sub & ~(1 << v), chosen, size, best, best_set, stop)


def _plain_greedy(adj: tuple[int, ...], mask: int, stop: int) -> tuple[int, int]:
    """Greedy independent set in `mask`, lowest label first, cut off at `stop`."""
    size = 0
    chosen = 0
    m = mask
    while m and size < stop:
        v = (m & -m).bit_length() - 1
        chosen |= 1 << v
        size += 1
        m &= ~(adj[v] | (1 << v))
    return size, chosen


def plain_alpha_mask(adj: tuple[int, ...], mask: int) -> int:
    """The plain solver's answer to mis.alpha_mask."""
    best, best_set = _plain_greedy(adj, mask, mask.bit_count())
    return _plain_grow(adj, mask, 0, 0, best, best_set, mask.bit_count())[0]


def plain_set_at_least(adj: tuple[int, ...], mask: int, target: int) -> int | None:
    """The plain solver's answer to mis.independent_set_at_least."""
    if target <= 0:
        return 0
    size, chosen = _plain_greedy(adj, mask, target)
    if size >= target:
        return chosen
    size, chosen = _plain_grow(adj, mask, 0, 0, target - 1, 0, target)
    return chosen if size >= target else None


def plain_max_independent_set(g: Graph) -> tuple[int, int]:
    """The plain solver's (alpha, witness) for mis.max_independent_set."""
    mask = g.vertex_mask
    return _plain_grow(g.adj, mask, 0, 0, 0, 0, mask.bit_count())


def _walk(
    adj: tuple[int, ...], sub: int, chosen: int, size: int, target: int,
    out: list[int],
) -> None:
    """Append to `out` every independent set of `target` vertices: `chosen`
    plus part of `sub`."""
    if _cover_bound(adj, sub) <= target - size - 1:
        return
    if size == target:
        out.append(chosen)
        return
    if not sub:
        return
    v = (sub & -sub).bit_length() - 1
    _walk(adj, sub & ~(adj[v] | (1 << v)), chosen | (1 << v), size + 1, target, out)
    _walk(adj, sub & ~(1 << v), chosen, size, target, out)


def all_max_independent_sets(g: Graph) -> list[int]:
    """Every maximum independent set, as bitmasks sorted by value.

    Guarded to n <= 32 because the output can be exponential.
    """
    if g.n > 32:
        raise ValueError(f"all_max_independent_sets is limited to n <= 32, got {g.n}")
    out: list[int] = []
    _walk(g.adj, g.vertex_mask, 0, 0, plain_alpha_mask(g.adj, g.vertex_mask), out)
    out.sort()
    return out


def check_stable_vertex_bound(g: Graph) -> bool:
    """alpha(G) <= floor(n - m/2) with m the stable vertex count; expected True.

    A vertex is stable when its removal leaves alpha unchanged; each removal
    is solved afresh.
    """
    if g.n < 2:
        raise ValueError("check needs at least 2 vertices")
    full = g.vertex_mask
    a = plain_alpha_mask(g.adj, full)
    m = sum(plain_alpha_mask(g.adj, full & ~(1 << v)) == a for v in range(g.n))
    return a <= (2 * g.n - m) // 2


def max_subset_alpha_below(g: Graph, s: int) -> int:
    """Largest |S| whose induced subgraph has independence number <= s - 1.

    Scans subset sizes downward and stops at the first size with a qualifying
    subset; smaller sizes cannot do better.
    """
    for q in range(g.n, 0, -1):
        for members in combinations(range(g.n), q):
            if plain_alpha_mask(g.adj, vset(members)) <= s - 1:
                return q
    return 0


_PERM_CACHE: dict[int, np.ndarray] = {}


def _perms(n: int) -> np.ndarray:
    if n not in _PERM_CACHE:
        _PERM_CACHE[n] = np.array(list(permutations(range(n))), dtype=np.int64)
    return _PERM_CACHE[n]


def min_code_all_perms(g: Graph) -> int:
    """Minimum upper-triangle adjacency code over every vertex permutation."""
    n = g.n
    if n == 1:
        return 0
    a = np.zeros((n, n), dtype=np.uint8)
    for u in range(n):
        for v in range(n):
            a[u, v] = (g.adj[u] >> v) & 1
    perms = _perms(n)
    permuted = a[perms[:, :, None], perms[:, None, :]]
    iu, ju = np.triu_indices(n, k=1)
    bits = permuted[:, iu, ju].astype(np.uint64)
    nbits = len(iu)
    weights = (np.uint64(1) << np.arange(nbits - 1, -1, -1, dtype=np.uint64))
    codes = bits @ weights
    return int(codes.min())


def refine_full(n: int, adj: tuple[int, ...], cells: list[list[int]]) -> list[list[int]]:
    """Equitable refinement of an ordered partition, counting in every cell.

    Repeatedly splits cells by the count vector of neighbors in every current
    cell; sub-cells are ordered by ascending count vector.
    """
    while True:
        masks = []
        for c in cells:
            m = 0
            for v in c:
                m |= 1 << v
            masks.append(m)
        new_cells: list[list[int]] = []
        changed = False
        for c in cells:
            if len(c) == 1:
                new_cells.append(c)
                continue
            sigs: dict[tuple[int, ...], list[int]] = {}
            for v in c:
                row = adj[v]
                sig = tuple((row & m).bit_count() for m in masks)
                sigs.setdefault(sig, []).append(v)
            if len(sigs) == 1:
                new_cells.append(c)
            else:
                changed = True
                for sig in sorted(sigs):
                    new_cells.append(sigs[sig])
        if not changed:
            return new_cells
        cells = new_cells


def canonical_labeling(g: Graph) -> tuple[int, ...]:
    """A labeling achieving the canonical code: position -> original vertex."""
    root = _refine_root(g.n, g.adj)
    return tuple(_least(g.n, g.adj, root, _automorphisms(g.n, g.adj, root))[1])


def vertex_orbits(g: Graph) -> list[list[int]]:
    """Orbits of the automorphism group on vertices, each sorted, by least member."""
    gens = _automorphisms(g.n, g.adj)
    orbits: list[list[int]] = []
    for v in range(g.n):
        if not any(v in o for o in orbits):
            orbits.append(sorted(_orbit([v], gens)))
    return orbits


def stabilizer_orbits(g: Graph, u: int | None = None) -> set[frozenset[int]]:
    """Orbits of the automorphisms of g that fix u (all of them when u is
    None).

    With u fixed, in a colour of its own, networkx's VF2++ matcher lists
    every automorphism that fixes it, and a union-find joins each vertex to
    its images.  The whole group, and the group of a graph with two vertices
    of one neighbourhood (a lift's isolated vertices), can be far larger, so
    there w joins v's orbit when an isomorphism maps v, coloured 2, onto w,
    coloured 2: one matcher run per vertex and orbit found so far.
    """
    h = nx.Graph()
    h.add_nodes_from(range(g.n), c=0)
    h.add_edges_from(g.edges())
    if u is not None:
        h.nodes[u]["c"] = 1
    if u is None or len(set(g.adj)) < g.n:
        return _orbits_pairwise(h)
    root = list(range(g.n))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for iso in nx.vf2pp_all_isomorphisms(h, h, node_label="c"):
        for v, w in iso.items():
            root[find(v)] = find(w)
    orbits: dict[int, set[int]] = {}
    for v in range(g.n):
        orbits.setdefault(find(v), set()).add(v)
    return {frozenset(o) for o in orbits.values()}


def _orbits_pairwise(h: nx.Graph) -> set[frozenset[int]]:
    """Orbits of the colour-preserving automorphisms of h, one matcher run
    per vertex and orbit found so far."""

    def coloured(v: int) -> nx.Graph:
        k = h.copy()
        k.nodes[v]["c"] = 2
        return k

    orbits: list[list[int]] = []
    for w in h:
        k = coloured(w)
        for orbit in orbits:
            if nx.vf2pp_is_isomorphic(coloured(orbit[0]), k, node_label="c"):
                orbit.append(w)
                break
        else:
            orbits.append([w])
    return {frozenset(o) for o in orbits}


def group_elements(gens: list[list[int]], n: int) -> set[tuple[int, ...]]:
    """Every element of the permutation group on n points that `gens`
    generate, by closing the identity under composition with each generator."""
    identity = tuple(range(n))
    group, frontier = {identity}, [identity]
    while frontier:
        p = frontier.pop()
        for s in gens:
            q = tuple(s[v] for v in p)
            if q not in group:
                group.add(q)
                frontier.append(q)
    return group


def group_order(gens: list[list[int]], n: int) -> int:
    """Order of the permutation group on n points that `gens` generate."""
    return len(group_elements(gens, n))


def path_group_order(g: Graph, gens: list[list[int]]) -> int:
    """|Aut g| from generators found by a first-path search such as
    canon._automorphisms: the product, over the first path (always the first
    vertex of the first non-singleton cell), of each path vertex's orbit
    under the generators that fix every path vertex before it.  Those
    generate the pointwise stabilizer of that prefix, so the product is the
    group's order by orbit-stabilizer; a generator set short of the group
    gives less."""
    cells, order, stab = _refine_root(g.n, g.adj), 1, gens
    while (target := next((i for i, c in enumerate(cells) if len(c) > 1), None)) is not None:
        v = cells[target][0]
        order *= len(_orbit([v], stab))
        stab = [s for s in stab if s[v] == v]
        cells = _split(g.adj, cells, target, v)
    return order


def automorphism_generators(g: Graph) -> list[tuple[int, ...]]:
    """Vertex maps generating the automorphism group (possibly empty)."""
    return [tuple(s) for s in _automorphisms(g.n, g.adj)]


def attachment_sets_brute(g: Graph) -> list[int]:
    """The attachment sets T a canonical augmentation step of g tries, ascending:
    every mask that is least in its orbit under g's automorphism group, kept
    iff every vertex v has deg v + [v in T] >= |T| once the new vertex is
    joined to T."""
    gens = automorphism_generators(g)
    out = []
    for t in range(1 << g.n):
        orbit, frontier = {t}, [t]
        while frontier:
            cur = frontier.pop()
            for p in gens:
                img = sum(1 << p[v] for v in range(g.n) if (cur >> v) & 1)
                if img not in orbit:
                    orbit.add(img)
                    frontier.append(img)
        size = t.bit_count()
        if t == min(orbit) and all(
            g.degree(v) + ((t >> v) & 1) >= size for v in range(g.n)
        ):
            out.append(t)
    return out


def labeled_census(n: int) -> int:
    """Number of isomorphism classes by deduplicating all labeled graphs."""
    n_edges = n * (n - 1) // 2
    pairs = list(combinations(range(n), 2))
    seen = set()
    for bits in range(1 << n_edges):
        adj = [0] * n
        for idx, (u, v) in enumerate(pairs):
            if (bits >> idx) & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        seen.add(min_code_all_perms(Graph._wrap(n, tuple(adj))))
    return len(seen)


def isomorphic_brute(g: Graph, h: Graph) -> bool:
    """Permutation search for an isomorphism."""
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    return min_code_all_perms(g) == min_code_all_perms(h)


def complete(n: int) -> Graph:
    """K_n."""
    return build(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def random_graph(n: int, p: float, rng) -> Graph:
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph._wrap(n, tuple(adj))


def relabeled(g: Graph, perm: list[int]) -> Graph:
    """Copy of g with vertex v renamed perm[v]."""
    adj = [0] * g.n
    for u in range(g.n):
        for v in range(g.n):
            if (g.adj[u] >> v) & 1:
                adj[perm[u]] |= 1 << perm[v]
    return Graph._wrap(g.n, tuple(adj))
