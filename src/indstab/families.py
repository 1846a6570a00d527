"""Deterministic generators for the named extremal graph families.

Labelings are fixed so containment claims hold literally: the near-perfect
matching family uses the same part layout as the balanced complete
multipartite family, making M_n a labeled subgraph of K_n's tight analogue
for every n.  Same parameters always produce the identical labeled graph.
"""

from __future__ import annotations

from indstab.graphs import MAX_VERTICES, Graph, build, disjoint_union


def kn_tight(n: int) -> Graph:
    """Balanced complete bipartite graph, plus a singleton part when n is odd.

    Parts are {0..h-1} and {h..2h-1} with h = n // 2; odd n adds vertex n-1
    joined to everything.  Tight (1, 0)-stable for every n >= 2.
    """
    if n < 2:
        raise ValueError(f"kn_tight needs n >= 2, got {n}")
    h = n // 2
    edges = [(i, j) for i in range(h) for j in range(h, 2 * h)]
    if n % 2:
        edges += [(v, n - 1) for v in range(n - 1)]
    return build(n, edges)


def mn_matching(n: int) -> Graph:
    """Perfect matching (n even) or a matching plus one triangle (n odd).

    Even n = 2h: edges (i, i + h).  Odd n = 2h + 1: edges (i, i + h) for
    i in 1..h-1 plus the triangle {0, h, 2h}.  Both are labeled subgraphs of
    kn_tight(n).
    """
    if n < 2:
        raise ValueError(f"mn_matching needs n >= 2, got {n}")
    h = n // 2
    if n % 2 == 0:
        edges = [(i, i + h) for i in range(h)]
    else:
        edges = [(i, i + h) for i in range(1, h)]
        edges += [(0, h), (0, 2 * h), (h, 2 * h)]
    return build(n, edges)


def cycle(n: int) -> Graph:
    """The n-cycle with ring labeling."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return build(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    """The n-vertex path with line labeling."""
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    return build(n, [(i, i + 1) for i in range(n - 1)])


def wheel(n: int) -> Graph:
    """An (n-1)-cycle plus a hub (label n-1) adjacent to every rim vertex."""
    if n < 4:
        raise ValueError(f"wheel needs n >= 4, got {n}")
    return build(n, cycle(n - 1).edges() + [(i, n - 1) for i in range(n - 1)])


def circulant(n: int, diffs) -> Graph:
    """Circulant graph on Z/nZ: i ~ j iff (i - j) mod n lies in the difference set.

    Differences are circle distances, so d and n - d are the same difference;
    each d must satisfy 1 <= d <= n / 2.
    """
    if not 3 <= n <= MAX_VERTICES:
        raise ValueError(f"circulant needs 3 <= n <= {MAX_VERTICES}, got {n}")
    dset = set(diffs)
    for d in dset:
        if not 1 <= d <= n // 2:
            raise ValueError(f"difference {d} outside [1, {n // 2}] for n={n}")
    edges = [
        (i, (i + d) % n) for i in range(n) for d in dset if i != (i + d) % n
    ]
    return build(n, edges)


def stable3_circulant(m: int) -> Graph:
    """Circulant on 2m^2 + 2m vertices with differences {m, m+1}.

    (3, 0)-stable with independence number m^2; defined for m >= 3, and the
    64-vertex cap bounds m at 5.
    """
    if m < 3:
        raise ValueError(f"stable3_circulant needs m >= 3, got {m}")
    n = 2 * m * m + 2 * m
    if n > MAX_VERTICES:
        raise ValueError(f"stable3_circulant({m}) needs {n} vertices > {MAX_VERTICES}")
    return circulant(n, {m, m + 1})


def stable4_circulant(m: int) -> Graph:
    """Circulant on 2m^2 + 2m + 1 vertices with differences {m, m+1}.

    (4, 0)-stable; defined for m >= 3, capped at m = 5 (61 vertices).
    """
    if m < 3:
        raise ValueError(f"stable4_circulant needs m >= 3, got {m}")
    n = 2 * m * m + 2 * m + 1
    if n > MAX_VERTICES:
        raise ValueError(f"stable4_circulant({m}) needs {n} vertices > {MAX_VERTICES}")
    return circulant(n, {m, m + 1})


def even20_circulant(k: int) -> Graph:
    """Circulant on 2k vertices with differences {1, k} (a cycle plus diameters)."""
    if k < 3:
        raise ValueError(f"even20_circulant needs k >= 3, got {k}")
    if 2 * k > MAX_VERTICES:
        raise ValueError(f"even20_circulant({k}) needs {2 * k} vertices > {MAX_VERTICES}")
    return circulant(2 * k, {1, k})


def figure2() -> Graph:
    """Six vertices: a triangle {0,1,2} with pendant partners {3,4,5}.

    Tight (1, 0)-stable but, containing a triangle, not a subgraph of any
    complete bipartite graph.
    """
    return build(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])


def lift(g: Graph, j: int) -> Graph:
    """Disjoint union with j isolated vertices.

    Lifting a tight (k, l)-stable graph once yields a tight (k+1, l+1)-stable
    graph, so families transport up the parameter ladder.
    """
    if j < 0:
        raise ValueError(f"lift needs j >= 0, got {j}")
    if g.n + j > MAX_VERTICES:
        raise ValueError(f"lift would exceed {MAX_VERTICES} vertices")
    if j == 0:
        return g
    return disjoint_union(g, build(j, []))


def _splitmix64(state: int):
    """The splitmix64 stream: documented fixed generator for seeded sampling.

    state advances by 0x9E3779B97F4A7C15 per draw; each output is the
    mixed state (shift-xor-multiply twice, final shift).  All arithmetic is
    modulo 2^64, so the stream is identical on every platform.
    """
    mask = (1 << 64) - 1
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)


def sandwich_sample(n: int, seed: int) -> Graph:
    """A seeded graph between mn_matching(n) and kn_tight(n) in the labeled order.

    Every edge of the matching family is present; each remaining edge of the
    bipartite family is included iff the low bit of the next splitmix64 output
    is set, taking optional edges in sorted order.  Same (n, seed) always
    yields the same graph.
    """
    if n < 4:
        raise ValueError(f"sandwich_sample needs n >= 4, got {n}")
    low = mn_matching(n)
    high = kn_tight(n)
    edges = low.edges()
    optional = [e for e in high.edges() if not low.has_edge(*e)]
    stream = _splitmix64(seed & ((1 << 64) - 1))
    for e, value in zip(optional, stream):
        if value & 1:
            edges.append(e)
    return build(n, edges)


# family -> (generator, its parameters in order); the parameter names are the
# flags of the `construct` command
FAMILIES = {
    "kn_tight": (kn_tight, ("n",)),
    "mn_matching": (mn_matching, ("n",)),
    "cycle": (cycle, ("n",)),
    "path": (path, ("n",)),
    "wheel": (wheel, ("n",)),
    "circulant": (circulant, ("n", "diff")),
    "stable3": (stable3_circulant, ("m",)),
    "stable4": (stable4_circulant, ("m",)),
    "even20": (even20_circulant, ("k",)),
    "figure2": (figure2, ()),
    "lift": (lift, ("graph", "j")),
    "sandwich": (sandwich_sample, ("n", "seed")),
}
