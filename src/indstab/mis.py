"""Exact maximum-independent-set computation and the saturating-matching test.

The solver is branch and bound on bitmasks: branch on a maximum-degree vertex
of the residual subgraph (include it or exclude it), bound with a greedy
clique cover, and break every tie toward the lowest vertex label so witnesses
are reproducible.  One search body serves every query: it improves an
incumbent and returns once the incumbent reaches a cut-off, so the maximum
runs from a greedy incumbent with no cut-off and the threshold query ("an
independent set of at least t vertices") from t - 1 with cut-off t.  A
Graph value keeps its maximum once solved (_alpha_set_of) for alpha,
max_independent_set and the removal scans, whose pools start from its set.
Each node tests the bound before it picks a branch vertex; only the nodes
that survive pay for the degree pass.  The cover stops at one clique more
than the node can still gain.  When it has exactly that many, a set that
gains enough takes one vertex from every clique, so it holds each one-vertex
clique's vertex and none of their neighbors; the bound then asks the same of
what remains without them.  The bound does not shape the witness: a prune
drops only subtrees holding no set larger than the incumbent, and the branch
vertex depends on the residual subgraph alone, so any valid bound reaches
the same incumbents in the same order, and a tighter one visits fewer nodes.
Low-level helpers operate directly on adjacency rows and a vertex mask, which
lets the stability scans query induced subgraphs without rebuilding Graph
values.  For the small catalog classes, subset_alphas instead sweeps all 2^n
vertex masks once and tabulates every induced subgraph's independence number,
one byte lane per mask of a single int, handed back as bytes; alpha_profile
reduces that table to a tuple, the least one per subgraph size.  A lane's
value never exceeds n, so the lane arithmetic carries nothing across lanes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from indstab.graphs import Graph, _check_vset, vset_members


@dataclass(frozen=True)
class MisResult:
    """An exact independence number together with a witness set."""

    alpha: int
    witness: int  # vertex bitmask


@dataclass(frozen=True)
class Matching:
    """Pairwise vertex-disjoint edges of the queried graph."""

    pairs: tuple[tuple[int, int], ...]


def _cover_exceeds(adj: tuple[int, ...], sub: int, room: int) -> bool:
    """Whether the subgraph on `sub` may hold an independent set of more than
    `room` vertices; False proves it holds none.

    Any independent set meets each clique of a cover at most once.  The
    greedy cover grows each clique from the lowest remaining label by its
    lowest common neighbor, so it depends on `sub` alone.  A cover of at
    most `room` cliques answers False, and one that reaches room + 2 answers
    True there.  A cover of exactly room + 1 cliques leaves only sets of
    room + 1 vertices, one from every clique: each vertex that forms a clique
    alone is forced, and its neighbors are barred.  If a forced vertex has a
    neighbor in `sub`, the answer is the bound's on `sub` without the forced
    set F and its neighbors, with room - |F|; otherwise it is True.  On an
    independent `sub` every vertex is forced and none has a neighbor.
    """
    forced = near = 0
    left = room
    m = sub
    while m:
        if left < 0:
            return True
        clique = m & -m
        row = adj[clique.bit_length() - 1]
        cand = row & m
        if not cand:
            forced |= clique
            near |= row
        while cand:
            low = cand & -cand
            clique |= low
            cand &= adj[low.bit_length() - 1]
        m ^= clique
        left -= 1
    if left >= 0:
        return False
    if not near & sub:
        return True
    return _cover_exceeds(adj, sub & ~(forced | near), room - forced.bit_count())


def _grow(
    adj: tuple[int, ...], sub: int, chosen: int, size: int,
    best: int, best_set: int, stop: int,
) -> tuple[int, int]:
    """The largest independent set `chosen` plus part of `sub`, if it beats `best`.

    `chosen` (of `size` vertices) is independent and has no neighbor in
    `sub`.  Returns the incumbent (`best`, `best_set`) unless a strictly
    larger set is found, and returns as soon as the incumbent reaches `stop`.
    Include is tried before exclude, so the first optimum reached wins.  Each
    pass of the loop is one node: the include branch recurses, the exclude
    branch is the next pass.
    """
    while _cover_exceeds(adj, sub, best - size):
        # branch on a vertex of maximum residual degree, lowest label on ties
        bit = top = 0
        m = sub
        while m:
            low = m & -m
            m ^= low
            d = (adj[low.bit_length() - 1] & sub).bit_count()
            if d > top:
                top = d
                bit = low
        if not top:
            # `sub` is independent, and the bound let it past: it beats `best`
            return size + sub.bit_count(), chosen | sub
        best, best_set = _grow(
            adj, sub & ~(adj[bit.bit_length() - 1] | bit), chosen | bit, size + 1,
            best, best_set, stop,
        )
        if best >= stop:
            break
        sub ^= bit
    return best, best_set


def _greedy(adj: tuple[int, ...], mask: int, stop: int) -> tuple[int, int]:
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


def _alpha_set(adj: tuple[int, ...], mask: int) -> tuple[int, int]:
    """(alpha, a maximum independent set) of the induced subgraph on `mask`."""
    best, best_set = _greedy(adj, mask, mask.bit_count())
    return _grow(adj, mask, 0, 0, best, best_set, mask.bit_count())


def alpha_mask(adj: tuple[int, ...], mask: int) -> int:
    """Exact independence number of the induced subgraph on `mask`."""
    return _alpha_set(adj, mask)[0]


@cache
def _lanes(v: int) -> tuple[int, int, int, list[int]]:
    """Byte lanes of the 2^v masks below vertex v: 0x01, 0x7F and 0x80 in
    each, and for each j < v, 0xFF in the lanes whose mask lacks j."""
    ones = int.from_bytes(b"\x01" * (1 << v), "little")
    lacks = [
        int.from_bytes((b"\xff" * (1 << j) + bytes(1 << j)) * (1 << (v - 1 - j)), "little")
        for j in range(v)
    ]
    return ones, 0x7F * ones, ones << 7, lacks


def subset_alphas(adj: tuple[int, ...], n: int) -> bytes:
    """The independence number of every induced subgraph, as bytes indexed by vertex mask.

    Built one vertex at a time: the masks whose highest vertex is v extend
    the table of the masks below v, each taking the value of the mask without
    v, plus one exactly when the mask without v and its neighbors has the
    same value (a subgraph's alpha is at most its supergraph's).  The table
    is one int with a byte lane per mask.  The projection copies, for each
    neighbor j of v below it, the lanes without j onto those with j, and
    adding 0x7F to each lane of its xor with the table sets the lane's top
    bit where the two differ.  A lane holds at most n <= 64 < 128, so no
    carry or borrow crosses a lane.  Meant for n <= 8, the catalog range.
    """
    table = 0
    for v in range(n):
        ones, low7, high, lacks = _lanes(v)
        proj = table  # becomes each mask's value without v's neighbors
        m = adj[v] & ((1 << v) - 1)  # the neighbors of v below it
        while m:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            proj &= lacks[j]
            proj |= proj << (8 << j)
        differ = (((table ^ proj) + low7) & high) >> 7
        table |= (table + ones - differ) << (8 << v)
    return table.to_bytes(1 << n, "little")


def alpha_profile(table: bytes) -> tuple[int, ...]:
    """The tuple p(q), the least independence number over the q-vertex
    induced subgraphs, for q = 0..n, from an n-vertex graph's subset_alphas table.

    p(0) = 0 and p(n) = alpha.  p never decreases and rises by at most one
    per step, since removing a vertex never raises alpha and lowers it by at
    most one.
    """
    n = len(table).bit_length() - 1
    least = [n] * (n + 1)
    for mask, a in enumerate(table):
        size = mask.bit_count()
        if a < least[size]:
            least[size] = a
    return tuple(least)


def independent_set_at_least(
    adj: tuple[int, ...], mask: int, target: int
) -> int | None:
    """An independent set of at least `target` vertices inside `mask`, or None.

    The set is returned as a bitmask.  The search exits as soon as any
    independent set reaches the target, which makes stability scans cheap on
    graphs that are in fact stable.
    """
    size, chosen = _greedy(adj, mask, target)
    if size >= target:
        return chosen
    size, chosen = _grow(adj, mask, 0, 0, target - 1, 0, target)
    return chosen if size >= target else None


def _alpha_set_of(g: Graph) -> tuple[int, int]:
    """_alpha_set of the whole graph, solved once per Graph value and kept in its `_mis` slot."""
    out = getattr(g, "_mis", None)
    if out is None:
        out = _alpha_set(g.adj, g.vertex_mask)
        object.__setattr__(g, "_mis", out)
    return out


def alpha(g: Graph) -> int:
    """The independence number."""
    return _alpha_set_of(g)[0]


def max_independent_set(g: Graph) -> MisResult:
    """Exact maximum independent set with a deterministic witness.

    The witness is the first optimum reached by the fixed branching order
    (include before exclude, lowest label on every tie), so repeated runs and
    relabeling-free reruns return the same set: the kept solve's, unless its
    greedy start was optimal, when the search from alpha - 1 reaches it first.
    """
    a, w = _alpha_set_of(g)
    if w == _greedy(g.adj, g.vertex_mask, a)[1]:
        w = _grow(g.adj, g.vertex_mask, 0, 0, a - 1, 0, a)[1]
    return MisResult(a, w)


def is_independent(g: Graph, vertices: int) -> bool:
    """Whether a vertex set induces no edge."""
    _check_vset(g, vertices, "vertex set")
    return not any(g.adj[v] & vertices for v in vset_members(vertices))


def _augment(
    adj: tuple[int, ...], y: int, match_of: dict[int, int], v: int, seen: set[int]
) -> bool:
    """Extend `match_of` by an augmenting path from the `y` vertex `v`."""
    m = adj[v] & ~y
    while m:
        u = (m & -m).bit_length() - 1
        m &= m - 1
        if u in seen:
            continue
        seen.add(u)
        if u not in match_of or _augment(adj, y, match_of, match_of[u], seen):
            match_of[u] = v
            return True
    return False


def saturating_matching(g: Graph, y: int) -> Matching | None:
    """A matching covering the independent set `y` with edges into the rest.

    Returns None when Hall's condition fails, i.e. some subset of `y` has a
    smaller external neighborhood than itself.  Augmenting paths are explored
    in ascending label order, so the result is deterministic.
    """
    if not is_independent(g, y):
        raise ValueError("the queried set is not independent")
    ys = vset_members(y)
    match_of: dict[int, int] = {}  # right vertex -> y vertex
    for v in ys:
        if not _augment(g.adj, y, match_of, v, set()):
            return None
    pairs = sorted((yv, u) if yv < u else (u, yv) for u, yv in match_of.items())
    return Matching(tuple(pairs))
