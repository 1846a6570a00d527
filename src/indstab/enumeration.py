"""Isomorph-free generation of all n-vertex graphs, with pluggable filters.

Generation is by canonical augmentation: graphs grow one vertex at a time, and
a child is kept only when its newest vertex lies in the automorphism orbit of
the canonical deletion vertex (the last minimum-degree vertex in canonical
order).  The parent decides which attachment sets T can pass: with d its
minimum degree, |T| <= d, or |T| = d + 1 and T holds every vertex of degree d.
Those sets are deduplicated per parent by automorphism orbits, so each class
is produced exactly once, and the children of one parent depend on no other
parent.  The tree is walked depth first (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26, 1998); with workers, the caller walks down
to level n - 2 and hands the classes there to the pool as it reaches them.
A child whose new vertex is its only vertex of least degree is accepted
before any refinement: the deletion vertex's cell is then that vertex
alone.  Otherwise the search's leaves keep the cell order of the refined root
partition and automorphisms fix its cells, so a child whose new vertex lies
outside its last minimum-degree root cell is rejected before the search,
which then starts from that partition.  A child whose new vertex is that
cell alone is accepted without a search; it is searched only for the
generators its own children need, or when a caller asks for its code, which
emits receive as a zero-argument callable.  So most classes of the top
level, on which nothing is built, are never searched.

A search for one predicate prunes levels 1..n by the predicate's window: the
range of alpha that every induced subgraph of a matching graph on that many
vertices must have, and the floor its alpha keeps under deletions.  A
predicate of the form "L <= alpha <= H, and every k-vertex deletion leaves
alpha >= F" gives its `bounds` (L, H, k, F), from which one formula derives
the window at every level, and its `matches` too; at level n the window is
the predicate itself, so such a predicate is decided by it and never checked
again.  Canonical parents are induced subgraphs, so every matching class
still has its whole chain of ancestors, and since the window is
isomorphism-invariant, a child is tested before its canonical search; its
alpha is read from the parent's.  The vertex count is guarded at 10; n = 11
runs only behind the long-run flag.
"""

from __future__ import annotations

import multiprocessing
import signal
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Any, Callable, Iterator

from indstab.canon import CanonicalCode, _orbit, _refine_root, _search
from indstab.graphs import Graph
from indstab.mis import _alpha_set, independent_set_at_least
from indstab.stability import _worst_drop, is_stable, stability_bound

HARD_GUARD = 10
LONG_RUN_MAX = 11


# ---------------------------------------------------------------------------
# filter predicates


@dataclass(frozen=True)
class Predicate:
    """Base for registered graph predicates; subclasses are picklable."""

    cost = 0  # cheaper predicates are evaluated first inside And

    def matches(self, g: Graph) -> bool:
        """Whether g matches; a predicate with bounds (L, H, k, F) is decided
        from them: L <= alpha <= H, and one removal scan from the alpha
        witness shows that no k deletions take alpha below F."""
        b = self.bounds(g.n)
        if b is None:
            raise NotImplementedError
        L, H, k, F = b
        a, w = _alpha_set(g.adj, g.vertex_mask)
        return L <= a <= H and (not k or _worst_drop(g, k, a, a - F + 1, [w]) <= a - F)

    def bounds(self, n: int) -> tuple[int, int, int, int] | None:
        """(L, H, k, F) with F <= L when, on n-vertex graphs, the predicate is
        exactly: L <= alpha <= H, and every k-vertex deletion leaves
        alpha >= F; None for a predicate of another form.  Raises ValueError
        when the predicate's parameters are invalid for n-vertex graphs."""
        return None

    def window(self, n: int, m: int) -> tuple[int, int, int, int] | None:
        """(lo, hi, ks, floor) such that every m-vertex induced subgraph of
        every matching n-vertex graph has lo <= alpha <= hi, and keeps
        alpha >= floor after any ks of its vertices are deleted (ks = 0: no
        deletion asked), or None.  Wherever ks > 0, floor <= lo.

        Used as a hereditary generation prune; must be sound by definition of
        the predicate alone; the window derived from `bounds` is exact at
        m = n.  Raises ValueError when the predicate's parameters are invalid
        for n-vertex graphs.
        """
        b = self.bounds(n)
        if b is None:
            return None
        L, H, k, F = b
        # deleting a vertex lowers alpha by at most one.  The m-vertex
        # subgraph is n - m deletions: with n - m <= k, deleting k - (n - m)
        # more of its vertices deletes k in all, which leaves alpha >= F;
        # beyond k, each further one costs at most one below F
        return max(L - (n - m), F - max(0, n - k - m)), H, max(0, k - (n - m)), F

    def __and__(self, other: "Predicate") -> "Predicate":
        return And((self, other))


@dataclass(frozen=True)
class EdgeCountRange(Predicate):
    lo: int
    hi: int
    cost = 0

    def matches(self, g: Graph) -> bool:
        return self.lo <= g.edge_count() <= self.hi


@dataclass(frozen=True)
class ContainsTriangle(Predicate):
    cost = 1

    def matches(self, g: Graph) -> bool:
        for v in range(g.n):
            m = g.adj[v]
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                if u > v and g.adj[u] & g.adj[v]:
                    return True
        return False


@dataclass(frozen=True)
class AlphaEquals(Predicate):
    value: int
    cost = 2

    def bounds(self, n: int) -> tuple[int, int, int, int]:
        return self.value, self.value, 0, self.value


@dataclass(frozen=True)
class Stable(Predicate):
    """(k, l)-stability: no k-vertex deletion lowers alpha by more than l."""

    k: int
    l: int
    cost = 3

    def matches(self, g: Graph) -> bool:
        return is_stable(g, self.k, self.l)

    def bounds(self, n: int) -> None:
        stability_bound(n, self.k, self.l)  # validates n > k > l >= 0


@dataclass(frozen=True)
class TightStable(Predicate):
    """(k, l)-stability with alpha at the stability bound b: every k-vertex
    deletion leaves alpha >= b - l."""

    k: int
    l: int
    cost = 3

    def bounds(self, n: int) -> tuple[int, int, int, int]:
        b = stability_bound(n, self.k, self.l)
        return b, b, self.k, b - self.l


@dataclass(frozen=True)
class And(Predicate):
    parts: tuple[Predicate, ...]

    def matches(self, g: Graph) -> bool:
        return all(p.matches(g) for p in sorted(self.parts, key=lambda p: p.cost))

    def window(self, n: int, m: int) -> tuple[int, int, int, int] | None:
        # every part's (ks, floor) holds for a match; one is kept
        ws = [w for p in self.parts if (w := p.window(n, m)) is not None]
        if not ws:
            return None
        los, his, kss, floors = zip(*ws)
        return (max(los), min(his), *max(zip(kss, floors)))


_REGISTRY = {
    "edge-count-range": (EdgeCountRange, 2),
    "contains-triangle": (ContainsTriangle, 0),
    "alpha-equals": (AlphaEquals, 1),
    "stable": (Stable, 2),
    "tight-stable": (TightStable, 2),
}


def parse_predicate(text: str) -> Predicate:
    """Parse 'name' or 'name:arg1,arg2' into a registered predicate."""
    name, _, argstr = text.partition(":")
    name = name.strip()
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown predicate {name!r}; known: {', '.join(sorted(_REGISTRY))}"
        )
    cls, nargs = _REGISTRY[name]
    args = argstr.split(",") if argstr.strip() else []
    try:
        values = [int(a) for a in args]
    except ValueError:
        raise ValueError(f"predicate {name} takes integer arguments, got {argstr!r}") from None
    if len(values) != nargs:
        raise ValueError(f"predicate {name} takes {nargs} arguments, got {len(values)}")
    return cls(*values)


# ---------------------------------------------------------------------------
# canonical augmentation core

def _attachments(n: int, adj: tuple[int, ...], gens: list[list[int]]) -> tuple[int, int, list]:
    """(d, low, sets): the parent's minimum degree d, the mask `low` of its
    vertices of degree d, and the orbit-least attachment sets T under the
    parent's group, ascending.

    The new vertex must end up of minimum degree: |T| <= d, or |T| = d + 1 and
    T holds every vertex of the parent's minimum degree d.  The rule is
    automorphism-invariant, so only the allowed sets are orbit-closed.
    """
    degs = [row.bit_count() for row in adj]
    d = min(degs)
    low = sum(1 << v for v in range(n) if degs[v] == d)
    bits = [1 << v for v in range(n)]
    allowed = [sum(c) for size in range(d + 1) for c in combinations(bits, size)]
    if low.bit_count() <= d + 1:
        rest = [b for b in bits if not b & low]
        allowed += [low + sum(c) for c in combinations(rest, d + 1 - low.bit_count())]
    allowed.sort()
    reps, seen = [], set()
    for t in allowed:
        if t in seen:
            continue
        reps.append(t)  # the first set of each orbit is its least
        seen.add(t)
        orbit = [t]
        for cur in orbit:
            for g in gens:
                img = 0
                m = cur
                while m:
                    b = m & -m
                    img |= 1 << g[b.bit_length() - 1]
                    m ^= b
                if img not in seen:
                    seen.add(img)
                    orbit.append(img)
    return d, low, reps


def _deletion_cell(cadj: tuple[int, ...], root: list[list[int]], d: int) -> list[int]:
    """The cell of the deletion vertex's orbit: the last root cell of degree d."""
    return next(c for c in reversed(root) if cadj[c[0]].bit_count() == d)


def _expand(n: int, adj: tuple[int, ...], gens: list[list[int]], window):
    """Accepted children of one parent inside `window` (None: all), as
    (adj, root, found) triples: `root` is the child's refined root partition,
    or None when the child was accepted on degree alone, and `found` its
    _search result, or None when the child was accepted without a search.

    A child's removal scan starts from its own maximum independent set and
    from every set that its earlier siblings' scans found without the new
    vertex n: those lie in the parent's graph, so they are independent in
    every child.
    """
    out = []
    full = (1 << n) - 1
    if window is not None:
        lo, hi, ks, floor = window
        a, top = _alpha_set(adj, full)
        shared: list[int] = []  # the siblings' witnesses without vertex n
    d, low, sets = _attachments(n, adj, gens)
    for t in sets:
        # the child's alpha c is the parent's a, or a + 1 when an a-set avoids
        # T; both lie in the window when lo <= a < hi, so c is probed only
        # outside that or for the deletion test
        if window is not None and (ks or not lo <= a < hi):
            w = independent_set_at_least(adj, full & ~t, a)
            c, seed = (a, top) if w is None else (a + 1, w | 1 << n)
            if not lo <= c <= hi:
                continue
        cadj = tuple(row | (1 << n) if (t >> v) & 1 else row for v, row in enumerate(adj)) + (t,)
        # no ks-vertex deletion may take alpha below floor; c >= lo >= floor
        if window is not None and ks:
            pool = [seed, *shared]
            start = len(pool)
            drop = _worst_drop(Graph._wrap(n + 1, cadj), ks, c, c - floor + 1, pool)
            shared += [w for w in pool[start:] if not w >> n & 1]
            if drop > c - floor:
                continue
        k = t.bit_count()  # the child's least degree
        # the new vertex alone has degree k when every old vertex ends above
        # it: k < d, or k = d and T gives every vertex of degree d an edge
        if k < d or k == d and t & low == low:
            out.append((cadj, None, None))
            continue
        root = _refine_root(n + 1, cadj)
        cell = _deletion_cell(cadj, root, k)
        if n not in cell:
            continue
        if len(cell) == 1:  # the new vertex is the canonical deletion vertex
            out.append((cadj, root, None))
            continue
        found = _search(n + 1, cadj, root)
        f = next(v for v in reversed(found[1]) if cadj[v].bit_count() == k)
        if n in _orbit([f], found[2]):
            out.append((cadj, root, found))
    return out


def _code(n: int, adj: tuple[int, ...], root: list[list[int]] | None, found) -> CanonicalCode:
    """The canonical code of an accepted child, searched for if `found` is None."""
    return (found or _search(n, adj, root))[0]


def _walk(size: int, adj: tuple[int, ...], gens: list[list[int]], windows, emit, n: int,
          split: int = 0) -> Iterator[tuple[int | None, Any]]:
    """Yield (m, item) for the non-None emits on every accepted descendant of
    one class on `size` vertices, up to level n, depth first; a child on
    `split` vertices is emitted, then yielded as (None, (split, adj, gens))."""
    m = size + 1
    for cadj, root, found in _expand(size, adj, gens, windows[m]):
        if m < n:
            # the child's own children are built from its generators
            found = found or _search(m, cadj, root)
        item = emit(Graph._wrap(m, cadj), partial(_code, m, cadj, root, found))
        if item is not None:
            yield m, item
        if m == split:
            yield None, (m, cadj, found[2])
        elif m < n:
            yield from _walk(m, cadj, found[2], windows, emit, n, split)


def _subtrees(windows, emit, n: int, chunk) -> tuple[float, list[tuple[int, Any]]]:
    """Worker task: seconds per root, and each root's items, then its _walk."""
    start = time.perf_counter()
    out = [x for *items, (_, root) in chunk for x in (*items, *_walk(*root, windows, emit, n))]
    return (time.perf_counter() - start) / len(chunk), out


def _check_guard(n: int, allow_long: bool) -> None:
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    if n > LONG_RUN_MAX:
        raise ValueError(f"enumeration is not supported beyond n = {LONG_RUN_MAX}")
    if n > HARD_GUARD and not allow_long:
        raise ValueError(
            f"n = {n} exceeds the n <= {HARD_GUARD} guard; pass allow_long to "
            "run the long pipeline"
        )


@contextmanager
def _pool(jobs: int):
    """The worker pool of one enumerate_levels call, None for jobs = 1.

    Ctrl-C reaches the whole process group: the workers ignore it, and the
    parent raises it inside the block, whose exit terminates them.  SIGINT
    is blocked while Pool() starts the workers, since an interrupt there can
    leave one running unrecorded; a Ctrl-C held back is raised as the block
    is entered.  The pool's threads inherit the block.  Signal masks exist on
    POSIX only: elsewhere (Windows) Pool() starts unblocked, and that one
    guarantee does not hold.
    """
    if jobs == 1:
        yield None
        return
    unblock = lambda: None
    if hasattr(signal, "pthread_sigmask"):
        held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        unblock = partial(signal.pthread_sigmask, signal.SIG_SETMASK, held)
    try:
        pool = multiprocessing.Pool(
            jobs, initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN)
        )
    except BaseException:
        unblock()
        raise
    with pool:
        unblock()
        yield pool


def enumerate_levels(
    n: int,
    emit: Callable[[Graph, Callable[[], CanonicalCode]], Any],
    *,
    jobs: int = 1,
    allow_long: bool = False,
    predicate: Predicate | None = None,
) -> Iterator[tuple[int, Any]]:
    """Stream (g.n, emit(g, code)) for every class g on 1..n vertices.

    Classes come depth first, each right after its parent; each level's own
    subsequence is in the order of a level-by-level build.  With jobs > 1
    and n > 3 (one pool per call) the caller walks and emits levels
    2..n - 2 only, and hands the classes on n - 2 vertices to the pool as it
    reaches them; levels n - 1 and n are walked and emitted in the workers.
    A task's output takes its roots' place in the walk, so the stream does
    not depend on jobs.  `code` is a zero-argument callable returning g's
    CanonicalCode: most level-n classes are accepted without a canonical
    search, and calling it runs that search.  None results are dropped.
    With a `predicate`, levels 1..n keep only the classes inside its window
    at their level (and whose ancestors were kept): every class that matches
    at level n is still produced, and each level's stream is a subsequence
    of the unpruned one.  For a predicate with bounds the level-n window is
    the predicate, so the top level holds exactly its matches.
    """
    _check_guard(n, allow_long)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    # computed before any level is built, so bad parameters fail at once
    windows = [None if predicate is None else predicate.window(n, m) for m in range(n + 1)]
    # K1 has alpha 1, and alpha 0 once its vertex is deleted
    lo, hi, ks, floor = windows[1] or (1, 1, 0, 0)
    if not lo <= 1 <= hi or ks and floor > 0:
        return
    item = emit(Graph._wrap(1, (0,)), partial(_code, 1, (0,), None, None))
    if item is not None:
        yield 1, item
    if n == 1:
        return
    # the walk hands out classes on n - 2 >= 2 vertices, so n <= 3 has no task
    with _pool(jobs if n > 3 else 1) as pool:
        if pool is None:
            yield from _walk(1, (0,), [], windows, emit, n)
            return
        # a task costs the caller ~0.6 ms (2 vCPUs), so it takes ~50 ms of
        # roots at the last task's pace, one root more at most; 4 * jobs pend
        before, chunk, tasks, size = [], [], deque(), 1
        for m, x in _walk(1, (0,), [], windows, emit, n, n - 2):
            before.append((m, x))
            if m is None:
                chunk.append(before)
                before = []
            if len(chunk) >= size:
                tasks.append(pool.apply_async(_subtrees, (windows, emit, n, chunk)))
                chunk = []
                if len(tasks) > 4 * jobs:
                    per_root, items = tasks.popleft().get()
                    size = max(1, min(size + 1, int(0.05 / max(per_root, 1e-6))))
                    yield from items
        if chunk:
            tasks.append(pool.apply_async(_subtrees, (windows, emit, n, chunk)))
        for task in tasks:
            yield from task.get()[1]
        yield from before


def _match(n: int, predicate: Predicate | None, g: Graph, code):
    """The emit of count_graphs and `indstab enumerate`: level-n classes that
    satisfy the predicate, as adjacency tuples; reads no code.  A predicate
    with bounds was decided by its level-n window and is not checked again."""
    if g.n == n and (predicate is None or predicate.bounds(n) is not None or predicate.matches(g)):
        return g.adj
    return None


def _matching(n: int, predicate: Predicate | None, g: Graph, code):
    """The emit of enumerate_graphs: _match's classes as (code bytes,
    adjacency), which cross processes cheaply."""
    adj = _match(n, predicate, g, code)
    return None if adj is None else (code().code, adj)


def enumerate_graphs(
    n: int,
    *,
    jobs: int = 1,
    allow_long: bool = False,
    predicate: Predicate | None = None,
) -> Iterator[tuple[CanonicalCode, Graph]]:
    """Stream every isomorphism class on n vertices exactly once.

    The top level of enumerate_levels, in its order and pruned by the windows
    of `predicate`, which also filters the classes inside the workers.
    """
    emit = partial(_matching, n, predicate)
    for _, (code, adj) in enumerate_levels(
        n, emit, jobs=jobs, allow_long=allow_long, predicate=predicate
    ):
        yield CanonicalCode(code, n), Graph._wrap(n, adj)


def count_graphs(n: int, *, jobs: int = 1, allow_long: bool = False) -> int:
    """Number of isomorphism classes on n vertices."""
    emit = partial(_match, n, None)
    return sum(1 for _ in enumerate_levels(n, emit, jobs=jobs, allow_long=allow_long))


def search_with(
    n: int,
    predicate: Predicate,
    *,
    jobs: int = 1,
    allow_long: bool = False,
) -> list[CanonicalCode]:
    """Canonical codes of all classes matching a registered predicate, sorted."""
    stream = enumerate_graphs(n, jobs=jobs, allow_long=allow_long, predicate=predicate)
    return sorted(code for code, _ in stream)


def search_tight_stable(
    n: int, k: int, l: int, *, jobs: int = 1, allow_long: bool = False
) -> list[CanonicalCode]:
    """Canonical codes of all tight (k, l)-stable classes on n vertices, sorted."""
    return search_with(n, TightStable(k, l), jobs=jobs, allow_long=allow_long)
