import hashlib
import multiprocessing
import re
from dataclasses import dataclass
from functools import partial
from itertools import combinations

import pytest

from indstab import canon, enumeration, stability
from indstab.canon import _automorphisms, _least, _refine, _refine_root, canonical
from indstab.enumeration import (
    And,
    AlphaEquals,
    ContainsTriangle,
    EdgeCountRange,
    Predicate,
    Stable,
    TightStable,
    _attachments,
    _deletion_cell,
    _expand,
    _match,
    count_graphs,
    enumerate_graphs,
    enumerate_levels,
    parse_predicate,
    search_tight_stable,
    search_with,
)
from indstab.erdos_rogers import er_f, er_table
from indstab.families import cycle, figure2, kn_tight, wheel
from indstab.graphs import build
from indstab.mis import alpha, alpha_profile, is_independent, subset_alphas
from indstab.stability import is_stable, is_tight_stable, stability_bound
from indstab.verify import SUITE_ORDER, VerifyConfig, catalog_facts, run_all

from _oracles import attachment_sets_brute, automorphism_generators, labeled_census

NINE_3_0_SHA256 = "b319aaf948d4069a05b827579622abc6e15a7b1f93d53a2a28677bad6f831e0e"
EIGHT_STREAM_SHA256 = "84870251016d774e5edb93ef9f0934efbb57bdb0a2b196b4f4c49f48cd8f6591"
LEVEL_SHA256 = {  # each level's codes in enumerate_levels(8, ...), in order
    1: "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    2: "e14b77bb203317724ad98b20cf058c977a65f1fbb20c40b5b71b9f063f68c64a",
    3: "4baf3bbd7d9d9c85b869d826c8d834a5c0f4f20f80dd1e5743a3b195210fa833",
    4: "cca913888923068c608a771f2078238db4e6df7df61ea958e24bf6e08508fa59",
    5: "6f3481fee5febb3ed6100bf4581f78451b0c55733a89754a51dae64e816ff4ca",
    6: "d7aeb6957e12434b85248c9ffbaf94ea1b8f7ee6e22b0529ba0d94a0d813d70d",
    7: "287ecdb001652b8b3012ce8d769caa8533f0513b545f0f86cdd60658807bad23",
    8: EIGHT_STREAM_SHA256,
}


def test_counts_match_published_census():
    assert [count_graphs(n) for n in range(1, 9)] == [1, 2, 4, 11, 34, 156, 1044, 12346]


def test_count_at_nine_matches_published_census(jobs):
    # the scale the uniqueness search runs at
    assert count_graphs(9, jobs=jobs) == 274668


def test_counts_match_labeled_dedup_oracle():
    # full labeled enumeration deduplicated by all-permutation codes
    for n in range(1, 7):
        assert count_graphs(n) == labeled_census(n)


def test_stream_is_duplicate_free(catalog):
    for n in (5, 6, 7):
        codes = [code for code, _ in catalog(n)]
        assert len(codes) == len(set(codes))


def test_stream_graphs_match_their_codes(catalog):
    for code, g in catalog(6):
        assert canonical(g) == code


def test_worker_count_independence():
    # the same classes in the same order, whatever the worker count
    base = [code for code, _ in enumerate_graphs(7, jobs=1)]
    for jobs in (2, 4):
        assert [code for code, _ in enumerate_graphs(7, jobs=jobs)] == base, jobs


def test_stream_order_pinned():
    # the unfiltered n = 8 stream, in order; the digest was computed by the
    # orbit walk over all 2^n attachment sets
    for jobs in (1, 2):
        codes = b"".join(code.code for code, _ in enumerate_graphs(8, jobs=jobs))
        assert hashlib.sha256(codes).hexdigest() == EIGHT_STREAM_SHA256, jobs


def _code_bytes(g, code):
    """The emit of the per-level order test: every class's code bytes."""
    return code().code


def test_every_level_order_pinned():
    # the levels interleave in enumerate_levels' stream, the same at any
    # worker count: below n = 4 the caller walks every level, and above it
    # each task's output takes its roots' place in the walk.  Each level's
    # subsequence at n = 8 is pinned by the digest of its codes in a
    # level-by-level build
    for n in range(1, 9):
        streams = [list(enumerate_levels(n, _code_bytes, jobs=jobs)) for jobs in (1, 2)]
        assert streams[0] == streams[1], n
    levels = {m: hashlib.sha256() for m in LEVEL_SHA256}
    for m, code in streams[0]:
        levels[m].update(code)
    assert {m: h.hexdigest() for m, h in levels.items()} == LEVEL_SHA256


def test_canonical_search_work_bounded(count_calls):
    # upper bounds on the group searches, least-leaf walks, refinements and
    # leaves of the serial n = 7 catalog pass; more work than this is a
    # regression.  A leaf is a code read at a leaf of the least-leaf walk or
    # an automorphism test at a leaf of the group search.  Every refinement
    # runs canon._refine, _expand's root refinements included, except a root
    # with one degree class, which needs none.  The root partitions are
    # _expand's and those its group searches compute without a root.  The
    # pass reads no code, so it makes no _code call
    searches = count_calls(enumeration, "_automorphisms")
    walks = count_calls(enumeration, "_least")
    codes = count_calls(enumeration, "_code")
    refines = count_calls(canon, "_refine")
    leaves = count_calls(canon, "_leaf_code")
    count_calls(canon, "_is_automorphism", leaves)
    roots = []
    for module in (enumeration, canon):
        count_calls(module, "_refine_root", roots)
    assert count_graphs(7) == 1044
    assert len(searches) <= 542
    assert len(walks) <= 4
    assert codes == []
    assert len(refines) <= 4757
    assert len(leaves) <= 1273
    assert len(roots) <= 1120


def test_catalog_pass_search_count_bounded(count_calls):
    # the group searches and least-leaf walks of one serial catalog pass of
    # the verify run without the uniqueness suite at max_n = 7 (levels
    # 1..8); the pass reads no class's code, so each is one the walk makes
    # itself, to accept a class or to build its children
    searches = count_calls(enumeration, "_automorphisms")
    walks = count_calls(enumeration, "_least")
    count_calls(enumeration, "_code", walks)
    suites = tuple(s for s in SUITE_ORDER if s != "uniqueness")
    facts = catalog_facts(VerifyConfig(max_n=7, jobs=1, suites=suites))
    assert len(facts[8]) == 12346
    assert len(searches) <= 3695
    assert len(walks) <= 49


def test_catalog_pass_asks_for_no_code(count_calls):
    # edge_bounds reads the tight (1, 0) classes' edge counts, not their codes
    codes = count_calls(enumeration, "_code")
    suites = ("stability_bound", "hall", "edge_bounds")
    facts = catalog_facts(VerifyConfig(max_n=6, jobs=1, suites=suites))
    assert any(f.edges is not None for f in facts[6])
    assert codes == []


def _codes_both_ways(n, g, code):
    """The emit of the top-level oracle: a level-n class's code as the
    enumeration gives it, and from a fresh canonical search."""
    return (code(), canonical(g)) if g.n == n else None


def test_top_level_codes_match_canonical(catalog):
    # most top-level classes are accepted without a search, and code() runs
    # it on demand: in stream order, every code is the class's canonical code
    # and the one the catalog holds
    for n in range(2, 8):
        for jobs in (1, 2) if n == 7 else (1,):
            stream = enumerate_levels(n, partial(_codes_both_ways, n), jobs=jobs)
            found, fresh = zip(*(pair for _, pair in stream))
            assert found == fresh, (n, jobs)
            assert list(found) == [code for code, _ in catalog(n)], (n, jobs)


def test_attachments_match_oracle(catalog):
    # every class as a parent, in stream order, against the 2^n orbit walk
    # filtered by the per-vertex degree test
    for n in range(1, 8):
        for code, g in catalog(n):
            _, _, found = _attachments(n, g.adj, automorphism_generators(g))
            assert found == attachment_sets_brute(g), code


def test_deletion_cell_pretest_is_exact(catalog):
    # every class with n <= 6 as a parent: the canonical deletion vertex's
    # orbit lies in the pre-test's cell, so a child rejected by the pre-test
    # is one the full canonical search rejects
    rejected = 0
    for n in range(1, 7):
        for code, g in catalog(n):
            for t in _attachments(n, g.adj, automorphism_generators(g))[2]:
                cadj = tuple(row | (1 << n) if t >> v & 1 else row for v, row in enumerate(g.adj))
                cadj += (t,)
                root = _refine(cadj, [list(range(n + 1))], [0])
                cell = _deletion_cell(cadj, root, t.bit_count())
                gens = _automorphisms(n + 1, cadj, root)
                perm = _least(n + 1, cadj, root, gens)[1]
                f = next(v for v in reversed(perm) if cadj[v].bit_count() == t.bit_count())
                orbit = canon._orbit([f], gens)
                assert orbit <= set(cell), code
                if n not in cell:
                    assert n not in orbit, code
                    rejected += 1
    assert rejected > 0


def test_root_path_matches_refine_on_every_child(catalog):
    # every orbit-least attachment set of every parent with n <= 7, before the
    # deletion test: the degree-started root is the one-cell refinement; and
    # a child accepted on degree alone has the new vertex as its deletion cell
    by_degree = 0
    for n in range(1, 8):
        for code, g in catalog(n):
            gens = automorphism_generators(g)
            for t in _attachments(n, g.adj, gens)[2]:
                cadj = tuple(row | (1 << n) if t >> v & 1 else row for v, row in enumerate(g.adj))
                cadj += (t,)
                assert _refine_root(n + 1, cadj) == _refine(cadj, [list(range(n + 1))], [0]), code
            for cadj, root, _ in _expand(n, g.adj, gens, None):
                if root is None:
                    root = _refine(cadj, [list(range(n + 1))], [0])
                    assert _deletion_cell(cadj, root, cadj[n].bit_count()) == [n], code
                    by_degree += 1
    assert by_degree > 0


def test_single_worker_order_deterministic():
    a = [code for code, _ in enumerate_graphs(6, jobs=1)]
    b = [code for code, _ in enumerate_graphs(6, jobs=1)]
    assert a == b


def test_no_pool_without_tasks(monkeypatch):
    # the walk hands the workers the classes on n - 2 >= 2 vertices, so
    # n <= 3 has no task and starts no pool
    starts = []
    real = multiprocessing.Pool
    monkeypatch.setattr(
        multiprocessing, "Pool", lambda *args, **kw: starts.append(args) or real(*args, **kw)
    )
    for n, pools in ((1, 0), (2, 0), (3, 0), (4, 1)):
        starts.clear()
        assert count_graphs(n, jobs=2) == (1, 2, 4, 11)[n - 1]
        assert len(starts) == pools, n


def test_guard():
    with pytest.raises(ValueError, match="guard"):
        next(enumerate_graphs(11))
    with pytest.raises(ValueError, match="not supported"):
        next(enumerate_graphs(12, allow_long=True))
    with pytest.raises(ValueError):
        next(enumerate_graphs(0))


@pytest.mark.parametrize(
    "call, jobs",
    [
        (lambda: count_graphs(5, jobs=0), 0),
        (lambda: count_graphs(5, jobs=-4), -4),
        (lambda: er_table(4, jobs=0), 0),
        (lambda: run_all(VerifyConfig(max_n=3, jobs=0, suites=("hall",))), 0),
        # no catalog pass to reach enumerate_levels' check
        (lambda: er_f(4, 9, 1, jobs=0), 0),
        (lambda: run_all(VerifyConfig(suites=(), jobs=0)), 0),
    ],
    ids=[
        "count_graphs-0", "count_graphs-negative", "er_table", "run_all", "er_f",
        "run_all-no-suites",
    ],
)
def test_library_rejects_jobs_below_one(call, jobs):
    with pytest.raises(ValueError, match=f"^jobs must be at least 1, got {jobs}$"):
        call()


def _profiles(catalog, n):
    """(code, alpha profile) of every class on n vertices, in stream order."""
    return [(code, alpha_profile(subset_alphas(g.adj, n))) for code, g in catalog(n)]


def _tight(profiles, n, k, l):
    a = stability_bound(n, k, l)
    return [code for code, p in profiles if p[n] == a and p[n - k] >= a - l]


def _stable(profiles, n, k, l):
    return [code for code, p in profiles if p[n - k] >= p[n] - l]


def _top_level(n, predicate):
    """The level-n classes the windows of `predicate` let through, unfiltered."""
    stream = enumerate_levels(n, lambda g, code: code(), predicate=predicate)
    return [code for m, code in stream if m == n]


def test_window_prune_is_exact(catalog):
    # every windowed search equals the catalog filtered through the profile
    for n in range(1, 8):
        profiles = _profiles(catalog, n)
        for v in range(n + 2):
            expected = sorted(code for code, p in profiles if p[n] == v)
            assert search_with(n, AlphaEquals(v)) == expected, (n, v)
            # lo > hi at level n: the windows alone must let no class through
            assert _top_level(n, AlphaEquals(v) & AlphaEquals(v + 1)) == [], (n, v)
        tight, stable = {}, {}
        for k in range(1, n):
            for l in range(k):
                tight[k, l] = _tight(profiles, n, k, l)
                assert search_with(n, TightStable(k, l)) == sorted(tight[k, l]), (n, k, l)
                stable[k, l] = _stable(profiles, n, k, l)
                assert search_with(n, Stable(k, l)) == sorted(stable[k, l]), (n, k, l)
                a = stability_bound(n, k, l)
                for v in (a - 1, a, a + 1):
                    expected = sorted(
                        code for code, p in profiles if p[n] == v and code in tight[k, l]
                    )
                    found = search_with(n, AlphaEquals(v) & TightStable(k, l))
                    assert found == expected, (n, v, k, l)
        if n >= 3:
            both = sorted(set(tight[1, 0]) & set(tight[2, 0]))
            assert search_with(n, TightStable(1, 0) & TightStable(2, 0)) == both, n
        # the matches that the base class derives from bounds, and
        # is_tight_stable and is_stable, which decide through the same
        # function, each against the profile, as _tight and _stable read it
        for (code, g), (_, p) in zip(catalog(n), profiles):
            a = alpha(g)
            assert [AlphaEquals(v).matches(g) for v in range(n + 2)] == [
                v == a for v in range(n + 2)
            ], code
            for k in range(1, n):
                for l in range(k):
                    b = stability_bound(n, k, l)
                    tight = p[n] == b and p[n - k] >= b - l
                    assert TightStable(k, l).matches(g) == tight, (code, k, l)
                    assert is_tight_stable(g, k, l) == tight, (code, k, l)
                    stable = p[n - k] >= p[n] - l
                    assert Stable(k, l).matches(g) == stable, (code, k, l)
                    assert is_stable(g, k, l) == stable, (code, k, l)


def test_window_prune_is_exact_at_eight(catalog):
    # the pruned stream is the catalog's stream order, filtered; windows with
    # a removal floor and l > 0, or a drop cut r, also travel inside the
    # worker tasks
    profiles = _profiles(catalog, 8)
    cases = [(TightStable, k, 0, 1) for k in range(1, 8)]
    cases += [(TightStable, k, l, jobs) for k, l in [(2, 1), (3, 1), (3, 2)] for jobs in (1, 2)]
    cases += [(Stable, k, l, jobs) for k, l in [(2, 1), (3, 0)] for jobs in (1, 2)]
    for kind, k, l, jobs in cases:
        expected = (_tight if kind is TightStable else _stable)(profiles, 8, k, l)
        stream = [code for code, _ in enumerate_graphs(8, jobs=jobs, predicate=kind(k, l))]
        assert stream == expected, (kind, k, l, jobs)


def test_tight_search_work_pinned(count_calls):
    # the calls enumeration makes: upper bounds for tight (3, 1) at n = 8,
    # which its removal floor prunes, and exact counts for tight (2, 0), the
    # search of the tight8 benchmark workload.  A group search is an
    # _automorphisms call, or one inside canon._code ("canon._automorphisms")
    # for the code of a class whose group was not needed; every _code call
    # walks the least leaf once, and _expand's own walks are _least calls.
    # "roots" counts the root partitions in all: _expand's, and those its
    # searches compute for children accepted on degree alone
    names = ("_automorphisms", "_least", "_code", "_refine_root", "independent_set_at_least",
             "_worst_drop")
    calls = {name: count_calls(enumeration, name) for name in names}
    calls["canon._automorphisms"] = count_calls(canon, "_automorphisms")
    calls["roots"] = []
    for module in (enumeration, canon):
        count_calls(module, "_refine_root", calls["roots"])
    assert len(search_tight_stable(8, 3, 1)) == 100
    assert len(calls["_automorphisms"]) <= 192
    assert len(calls["canon._automorphisms"]) <= 41
    assert len(calls["_least"]) == 0
    assert len(calls["_code"]) <= 100
    assert len(calls["_refine_root"]) <= 230
    assert len(calls["roots"]) <= 307
    for made in calls.values():
        made.clear()
    assert len(search_tight_stable(8, 2, 0)) == 75
    assert {name: len(made) for name, made in calls.items()} == {
        "_automorphisms": 332, "_least": 7, "_code": 75, "_refine_root": 419,
        "independent_set_at_least": 3957, "_worst_drop": 1241, "canon._automorphisms": 43,
        "roots": 558,
    }


def test_stable_search_work_pinned(count_calls):
    # (3, 0) at n = 8: the window's drop cut prunes every level from 6 up
    # (the search checked all 12,346 classes before Stable had bounds, with
    # 1,252 _expand calls)
    expanded = count_calls(enumeration, "_expand")
    assert len(search_with(8, Stable(3, 0))) == 180
    assert len(expanded) <= 171


def test_tight_search_scan_solver_calls_pinned(count_calls):
    # the solver calls of every removal scan in tight (2, 0) at n = 8, all of
    # them _expand's window tests, since the level-n window decides the
    # predicate: each pool starts with the child's maximum set and its
    # earlier siblings' sets
    calls = count_calls(stability, "independent_set_at_least")
    assert len(search_tight_stable(8, 2, 0)) == 75
    assert len(calls) == 2570


def test_expand_scan_pools_hold_independent_sets(monkeypatch):
    # every set _expand starts a child's scan from is independent in that
    # child, and the scan finds the drop a scan from an empty pool finds
    real = enumeration._worst_drop
    seen = []

    def checked(g, k, a, stop, pool):
        assert pool and all(is_independent(g, w) for w in pool)
        seen.append(len(pool))
        drop = real(g, k, a, stop, pool)
        assert drop == real(g, k, a, stop, [])
        return drop

    monkeypatch.setattr(enumeration, "_worst_drop", checked)
    for n in range(2, 8):
        for k in range(1, n):
            for l in range(k):
                search_tight_stable(n, k, l)
    assert max(seen) > 1  # siblings' sets reached later children


def test_first_match_arrives_before_the_last_level_is_built(count_calls):
    # a serial existence query walks depth first: the first tight (2, 0)
    # class on 9 vertices (the 9-cycle) arrives after 59 expanded parents,
    # the part of the tree before it, where a level-by-level build expands
    # 527 first
    expanded = count_calls(enumeration, "_expand")
    stream = enumerate_graphs(9, predicate=TightStable(2, 0))
    _, g = next(stream)
    stream.close()
    assert g.edge_count() == 9
    assert len(expanded) <= 59


def test_tight_window_floor_is_its_lo():
    # the contract _expand relies on: wherever a window asks for deletions
    # its floor is at most its lo, for every predicate with bounds and every
    # pairwise And, which keeps the largest lo, so a child inside the alpha
    # range needs only the deletion test.  At level n the window of a
    # predicate with bounds is the predicate itself
    for n in range(2, 12):
        windowed = [TightStable(k, l) for k in range(1, n) for l in range(k)]
        windowed += [Stable(k, l) for k in range(1, n) for l in range(k)]
        windowed += [AlphaEquals(v) for v in range(n + 1)]
        for p in windowed:
            L, H, k, F, r = p.bounds(n)
            assert F <= L and p.window(n, n) == (max(L, F), H, k, F, r), (n, p)
            for m in range(n + 1):
                lo, hi, ks, floor, _ = p.window(n, m)
                assert not ks or floor <= lo <= hi, (n, m, p)
        for p, q in combinations(windowed, 2):
            for m in range(n + 1):
                lo, _, ks, floor, _ = (p & q).window(n, m)
                assert not ks or floor <= lo, (n, m, p, q)


@dataclass(frozen=True)
class _Bounds(Predicate):
    """The predicate L <= alpha <= H, with alpha >= max(F, alpha - r) after
    any k deletions, given by its bounds alone; its matches is the one
    derived from them."""

    lhkfr: tuple[int, int, int, int, int]

    def bounds(self, n):
        return self.lhkfr


def _bounds_exact(n, graphs, lhkfr):
    """The classes of `graphs`, (g, alpha profile) pairs on n vertices in
    stream order, that the bounds `lhkfr` keep, read off the profiles; the
    windowed stream and the derived matches must give exactly these."""
    L, H, k, F, r = lhkfr
    pred = _Bounds(lhkfr)
    expected = [g for g, p in graphs if L <= p[n] <= H and p[n - k] >= max(F, p[n] - r)]
    stream = enumerate_levels(n, partial(_match, n, pred), predicate=pred)
    assert [adj for _, adj in stream] == [g.adj for g in expected], (n, lhkfr)
    assert [g for g, _ in graphs if pred.matches(g)] == expected, (n, lhkfr)
    return expected


def test_bounds_window_is_exact(catalog):
    # the one window formula, for every (L, H, k, F, r) with F <= L on up to
    # 6 vertices: the top level is the catalog's stream filtered through the
    # profile, whose entry j is the least alpha of a j-vertex induced
    # subgraph.  k deletions lower alpha >= L by at most k, so every F below
    # L - k - 1 is as slack as L - k - 1, and every r >= k as r = n; the
    # cuts r < k run at n <= 5, where they keep the test's time.  The
    # derived matches agrees too
    for n in range(1, 7):
        graphs = [(g, alpha_profile(subset_alphas(g.adj, n))) for _, g in catalog(n)]
        for L in range(n + 1):
            for H in range(L, n + 1):
                for k in range(n + 1):
                    for F in range(max(0, L - k - 1), L + 1):
                        for r in [*range(k if n <= 5 else 0), n]:
                            _bounds_exact(n, graphs, (L, H, k, F, r))


def test_erdos_rogers_windows_at_seven(catalog):
    # f(7; s, t) < v exactly when some class has alpha <= s + t - 1 and keeps
    # alpha >= s after any 7 - v deletions: the bounds (s, min(s + t - 1, 7),
    # 7 - v, s, 7), whose windows drive _expand's reach test with large ks
    # and a floor.  Each cell's two existence queries, at v = 7 - t and
    # 7 - t + 1, against the profiles and the catalog's Erdos-Rogers grid
    graphs = [(g, alpha_profile(subset_alphas(g.adj, 7))) for _, g in catalog(7)]
    f = {(row.s, row.t): row.computed for row in er_table(7)}
    for s in range(1, 8):
        for t in range(1, 8):
            for v in range(max(1, 7 - t), min(7, 8 - t) + 1):
                found = _bounds_exact(7, graphs, (s, min(s + t - 1, 7), 7 - v, s, 7))
                assert bool(found) == (f[s, t] < v), (s, t, v)


def test_windowed_predicate_is_not_rechecked(monkeypatch, count_calls):
    # a predicate with bounds is decided by its level-n window: its matches
    # is never called, serially or in the workers (which fork after the
    # patch); an And keeps its re-check
    def refuse(self, g):
        raise AssertionError(f"{self} re-checked")

    windowed = (TightStable(2, 1), AlphaEquals(4), Stable(2, 1), Stable(3, 0))
    expected = {p: search_with(7, p) for p in windowed}
    for p in expected:
        monkeypatch.setattr(type(p), "matches", refuse)
    for p, found in expected.items():
        for jobs in (1, 2):
            assert search_with(7, p, jobs=jobs) == found, (p, jobs)
    monkeypatch.undo()
    calls = count_calls(TightStable, "matches")
    both = search_with(7, AlphaEquals(4) & TightStable(2, 1))
    assert both == sorted(set(expected[AlphaEquals(4)]) & set(expected[TightStable(2, 1)]))
    assert len(calls) >= len(both) > 0


def test_search_tight_stable_9_3_0_pinned():
    # three classes; the digest was computed by the search without windows
    found = search_tight_stable(9, 3, 0)
    digest = hashlib.sha256(b"".join(c.code for c in found)).hexdigest()
    assert len(found) == 3 and digest == NINE_3_0_SHA256


def test_search_tight_stable_uniqueness_small():
    assert search_tight_stable(5, 2, 0) == [canonical(cycle(5))]


def test_search_tight_stable_6_3_0_empty():
    assert search_tight_stable(6, 3, 0) == []


def test_search_tight_stable_6_2_0_contains_wheel():
    found = search_tight_stable(6, 2, 0)
    assert canonical(wheel(6)) in found


def test_search_with_alpha_equals():
    found = search_with(4, AlphaEquals(4))
    assert found == [canonical(build(4, []))]


def test_search_with_composite_finds_figure2():
    found = search_with(6, TightStable(1, 0) & ContainsTriangle())
    assert canonical(figure2()) in found


def test_search_with_stable_alpha3_at_6_empty():
    found = search_with(6, Stable(2, 0) & AlphaEquals(3))
    assert found == []


def test_search_results_sorted():
    found = search_with(6, TightStable(1, 0))
    assert found == sorted(found)


def test_search_with_rejects_invalid_stability_parameters():
    # k must be below n: a 4-vertex graph has no 5-vertex removals
    for predicate in (TightStable(5, 0), Stable(5, 0), Stable(2, 2) & AlphaEquals(2)):
        with pytest.raises(ValueError):
            search_with(4, predicate)


def test_search_with_edge_range():
    found = search_with(4, EdgeCountRange(6, 6))
    k4 = build(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert found == [canonical(k4)]


def test_parse_predicate():
    assert parse_predicate("tight-stable:2,0") == TightStable(2, 0)
    assert parse_predicate("stable:2,1") == Stable(2, 1)
    assert parse_predicate("alpha-equals:3") == AlphaEquals(3)
    assert parse_predicate("contains-triangle") == ContainsTriangle()
    assert parse_predicate("edge-count-range:2,5") == EdgeCountRange(2, 5)


def test_parse_predicate_rejects_unknown():
    with pytest.raises(ValueError, match="unknown predicate"):
        parse_predicate("girth:5")
    with pytest.raises(ValueError, match="takes 2 arguments, got 1"):
        parse_predicate("stable:1")
    for text in ("stable:1,,0", "stable:,2,1", "alpha-equals:3,", "stable:x,1"):
        name, _, args = text.partition(":")
        message = f"predicate {name} takes integer arguments, got {args!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_predicate(text)


def test_and_evaluates_all_parts():
    pred = And((EdgeCountRange(0, 100), AlphaEquals(3)))
    assert pred.matches(kn_tight(6))
    assert not pred.matches(kn_tight(8))


def test_n1_stream():
    [(code, g)] = list(enumerate_graphs(1))
    assert g.n == 1 and code.n == 1
