import random
from itertools import combinations

import networkx as nx
import pytest

from indstab import mis, stability
from indstab.cli import main
from indstab.enumeration import search_tight_stable
from indstab.families import (
    circulant,
    cycle,
    figure2,
    kn_tight,
    lift,
    path,
    stable3_circulant,
    stable4_circulant,
    wheel,
)
from indstab.graph6 import g6_encode
from indstab.graphs import build, disjoint_union, remove_vertices, vset, vset_members
from indstab.mis import _alpha_set, alpha, alpha_profile, is_independent, subset_alphas
from indstab.stability import (
    _ORBIT_MIN_N,
    _reach,
    _worst_drop,
    alpha_drop,
    is_stable,
    is_tight_stable,
    stability_bound,
    stable_vertex_count,
)

from _oracles import (
    all_max_independent_sets,
    check_stable_vertex_bound,
    complete,
    random_graph,
    relabeled,
    stabilizer_orbits,
)


def alpha_drop_plain(g, k):
    """Unpruned reference scan over all k-subsets."""
    a = alpha(g)
    worst = 0
    for members in combinations(range(g.n), k):
        sub = alpha(remove_vertices(g, vset(members)))
        worst = max(worst, a - sub)
    return worst


def stable_vertex_count_plain(g):
    """Reference count: one alpha computation per removed vertex."""
    a = alpha(g)
    return sum(1 for v in range(g.n) if alpha(remove_vertices(g, 1 << v)) == a)


def test_drop_c5_pairs():
    assert alpha_drop(cycle(5), 2) == 0


def test_drop_complete_graph():
    assert alpha_drop(complete(6), 5) == 0


def test_drop_k33_pairs():
    assert alpha_drop(kn_tight(6), 2) == 1


def test_drop_matches_plain_scan():
    # pruned scan vs the unpruned reference on a 10^3 random corpus, n <= 12
    rng = random.Random(73)
    for _ in range(1000):
        g = random_graph(rng.randint(2, 12), rng.choice([0.3, 0.5, 0.7]), rng)
        k = rng.randint(1, g.n - 1)
        assert alpha_drop(g, k) == alpha_drop_plain(g, k)


def test_drop_without_scan_when_alpha_is_one(count_calls, capsys):
    # with alpha = 1 the k deletions can take nothing while a vertex is
    # left, so alpha_drop answers 0 with no scan: no solver call and no
    # group search (K_40 at k = 5 used to scan and search its group, about
    # 9 s on 2 vCPUs)
    calls = count_calls(stability, "independent_set_at_least")
    searches = count_calls(stability, "_automorphisms")
    assert alpha_drop(complete(40), 5) == 0
    assert alpha_drop(complete(20), 3) == 0
    assert calls == [] and searches == []
    assert main(["drop", "--k", "5", g6_encode(complete(40))]) == 0
    assert capsys.readouterr().out == "0\n"


def test_drop_rejects_bad_k():
    with pytest.raises(ValueError):
        alpha_drop(cycle(5), 0)
    with pytest.raises(ValueError):
        alpha_drop(cycle(5), 5)


def test_stable_k33():
    assert is_stable(kn_tight(6), 1, 0)


def test_stable_complete_any_k():
    g = complete(7)
    for k in range(1, 7):
        assert is_stable(g, k, 0)


def test_p4_not_20_stable():
    assert not is_stable(path(4), 2, 0)


def test_stable_without_scan_when_alpha_at_most_l(count_calls):
    # k deletions lower alpha by at most alpha: with alpha <= l no removal
    # can break (k, l)-stability, so no scan runs (K_40 at (5, 2) took
    # seconds of solver calls for its trivially true answer)
    calls = count_calls(stability, "independent_set_at_least")
    assert is_stable(complete(40), 5, 2)
    assert calls == []


def test_parameters_checked_before_any_solver_call(monkeypatch):
    def fail(*args):
        raise AssertionError("alpha computed before the parameters were checked")

    monkeypatch.setattr(stability, "_alpha_set_of", fail)
    g = cycle(6)
    with pytest.raises(ValueError, match="n > k > l >= 0"):
        is_tight_stable(g, g.n, 0)
    with pytest.raises(ValueError, match="n > k > l >= 0"):
        is_stable(g, 2, 2)
    with pytest.raises(ValueError, match="n > k > l >= 0"):
        alpha_drop(g, 0)


def test_stable_rejects_bad_parameters():
    g = cycle(6)
    with pytest.raises(ValueError):
        is_stable(g, 2, 2)
    with pytest.raises(ValueError):
        is_stable(g, 0, 0)
    with pytest.raises(ValueError):
        is_stable(g, 6, 1)
    with pytest.raises(ValueError):
        is_stable(g, 1, -1)


def test_stable_agrees_with_drop():
    rng = random.Random(79)
    for _ in range(150):
        g = random_graph(rng.randint(2, 9), 0.5, rng)
        k = rng.randint(1, g.n - 1)
        l = rng.randrange(k)
        assert is_stable(g, k, l) == (alpha_drop(g, k) <= l)


def test_bound_values():
    assert stability_bound(6, 3, 0) == 2
    assert stability_bound(7, 2, 1) == 4
    for n in range(2, 20):
        assert stability_bound(n, 1, 0) == n // 2


def test_bound_rejects_bad_parameters():
    with pytest.raises(ValueError):
        stability_bound(5, 5, 0)
    with pytest.raises(ValueError):
        stability_bound(5, 2, 2)
    with pytest.raises(ValueError):
        stability_bound(5, 2, -1)


def test_tight_examples():
    assert is_tight_stable(cycle(7), 2, 0)
    assert is_tight_stable(wheel(6), 2, 0)
    assert not is_tight_stable(cycle(6), 2, 0)
    assert is_tight_stable(figure2(), 1, 0)


def test_complete_graph_is_tight_k0():
    for k in range(1, 6):
        assert is_tight_stable(complete(k + 1), k, 0)


def test_stable_vertex_count_examples():
    assert stable_vertex_count(kn_tight(4)) == 4
    star = build(4, [(0, 1), (0, 2), (0, 3)])
    assert stable_vertex_count(star) == 1
    two_edges = build(4, [(0, 1), (2, 3)])
    assert stable_vertex_count(two_edges) == 4
    assert stable_vertex_count(figure2()) == 6


def test_stable_vertex_count_rejects_single_vertex():
    with pytest.raises(ValueError):
        stable_vertex_count(build(1, []))


def test_corollary_on_samples():
    rng = random.Random(83)
    for _ in range(200):
        g = random_graph(rng.randint(2, 10), rng.random(), rng)
        assert check_stable_vertex_bound(g)


def test_stable_vertex_count_computes_alpha_once(count_calls):
    calls = count_calls(stability, "_alpha_set_of")
    solves = count_calls(mis, "_alpha_set")
    assert stable_vertex_count(cycle(9)) == 9
    assert len(calls) == len(solves) == 1


def test_scan_solver_calls_pinned(count_calls):
    # the five scans of the benchmark's `scans` workload, 52 solver calls in
    # all (74 before the pool took each witness's images under the root
    # generators, 110 before the second removed vertex ranged over
    # stabilizer orbits, 320 before the first ranged over orbits), as with
    # the plain branch-and-bound: equal witnesses give equal witness pools,
    # so a drift here means the solver's search tree changed.  Each pool
    # starts with the alpha solve's maximum set, which saves the scan's first
    # call; each circulant is vertex-transitive, so its scan is the root
    # check plus one first-level subtree, one second-level subtree per
    # stabilizer orbit the first witness meets, and one search of its group
    calls = count_calls(stability, "independent_set_at_least")
    searches = count_calls(stability, "_automorphisms")
    s3_3, s3_4, s4_3 = stable3_circulant(3), stable3_circulant(4), stable4_circulant(3)
    scans = (
        (lambda: is_stable(s3_3, 3, 0), True, 6),
        (lambda: is_stable(s3_4, 3, 0), True, 7),
        (lambda: alpha_drop(s3_4, 3), 0, 7),
        (lambda: is_stable(s4_3, 4, 0), True, 16),
        (lambda: alpha_drop(s4_3, 4), 0, 16),
    )
    for scan, answer, count in scans:
        calls.clear()
        searches.clear()
        assert scan() == answer
        assert len(calls) == count
        assert len(searches) == 1


def test_corollary_equality_witness():
    # balanced bipartite part plus isolated vertices meets the bound exactly
    for m in (2, 4, 6):
        for n in (6, 8):
            g = lift(kn_tight(m), n - m)
            assert stable_vertex_count(g) == m
            assert alpha(g) == (2 * n - m) // 2


def test_drop_monotone_in_k():
    rng = random.Random(89)
    for _ in range(60):
        g = random_graph(rng.randint(3, 9), 0.5, rng)
        drops = [alpha_drop(g, k) for k in range(1, g.n)]
        assert all(a <= b for a, b in zip(drops, drops[1:]))
        assert all(0 <= d <= min(k, alpha(g)) for k, d in enumerate(drops, 1))


def test_drop_monotone_full_catalog(catalog):
    for n in range(2, 8):
        for _, g in catalog(n):
            drops = [alpha_drop(g, k) for k in range(1, n)]
            assert all(a <= b for a, b in zip(drops, drops[1:]))


def test_stability_downward_closure():
    rng = random.Random(97)
    for _ in range(80):
        g = random_graph(rng.randint(3, 8), 0.5, rng)
        for k in range(2, g.n):
            for l in range(k):
                if is_stable(g, k, l):
                    if l <= k - 2:
                        assert is_stable(g, k - 1, l)
                    if l + 1 < k:
                        assert is_stable(g, k, l + 1)


def test_lift_preserves_tightness():
    for g, k, l in [(cycle(5), 2, 0), (kn_tight(6), 1, 0), (path(5), 2, 1)]:
        assert is_tight_stable(g, k, l)
        assert is_tight_stable(lift(g, 1), k + 1, l + 1)


def test_scans_match_plain_scan_full_catalog(catalog):
    # every class with n <= 7, every k < n and l < k, against the plain scan
    for n in range(2, 8):
        for _, g in catalog(n):
            assert stable_vertex_count(g) == stable_vertex_count_plain(g)
            for k in range(1, n):
                worst = alpha_drop_plain(g, k)
                assert alpha_drop(g, k) == worst
                for l in range(k):
                    assert is_stable(g, k, l) == (worst <= l)


def test_scans_match_alpha_profile_at_eight(catalog):
    # every class with n = 8 and every k, against the alpha profile p (the
    # plain scan would take about 25 times its n <= 7 time): the worst drop
    # is p[8] - p[8 - k], the stable vertices are read off the subset_alphas
    # table, and is_stable holds at l = drop and fails at l = drop - 1
    for _, g in catalog(8):
        table = subset_alphas(g.adj, 8)
        p = alpha_profile(table)
        without = [table[g.vertex_mask & ~(1 << v)] for v in range(8)]  # alpha(G - v)
        assert stable_vertex_count(g) == without.count(p[8])
        for k in range(1, 8):
            drop = alpha_drop(g, k)
            assert drop == p[8] - p[8 - k]
            if drop < k:
                assert is_stable(g, k, drop)
            if drop:
                assert not is_stable(g, k, drop - 1)


def test_scans_seeded_with_any_maximum_set_match_plain_scan(catalog):
    # the pool may start with any maximum independent set: the drop is the
    # plain scan's for every class with n <= 7, every k and every seed
    for n in range(2, 8):
        for _, g in catalog(n):
            a = alpha(g)
            seeds = all_max_independent_sets(g)
            for k in range(1, n):
                worst = alpha_drop_plain(g, k)
                for w in seeds:
                    assert _worst_drop(g, k, a, min(k, a), [w]) == worst


def test_scans_match_plain_scan_random_beyond_catalog():
    # n = 9..12, where prefixes that already drop alpha are common
    rng = random.Random(101)
    checked = 0
    for n in range(9, 13):
        for p in (0.3, 0.5):
            for _ in range(8):
                g = random_graph(n, p, rng)
                worst = {k: alpha_drop_plain(g, k) for k in range(1, 5)}
                if not any(worst.values()):
                    continue
                checked += 1
                assert stable_vertex_count(g) == stable_vertex_count_plain(g)
                for k, drop in worst.items():
                    assert alpha_drop(g, k) == drop
                    for l in range(k):
                        assert is_stable(g, k, l) == (drop <= l)
    assert checked >= 50


def test_paper_circulants_beyond_verify_range():
    # n = 60, 41 and 61: the paper's constructions up to the 64-vertex cap,
    # out of reach of a scan that calls the solver per prefix
    assert is_stable(stable3_circulant(5), 3, 0)
    assert is_stable(stable4_circulant(4), 4, 0)
    assert is_stable(stable4_circulant(5), 4, 0)
    assert alpha_drop(stable3_circulant(5), 3) == 0
    assert alpha_drop(stable4_circulant(4), 4) == 0


def _orbit_graphs():
    """Graphs of at least _ORBIT_MIN_N vertices, each also randomly relabelled."""
    graphs = [
        circulant(12, {1, 3}),
        circulant(13, {2, 5}),
        circulant(14, {1, 4, 7}),
        circulant(15, {2, 3, 6}),
        cycle(12),
        cycle(13),
        lift(circulant(12, {1, 4}), 2),  # two orbits
        disjoint_union(cycle(7), circulant(8, {1, 3})),  # two orbits
        path(12),
        path(13),
        lift(kn_tight(10), 3),  # stabilizers that swap twins
        lift(cycle(11), 2),
        # three edges and two 3-vertex paths, interleaved: the stabilizer of
        # the first removed vertex, 0, moves 2, the next root subtree's vertex
        build(12, [(0, 1), (2, 6), (3, 4), (5, 6), (7, 11), (8, 9), (10, 11)]),
    ]
    rng = random.Random(103)
    for g in list(graphs):
        perm = list(range(g.n))
        rng.shuffle(perm)
        graphs.append(relabeled(g, perm))
    assert min(g.n for g in graphs) >= _ORBIT_MIN_N
    return graphs


def test_orbit_scans_match_plain_scan(count_calls):
    # the orbit path against the plain scan, for every k <= 3 and l < k, with
    # the pool started from the alpha solve's set and from every maximum set
    searches = count_calls(stability, "_automorphisms")
    searched = {1: set(), 2: set(), 3: set()}  # per k: the searches a scan made
    for g in _orbit_graphs():
        a = alpha(g)
        seeds = all_max_independent_sets(g)
        for k in range(1, 4):
            worst = alpha_drop_plain(g, k)
            searches.clear()
            assert alpha_drop(g, k) == worst
            searched[k].add(len(searches))
            for w in seeds:
                assert _worst_drop(g, k, a, min(k, a), [w]) == worst
            for l in range(k):
                searches.clear()
                assert is_stable(g, k, l) == (worst <= l)
                searched[k].add(len(searches))
                tight = a == stability_bound(g.n, k, l) and worst <= l
                assert is_tight_stable(g, k, l) == tight
                for w in seeds:
                    assert (_worst_drop(g, k, a, l + 1, [w]) <= l) == (worst <= l)
    # no search at k = 1; at k >= 2 some scans stop inside their first
    # subtree, and the others search once
    assert searched == {1: {0}, 2: {0, 1}, 3: {0, 1}}


def test_scan_stabilizer_matches_networkx():
    # the generators a scan keeps for its first removed vertex u have the
    # orbits of every automorphism fixing u, and all its generators those of
    # every automorphism.  u is the scan's own, the least vertex of the alpha
    # solve's set, and the last vertex, which a search from the unordered
    # root would individualize last, so its filtered generators fall short.
    # Besides the orbit gallery: the paper's circulants at m = 3, 4 and 5,
    # two lifted graphs, and networkx's Petersen, Chvatal, Tutte, 5-cube and
    # Paley(13) and Paley(29) graphs
    graphs = [stable3_circulant(m) for m in (3, 4, 5)] + [stable4_circulant(m) for m in (3, 4, 5)]
    graphs += [lift(kn_tight(20), 6), lift(stable3_circulant(3), 2)]
    for h in (nx.petersen_graph(), nx.chvatal_graph(), nx.tutte_graph(), nx.hypercube_graph(5),
              nx.paley_graph(13).to_undirected(), nx.paley_graph(29).to_undirected()):
        h = nx.convert_node_labels_to_integers(h)
        graphs.append(build(h.number_of_nodes(), h.edges()))
    for g in _orbit_graphs() + graphs:
        a, w = _alpha_set(g.adj, g.vertex_mask)
        for u in ((w & -w).bit_length() - 1, g.n - 1):
            scan = stability._RemovalScan(g, 2, a, 2, [w])
            stab = {frozenset(vset_members(scan.orbit(1 << v, 1 << u))) for v in range(g.n)}
            assert stab == stabilizer_orbits(g, u)
        whole = {frozenset(vset_members(scan.orbit(1 << v, 0))) for v in range(g.n)}
        assert whole == stabilizer_orbits(g)


def test_pooled_images_are_independent(count_calls):
    # after the scans of the paper's circulants and of the lifted graphs,
    # every set in the pool is independent, the images under the root
    # generators included, and the pool holds more sets than the alpha
    # solve and the solver gave it
    scans = [
        (stable3_circulant(3), 3), (stable3_circulant(4), 3), (stable4_circulant(3), 4),
        (stable4_circulant(4), 4), (lift(kn_tight(20), 6), 7), (lift(stable3_circulant(3), 2), 5),
    ]
    calls = count_calls(stability, "independent_set_at_least")
    for g, k in scans:
        calls.clear()
        a, w = _alpha_set(g.adj, g.vertex_mask)
        pool = [w]
        _worst_drop(g, k, a, _reach(g.n, k, a), pool)
        assert len(pool) > 1 + len(calls)
        assert all(is_independent(g, s) for s in pool)


def test_lifted_kn_tight_is_tight_at_7_6():
    # 26 vertices, six of them isolated twins: the stabilizer of the first
    # removed vertex swaps them, which keeps this scan under a second
    assert is_tight_stable(lift(kn_tight(20), 6), 7, 6)


def test_orbit_searches_pinned(count_calls):
    # scans decided inside their first subtree, scans with k = 1 and scans
    # below _ORBIT_MIN_N never search the automorphism group
    searches = count_calls(stability, "_automorphisms")
    early = circulant(20, {2, 5})
    assert not is_stable(early, 3, 0)
    assert not is_stable(circulant(20, {1, 3}), 2, 0)
    assert alpha_drop(cycle(20), 1) == 0
    assert is_stable(stable3_circulant(5), 1, 0)
    assert alpha_drop(cycle(_ORBIT_MIN_N - 1), 3) == 1
    assert not is_stable(cycle(_ORBIT_MIN_N - 1), 3, 0)
    assert len(search_tight_stable(8, 2, 0)) == 75
    assert searches == []
    # every other scan searches once, however long it runs
    assert is_stable(early, 3, 1)
    assert alpha_drop(early, 3) == 1
    assert len(searches) == 2
