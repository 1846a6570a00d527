import os
import random
import sys

import pytest

from indstab import mis
from indstab.families import (
    circulant,
    cycle,
    figure2,
    kn_tight,
    mn_matching,
    stable3_circulant,
    stable4_circulant,
)
from indstab.graphs import Graph, build, complement, remove_vertices, vset, vset_members
from indstab.mis import (
    _all_at_least,
    _alpha_set,
    _cover_exceeds,
    _grow,
    _lane_step,
    alpha,
    alpha_mask,
    alpha_profile,
    independent_set_at_least,
    is_independent,
    max_independent_set,
    saturating_matching,
    subset_alphas,
)
from indstab.stability import (
    alpha_drop,
    is_stable,
    is_tight_stable,
    stable_vertex_count,
)

from _oracles import (
    all_max_independent_sets,
    alpha_brute,
    alpha_profile_plain,
    complete,
    max_clique_brute,
    plain_alpha_mask,
    plain_max_independent_set,
    plain_set_at_least,
    random_graph,
    subset_alphas_brute,
)


def queries_graphs():
    """The 131 graphs of perfbench's `queries` workload, built afresh."""
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    try:
        from perfbench.workloads import Queries
    finally:
        sys.path.pop(0)
    return [build(n, edges) for n, edges in Queries.structures()]


def test_alpha_c5():
    assert alpha(cycle(5)) == 2


def test_alpha_empty_graph():
    for n in (1, 4, 9):
        assert alpha(build(n, [])) == n


def test_alpha_circulant_24():
    assert alpha(circulant(24, {3, 4})) == 9


def test_alpha_kn_tight_odd():
    assert alpha(kn_tight(7)) == 3


def test_witness_deterministic_k33():
    r = max_independent_set(kn_tight(6))
    assert r.alpha == 3
    assert vset_members(r.witness) == (0, 1, 2)


def test_witness_complete_graph():
    r = max_independent_set(complete(5))
    assert r.alpha == 1
    assert vset_members(r.witness) == (0,)


def test_witness_is_independent_and_maximum():
    rng = random.Random(51)
    for _ in range(100):
        g = random_graph(rng.randint(1, 12), rng.random(), rng)
        r = max_independent_set(g)
        assert is_independent(g, r.witness)
        assert r.witness.bit_count() == r.alpha == alpha(g)


def test_alpha_matches_brute_force_small():
    rng = random.Random(53)
    for _ in range(300):
        g = random_graph(rng.randint(1, 10), rng.random(), rng)
        assert alpha(g) == alpha_brute(g)


def test_subset_alphas_match_solver(catalog):
    # the 2^n sweep behind verify's facts against the branch and bound, on the
    # small catalogs and on random graphs up to past the lift check's n + 1 = 8
    rng = random.Random(67)
    graphs = [g for n in range(1, 7) for _, g in catalog(n)]
    graphs += [random_graph(rng.randint(1, 10), rng.random(), rng) for _ in range(200)]
    for g in graphs:
        table = subset_alphas(g.adj, g.n)
        assert table == bytes(alpha_mask(g.adj, mask) for mask in range(1 << g.n))


def test_subset_alphas_byte_lanes_match_solver(catalog):
    # the byte-lane table at its extremes: every lane of the empty graph at
    # its top value, popcount(mask), and the complete graph's at one (zero
    # for the empty mask); then every class at n = 7
    cases = []
    for n in range(11):
        full = (1 << n) - 1
        cases.append(((0,) * n, n))
        cases.append((tuple(full & ~(1 << v) for v in range(n)), n))
    cases += [(g.adj, 7) for _, g in catalog(7)]
    for adj, n in cases:
        assert subset_alphas(adj, n) == bytes(alpha_mask(adj, m) for m in range(1 << n)), (adj, n)


def test_alpha_profile_steps_by_zero_or_one(catalog):
    # er_grid bisects the profile, which needs it never to decrease
    for n in range(1, 8):
        for _, g in catalog(n):
            p = alpha_profile(subset_alphas(g.adj, n))
            assert len(p) == n + 1 and p[0] == 0 and p[n] == alpha(g)
            assert all(p[q - 1] <= p[q] <= p[q - 1] + 1 for q in range(1, n + 1))


def test_lane_step_extends_the_parent_table(catalog):
    # a child's table is its parent's plus one lane step for the new vertex,
    # as a windowed search grows them: every class on n <= 7 vertices as the
    # child of its first n - 1 vertices, and random graphs on up to 11,
    # against subset_alphas, the brute-force table and alpha_brute
    rng = random.Random(89)
    graphs = [g for n in range(1, 8) for _, g in catalog(n)]
    graphs += [random_graph(rng.randint(1, 11), rng.random(), rng) for _ in range(200)]
    for g in graphs:
        n = g.n - 1
        parent = int.from_bytes(subset_alphas(g.adj, n), "little")
        table = _lane_step(parent, n, g.adj[n]).to_bytes(1 << g.n, "little")
        assert table == subset_alphas(g.adj, g.n) == subset_alphas_brute(g), g.adj
        assert table[g.vertex_mask] == alpha_brute(g), g.adj


def test_lane_test_matches_least_over_q_subsets(catalog):
    # every q-vertex subgraph has alpha >= t exactly when the least lane of
    # popcount q holds t or more, at every t from -1 to n + 1
    rng = random.Random(97)
    graphs = [g for n in range(1, 7) for _, g in catalog(n)]
    graphs += [random_graph(rng.randint(1, 11), rng.random(), rng) for _ in range(100)]
    for g in graphs:
        table = subset_alphas(g.adj, g.n)
        lanes = int.from_bytes(table, "little")
        for q in range(g.n + 1):
            least = min(a for mask, a in enumerate(table) if mask.bit_count() == q)
            for t in range(-1, g.n + 2):
                assert _all_at_least(lanes, g.n, q, t) == (least >= t), (g.adj, q, t)


def test_alpha_profile_matches_plain_minimum(catalog):
    # the lane tests' profile against a pass over every lane
    rng = random.Random(101)
    graphs = [g for n in range(1, 8) for _, g in catalog(n)]
    graphs += [random_graph(rng.randint(1, 11), rng.random(), rng) for _ in range(300)]
    for g in graphs:
        table = subset_alphas(g.adj, g.n)
        assert alpha_profile(table) == alpha_profile_plain(table), g.adj


def test_independent_set_at_least_returns_a_witness_inside_the_mask():
    rng = random.Random(61)
    for _ in range(200):
        g = random_graph(rng.randint(2, 10), rng.random(), rng)
        mask = rng.randrange(1, g.vertex_mask)
        a = alpha_brute(remove_vertices(g, g.vertex_mask & ~mask))
        for target in range(-1, a + 2):
            w = independent_set_at_least(g.adj, mask, target)
            if target > a:
                assert w is None
            else:
                assert w is not None and not w & ~mask
                assert is_independent(g, w) and w.bit_count() >= target


def test_solver_matches_plain_branch_and_bound():
    # the bound-first search visits the plain search's nodes in its order, so
    # every answer and every witness is the plain solver's, at every target
    # from 0 to one above alpha
    rng = random.Random(71)
    cases = [(complete(6), complete(6).vertex_mask), (complete(6), 0)]
    for n, diffs in ((24, {3, 4}), (32, {1, 5, 8}), (40, {2, 7, 11})):
        g = circulant(n, diffs)
        cases += [(g, g.vertex_mask), (g, rng.getrandbits(n))]
    for _ in range(300):
        g = random_graph(rng.randint(1, 40), rng.choice((0.1, 0.2, 0.3, 0.5, 0.8)), rng)
        cases += [(g, g.vertex_mask), (g, rng.getrandbits(g.n))]
    # sparse graphs on 48 to 64 vertices, where the bound's forced vertices
    # prune the most
    sparse = random.Random(73)
    for n, p in ((48, 0.1), (52, 0.15), (56, 0.1), (60, 0.15), (64, 0.1), (64, 0.15)):
        g = random_graph(n, p, sparse)
        cases += [(g, g.vertex_mask), (g, sparse.getrandbits(n))]
    for g, mask in cases:
        if mask == g.vertex_mask:
            r = max_independent_set(g)
            assert (r.alpha, r.witness) == plain_max_independent_set(g)
        a = alpha_mask(g.adj, mask)
        assert a == plain_alpha_mask(g.adj, mask)
        for target in range(-1, a + 2):
            w = independent_set_at_least(g.adj, mask, target)
            assert w == plain_set_at_least(g.adj, mask, target)


def test_cover_bound_is_sound(catalog):
    # a False from the bound proves that `sub` holds no independent set of
    # more than `room` vertices: over every mask of every class on at most 6
    # vertices, with alphas from the 2^n table, and over random masks of
    # sparse graphs on up to 24 vertices, with alphas from the plain solver,
    # at every room from -1 to |sub|
    cases = []
    for n in range(1, 7):
        for _, g in catalog(n):
            table = subset_alphas(g.adj, n)
            cases += [(g.adj, sub, table[sub]) for sub in range(1 << n)]
    rng = random.Random(79)
    for _ in range(100):
        g = random_graph(rng.randint(8, 24), 0.1, rng)
        for _ in range(5):
            sub = rng.getrandbits(g.n)
            cases.append((g.adj, sub, plain_alpha_mask(g.adj, sub)))
    for adj, sub, a in cases:
        for room in range(-1, sub.bit_count() + 1):
            assert _cover_exceeds(adj, sub, room) or a <= room, (adj, sub, room)


def test_solver_nodes_pinned(monkeypatch):
    # the solver's nodes, the calls _grow makes to the bound (not the bound's
    # own calls on what its forced vertices leave), on a sparse 64-vertex
    # graph and in the `scans` workload: each circulant's alpha solve, then
    # each whole scan.  The witnesses are the plain solver's, so a tighter
    # bound may only lower these.  Before the forced vertices they were
    # 1,805; 51, 277, 119; and 160, 791, 791, 337, 337.  The 64-vertex
    # graph's maximum set comes from the greedy-started solve (831 nodes
    # when it searched from an empty incumbent), and an alpha_drop after an
    # is_stable of the same Graph reads the alpha that is_stable solved (271
    # and 185 when it solved again); alpha_mask keeps nothing
    nodes = []
    real = mis._cover_exceeds

    def count(adj, sub, room):
        if sys._getframe(1).f_code.co_name == "_grow":
            nodes.append(sub)
        return real(adj, sub, room)

    monkeypatch.setattr(mis, "_cover_exceeds", count)
    g = random_graph(64, 0.1, random.Random(64))
    assert max_independent_set(g).alpha == 24
    assert len(nodes) == 677
    s3_3, s3_4, s4_3 = stable3_circulant(3), stable3_circulant(4), stable4_circulant(3)
    for h, want in ((s3_3, 21), (s3_4, 77), (s4_3, 41)):
        nodes.clear()
        alpha_mask(h.adj, h.vertex_mask)
        assert len(nodes) == want
    scans = (
        (lambda: is_stable(s3_3, 3, 0), 76),
        (lambda: is_stable(s3_4, 3, 0), 271),
        (lambda: alpha_drop(s3_4, 3), 194),
        (lambda: is_stable(s4_3, 4, 0), 185),
        (lambda: alpha_drop(s4_3, 4), 144),
    )
    for scan, want in scans:
        nodes.clear()
        scan()
        assert len(nodes) == want


def test_alpha_set_witness_is_independent_and_maximum(catalog):
    # _alpha_set's set, which every Graph keeps and every removal scan's pool
    # starts from, is independent and has alpha vertices: over the n <= 7
    # catalog and the `queries` graphs
    graphs = [g for n in range(1, 8) for _, g in catalog(n)] + queries_graphs()
    for g in graphs:
        a, w = _alpha_set(g.adj, g.vertex_mask)
        assert a == plain_alpha_mask(g.adj, g.vertex_mask)
        assert is_independent(g, w) and w.bit_count() == a


def test_max_independent_set_from_the_kept_solve(catalog):
    # the witness stays the first optimum of the search from an empty
    # incumbent, whether max_independent_set is a Graph's first query or
    # follows an is_stable that filled its kept solve: over the n <= 7
    # catalog, the `queries` graphs and seeded random graphs, each queried
    # through fresh values so that no earlier test's solve is kept
    rng = random.Random(97)
    graphs = [g for n in range(1, 8) for _, g in catalog(n)] + queries_graphs()
    graphs += [random_graph(rng.randint(1, 29), rng.random(), rng) for _ in range(500)]
    for g in graphs:
        want = _grow(g.adj, g.vertex_mask, 0, 0, 0, 0, g.n)
        first, after = Graph._wrap(g.n, g.adj), Graph._wrap(g.n, g.adj)
        r = max_independent_set(first)
        assert (r.alpha, r.witness) == want
        if g.n > 1:
            is_stable(after, 1, 0)
        r = max_independent_set(after)
        assert (r.alpha, r.witness) == want


def test_one_alpha_solve_per_graph(count_calls):
    # alpha, max_independent_set and the stability entry points of one Graph
    # value share its one solve; an equal value solves again
    solves = count_calls(mis, "_alpha_set")
    g = stable3_circulant(3)
    assert alpha(g) == 9 and max_independent_set(g).alpha == 9
    assert is_stable(g, 3, 0) and alpha_drop(g, 3) == 0
    assert not is_tight_stable(g, 3, 0) and stable_vertex_count(g) == g.n
    assert len(solves) == 1
    assert alpha(build(g.n, g.edges())) == 9
    assert len(solves) == 2


def test_alpha_monotone_under_removal():
    rng = random.Random(59)
    for _ in range(100):
        g = random_graph(rng.randint(2, 10), 0.5, rng)
        s = rng.randrange(1, g.vertex_mask)  # proper nonempty subset ok
        if s == g.vertex_mask:
            continue
        a = alpha(g)
        b = alpha(remove_vertices(g, s))
        assert b <= a <= b + bin(s).count("1")


def test_alpha_complement_duality():
    rng = random.Random(61)
    for _ in range(60):
        g = random_graph(rng.randint(2, 8), 0.5, rng)
        assert alpha(g) == max_clique_brute(complement(g))


def test_all_mis_c5():
    sets = all_max_independent_sets(cycle(5))
    assert len(sets) == 5
    assert all(m.bit_count() == 2 for m in sets)
    assert sets == sorted(sets)


def test_all_mis_kkk():
    g = kn_tight(8)
    assert all_max_independent_sets(g) == [vset([0, 1, 2, 3]), vset([4, 5, 6, 7])]


def test_all_mis_complete():
    assert all_max_independent_sets(complete(5)) == [1 << v for v in range(5)]


def test_all_mis_complete_and_duplicate_free():
    rng = random.Random(67)
    for _ in range(60):
        g = random_graph(rng.randint(1, 8), 0.5, rng)
        got = all_max_independent_sets(g)
        a = alpha(g)
        expected = [
            m
            for m in range(1 << g.n)
            if m.bit_count() == a and is_independent(g, m)
        ]
        assert got == expected


def test_all_mis_guard():
    with pytest.raises(ValueError, match="32"):
        all_max_independent_sets(build(33, []))


def test_matching_on_k33_sides():
    g = kn_tight(6)
    m = saturating_matching(g, vset([0, 1, 2]))
    assert m is not None and len(m.pairs) == 3


def test_matching_figure2():
    m = saturating_matching(figure2(), vset([3, 4, 5]))
    assert m is not None
    assert m.pairs == ((0, 3), (1, 4), (2, 5))


def test_matching_star_fails_hall():
    star = build(4, [(0, 1), (0, 2), (0, 3)])
    assert saturating_matching(star, vset([1, 2, 3])) is None


def test_matching_rejects_dependent_set():
    with pytest.raises(ValueError, match="independent"):
        saturating_matching(cycle(4), vset([0, 1]))


def test_matching_rejects_out_of_range_set():
    for y in (1 << 5, -1):
        with pytest.raises(ValueError, match="not a subset of the 3 vertex labels"):
            saturating_matching(build(3, []), y)


def test_is_independent_rejects_out_of_range_set():
    for s in (1 << 5, -1):
        with pytest.raises(ValueError, match="not a subset of the 3 vertex labels"):
            is_independent(build(3, []), s)


def test_matching_pairs_are_disjoint_edges():
    rng = random.Random(71)
    for _ in range(80):
        g = random_graph(rng.randint(2, 10), 0.4, rng)
        y = max_independent_set(g).witness
        m = saturating_matching(g, y)
        if m is None:
            continue
        used = set()
        for u, v in m.pairs:
            assert g.has_edge(u, v)
            assert u not in used and v not in used
            used.update((u, v))
        assert len(m.pairs) == y.bit_count()


def test_mn_matching_saturates_itself():
    for n in range(4, 10):
        g = mn_matching(n)
        y = max_independent_set(g).witness
        assert saturating_matching(g, y) is not None
