import random

import pytest

from indstab.erdos_rogers import er_f, er_grid, er_predicted, er_table
from indstab.families import cycle, path
from indstab.graphs import build, complement
from indstab.mis import alpha_profile, subset_alphas

from _oracles import max_subset_alpha_below, random_graph


def test_mbelow_c5():
    assert max_subset_alpha_below(cycle(5), 2) == 2


def test_mbelow_empty_graph():
    for n in (3, 5, 8):
        g = build(n, [])
        for s in (1, 2, 4, 10):
            assert max_subset_alpha_below(g, s) == min(n, s - 1)


def test_mbelow_p3():
    assert max_subset_alpha_below(path(3), 2) == 2


def test_mbelow_table_matches_scan(catalog):
    # the profile reading behind er_f and er_table against the subset-size
    # scan: with one class, the t = n column holds that class's maxima
    for n in range(1, 7):
        for _, g in catalog(n):
            rows = er_grid(n, [alpha_profile(subset_alphas(g.adj, n))])
            table = [r.computed for r in rows if r.t == n]
            assert table == [max_subset_alpha_below(g, s) for s in range(1, n + 1)]


def test_mbelow_matches_clique_formulation():
    # duality oracle: an independent s-set in g[S] is an s-clique in the
    # complement, so the value equals the largest S whose complement-induced
    # subgraph is K_s-free, found here by direct clique inspection
    from itertools import combinations

    def largest_clique_free_subset(h, s):
        for q in range(h.n, 0, -1):
            for members in combinations(range(h.n), q):
                has_clique = any(
                    all(h.has_edge(u, v) for u, v in combinations(c, 2))
                    for c in combinations(members, s)
                )
                if not has_clique:
                    return q
        return 0

    rng = random.Random(7)
    for _ in range(25):
        g = random_graph(rng.randint(2, 6), 0.5, rng)
        s = rng.randint(1, 3)
        assert max_subset_alpha_below(g, s) == largest_clique_free_subset(
            complement(g), s
        )


def test_er_f_small_values():
    assert er_f(3, 2, 1) == 2
    assert er_f(6, 3, 2) == 4


def test_er_f_reads_the_table_cell():
    # t beyond n reads the t = n cell; s beyond n admits every subset
    assert er_f(5, 2, 7) == 1
    assert er_f(6, 3, 9) == 2
    assert er_f(7, 2, 8) == 1
    assert er_f(4, 5, 9) == 4


def test_er_f_everything_allowed():
    # when s - 1 >= n every subset qualifies, so the empty graph forces f = n
    assert er_f(4, 5, 1) == 4
    assert er_f(3, 4, 2) == 3


def test_er_f_guard():
    with pytest.raises(ValueError, match="n <= 8"):
        er_f(9, 2, 1)
    with pytest.raises(ValueError, match="positive"):
        er_f(4, 0, 1)


def test_er_predicted():
    assert er_predicted(6, 3, 2) == 4
    assert er_predicted(8, 5, 1) == 7
    assert er_predicted(8, 2, 2) is None
    with pytest.raises(ValueError):
        er_predicted(0, 1, 1)


def test_er_table_matches_er_f():
    for n in (3, 4, 5):
        rows = {(r.s, r.t): r for r in er_table(n)}
        for (s, t), row in rows.items():
            assert row.computed == er_f(n, s, t)
            assert row.predicted == er_predicted(n, s, t)


def test_er_monotone_in_t():
    for n in (4, 5, 6, 7):
        rows = {(r.s, r.t): r.computed for r in er_table(n)}
        for s in range(1, n + 1):
            values = [rows[(s, t)] for t in range(1, n + 1)]
            assert all(a >= b for a, b in zip(values, values[1:]))


def test_predicted_cells_match_at_6():
    rows = er_table(6)
    for r in rows:
        if r.predicted is not None:
            assert r.match and r.computed == 6 - r.t
