import pytest

from indstab.canon import canonical
from indstab.families import (
    circulant,
    cycle,
    even20_circulant,
    figure2,
    kn_tight,
    lift,
    mn_matching,
    path,
    sandwich_sample,
    stable3_circulant,
    stable4_circulant,
    wheel,
)
from indstab.mis import alpha
from indstab.stability import is_stable, is_tight_stable

from _oracles import complete


def test_kn_tight_even():
    g = kn_tight(6)
    assert g.edge_count() == 9 and alpha(g) == 3


def test_kn_tight_alpha_odd():
    assert alpha(kn_tight(7)) == 3
    for n in range(2, 13):
        assert alpha(kn_tight(n)) == n // 2


def test_kn_tight_always_10_stable():
    for n in range(2, 13):
        assert is_stable(kn_tight(n), 1, 0)


def test_mn_edge_counts():
    assert mn_matching(8).edge_count() == 4
    assert mn_matching(7).edge_count() == 5  # k + 2 with k = 3
    assert canonical(mn_matching(3)) == canonical(complete(3))


def test_mn_tight():
    for n in range(2, 13):
        assert is_tight_stable(mn_matching(n), 1, 0)


def test_mn_inside_kn_as_labeled_graphs():
    for n in range(2, 65):
        low, high = mn_matching(n), kn_tight(n)
        for u, v in low.edges():
            assert high.has_edge(u, v)


def test_path_alpha():
    for n in range(1, 13):
        assert alpha(path(n)) == (n + 1) // 2


def test_path_tight_21():
    for n in range(3, 13):
        assert is_tight_stable(path(n), 2, 1)


def test_wheel4_is_k4():
    assert canonical(wheel(4)) == canonical(complete(4))


def test_wheel_hub_is_last_label():
    g = wheel(7)
    assert g.degree(6) == 6
    assert all(g.degree(v) == 3 for v in range(6))


def test_family_minimums():
    for fn, bad in [(cycle, 2), (path, 0), (wheel, 3), (kn_tight, 1), (mn_matching, 1)]:
        with pytest.raises(ValueError):
            fn(bad)
    with pytest.raises(ValueError, match="even20_circulant needs k >= 3, got 2"):
        even20_circulant(2)
    with pytest.raises(ValueError, match="needs 66 vertices > 64"):
        even20_circulant(33)


def test_circulant_six():
    g = circulant(6, {1, 3})
    assert g.edge_count() == 9
    assert g.degrees() == (3,) * 6


def test_circulant_k5():
    assert circulant(5, {1, 2}) == complete(5)


def test_circulant_alpha_24():
    assert alpha(circulant(24, {3, 4})) == 9


def test_circulant_degree_formula():
    import random

    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(3, 30)
        d = set(rng.sample(range(1, n // 2 + 1), k=rng.randint(1, n // 4 + 1)))
        g = circulant(n, d)
        expected = 2 * len(d) - (1 if n % 2 == 0 and n // 2 in d else 0)
        assert g.degrees() == (expected,) * n


def test_circulant_rejects_bad_difference():
    with pytest.raises(ValueError):
        circulant(6, {4})
    with pytest.raises(ValueError):
        circulant(6, {0})
    with pytest.raises(ValueError, match="circulant needs 3 <= n <= 64, got 2"):
        circulant(2, [1])


def test_stable3_parameters():
    assert stable3_circulant(3).n == 24
    assert stable3_circulant(5).n == 60
    with pytest.raises(ValueError):
        stable3_circulant(2)
    with pytest.raises(ValueError):
        stable3_circulant(6)


def test_stable3_alpha():
    assert alpha(stable3_circulant(3)) == 9
    assert alpha(stable3_circulant(4)) == 16


def test_stable4_parameters():
    assert stable4_circulant(3).n == 25
    assert stable4_circulant(5).n == 61
    with pytest.raises(ValueError):
        stable4_circulant(2)
    with pytest.raises(ValueError, match="needs 85 vertices > 64"):
        stable4_circulant(6)


def test_even20_k3_is_k33():
    assert canonical(even20_circulant(3)) == canonical(kn_tight(6))


def test_even20_k3_not_tight():
    g = even20_circulant(3)
    assert alpha(g) == 3  # exceeds the (2,0) bound of 2
    assert not is_tight_stable(g, 2, 0)


def test_even20_k4_tight():
    assert is_tight_stable(even20_circulant(4), 2, 0)


def test_figure2():
    g = figure2()
    assert alpha(g) == 3
    assert is_tight_stable(g, 1, 0)
    # contains a triangle, so no bipartite supergraph embedding exists
    assert any(
        g.has_edge(u, v) and g.has_edge(v, w) and g.has_edge(u, w)
        for u in range(6)
        for v in range(u + 1, 6)
        for w in range(v + 1, 6)
    )


def test_lift_alpha_and_identity():
    g = cycle(5)
    assert lift(g, 0) is g
    for j in (1, 2, 3):
        assert alpha(lift(g, j)) == alpha(g) + j


def test_lift_c5_tight31():
    assert is_tight_stable(lift(cycle(5), 1), 3, 1)


def test_lift_c7_tight42():
    assert is_tight_stable(lift(cycle(7), 2), 4, 2)


def test_lift_cap():
    with pytest.raises(ValueError):
        lift(complete(60), 5)
    with pytest.raises(ValueError, match="lift needs j >= 0, got -1"):
        lift(cycle(3), -1)


def test_tight_ladder_from_named_families():
    # lifted witnesses exist at every rung: k = l + 1 from the bipartite
    # family, k = l + 2 from odd cycles and even wheels
    for n in range(2, 13):
        for l in range(0, n - 1):
            base = kn_tight(n - l)
            assert is_tight_stable(lift(base, l), l + 1, l)
    for n in range(3, 13):
        for l in range(0, n - 2):
            m = n - l
            if m < 3 or (m % 2 == 0 and m < 4):
                continue
            base = cycle(m) if m % 2 else wheel(m)
            assert is_tight_stable(lift(base, l), l + 2, l)


def test_sandwich_deterministic():
    a = sandwich_sample(8, 12345)
    b = sandwich_sample(8, 12345)
    assert a == b
    assert {sandwich_sample(8, s).edge_count() for s in range(20)} != {4}, (
        "twenty seeds never adding an optional edge points at a dead generator"
    )


def test_sandwich_between_families():
    for seed in range(30):
        for n in (6, 7, 8, 9):
            g = sandwich_sample(n, seed)
            low, high = mn_matching(n), kn_tight(n)
            for u, v in low.edges():
                assert g.has_edge(u, v)
            for u, v in g.edges():
                assert high.has_edge(u, v)


def test_sandwich_extremes_by_construction():
    # with every optional edge the sandwich is the bipartite family itself,
    # with none it is the matching family
    n = 8
    low, high = mn_matching(n), kn_tight(n)
    optional = [e for e in high.edges() if not low.has_edge(*e)]
    assert sorted(low.edges() + optional) == high.edges()


def test_sandwich_tight_100_seeds():
    for seed in range(100):
        assert is_tight_stable(sandwich_sample(8, seed), 1, 0)


def test_sandwich_rejects_small_n():
    with pytest.raises(ValueError):
        sandwich_sample(3, 0)


def test_generators_are_deterministic():
    assert cycle(9) == cycle(9)
    assert stable3_circulant(4) == stable3_circulant(4)
    assert figure2() == figure2()
