import random
from itertools import permutations

from indstab.canon import _refine, _refine_root, canonical
from indstab.families import circulant, cycle, kn_tight, lift, path, stable3_circulant, wheel
from indstab.graphs import build

from _oracles import (
    automorphism_generators,
    canonical_labeling,
    min_code_all_perms,
    random_graph,
    refine_full,
    relabeled,
    vertex_orbits,
)


def test_invariance_under_relabeling():
    rng = random.Random(17)
    for _ in range(100):
        g = random_graph(rng.randint(2, 10), rng.choice([0.2, 0.5, 0.8]), rng)
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical(g) == canonical(relabeled(g, perm))


def _refine_inputs(g):
    """(cells, fresh) of the root call, and of every individualization of a
    vertex of the refined root's first non-singleton cell."""
    yield [list(range(g.n))], [0]
    root = refine_full(g.n, g.adj, [list(range(g.n))])
    target = next((i for i, c in enumerate(root) if len(c) > 1), None)
    if target is not None:
        for v in root[target]:
            rest = [u for u in root[target] if u != v]
            yield root[:target] + [[v], rest] + root[target + 1:], [target]


def test_refine_matches_full_recompute(catalog):
    # counting only in the fresh cells gives the identical ordered partition,
    # on the catalog graphs and at the 32- to 64-vertex sizes of one-off queries;
    # the root refinement started from the degree partition is the same one
    rng = random.Random(71)
    graphs = [g for n in range(1, 8) for _, g in catalog(n)]
    graphs += [
        random_graph(rng.randint(32, 64), rng.choice([0.1, 0.3, 0.5]), rng) for _ in range(20)
    ]
    graphs += [circulant(n, d) for n, d in ((32, {1, 5}), (45, {2, 3, 9}), (64, {1, 4, 17}))]
    for g in graphs:
        for cells, fresh in _refine_inputs(g):
            assert _refine(g.adj, cells, fresh) == refine_full(g.n, g.adj, cells)
        assert _refine_root(g.n, g.adj) == _refine(g.adj, [list(range(g.n))], [0])


def test_c5_all_relabelings_agree():
    g = cycle(5)
    codes = {canonical(relabeled(g, list(p))) for p in permutations(range(5))}
    assert len(codes) == 1


def test_c4_equals_k22():
    assert canonical(cycle(4)) == canonical(build(4, [(0, 2), (0, 3), (1, 2), (1, 3)]))


def test_p3_differs_from_k3():
    assert canonical(path(3)) != canonical(build(3, [(0, 1), (1, 2), (0, 2)]))


def test_agreement_matches_permutation_oracle():
    # equal codes <=> equal all-permutation minima, on a mixed random corpus
    rng = random.Random(23)
    graphs = [random_graph(6, rng.choice([0.3, 0.5, 0.7]), rng) for _ in range(60)]
    ours = [canonical(g) for g in graphs]
    brute = [min_code_all_perms(g) for g in graphs]
    for i in range(len(graphs)):
        for j in range(i + 1, len(graphs)):
            assert (ours[i] == ours[j]) == (brute[i] == brute[j])


def test_canonical_labeling_achieves_code():
    rng = random.Random(31)
    for _ in range(30):
        g = random_graph(rng.randint(2, 9), 0.5, rng)
        perm = canonical_labeling(g)
        # relabeling by the inverse puts the graph into canonical position
        inv = [0] * g.n
        for pos, v in enumerate(perm):
            inv[v] = pos
        assert canonical(relabeled(g, inv)) == canonical(g)


def test_orbits_of_symmetric_graphs():
    assert vertex_orbits(cycle(6)) == [[0, 1, 2, 3, 4, 5]]
    assert vertex_orbits(kn_tight(6)) == [[0, 1, 2, 3, 4, 5]]
    star = build(4, [(0, 1), (0, 2), (0, 3)])
    assert vertex_orbits(star) == [[0], [1, 2, 3]]
    # beyond the brute-force range, fixed and moved vertices mixed
    assert vertex_orbits(lift(stable3_circulant(3), 2)) == [list(range(24)), [24, 25]]
    assert vertex_orbits(wheel(9)) == [list(range(8)), [8]]
    assert vertex_orbits(path(7)) == [[0, 6], [1, 5], [2, 4], [3]]
    assert vertex_orbits(circulant(64, {1, 5, 17})) == [list(range(64))]


def test_orbits_match_brute_force(catalog):
    # orbit of v = set of images of v over all automorphisms, on random graphs
    # and on every class with n <= 6
    rng = random.Random(41)
    graphs = [random_graph(rng.randint(2, 6), rng.choice([0.3, 0.7]), rng) for _ in range(40)]
    graphs += [g for n in range(1, 7) for _, g in catalog(n)]
    for g in graphs:
        autos = [
            p
            for p in permutations(range(g.n))
            if relabeled(g, list(p)) == g
        ]
        expected = sorted(
            sorted({p[v] for p in autos} | {v}) for v in range(g.n)
        )
        dedup = []
        for orb in expected:
            if orb not in dedup:
                dedup.append(orb)
        assert vertex_orbits(g) == dedup


def test_generators_are_automorphisms():
    rng = random.Random(43)
    for _ in range(30):
        g = random_graph(rng.randint(2, 8), 0.5, rng)
        for sigma in automorphism_generators(g):
            assert relabeled(g, list(sigma)) == g


def test_code_embeds_vertex_count():
    c = canonical(cycle(5))
    assert c.n == 5
    assert c.code[0] == 5
