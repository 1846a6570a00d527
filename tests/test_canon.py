import random
from itertools import permutations
from math import factorial

from indstab.canon import (
    _automorphisms, _leaf_code, _leaves, _least, _orbit, _refine, _refine_root, canonical,
)
from indstab.families import (
    circulant, cycle, kn_tight, lift, path, stable3_circulant, stable4_circulant, wheel,
)
from indstab.graphs import build, complement, disjoint_union

from _oracles import (
    automorphism_generators,
    canonical_labeling,
    group_elements,
    group_order,
    min_code_all_perms,
    path_group_order,
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


def _orbit_partition(n, gens):
    return {frozenset(_orbit([v], gens)) for v in range(n)}


def _u_first(n, adj, u):
    """The refined root partition with u's cell first and u first in it."""
    root = _refine_root(n, adj)
    i = next(i for i, c in enumerate(root) if u in c)
    return [[u] + [v for v in root[i] if v != u]] + root[:i] + root[i + 1:]


def test_generator_search_stabilizer_orbits_match_group(catalog):
    # on every class with n <= 7, from a root with u first, the generators
    # that fix u give the orbits of every automorphism that fixes u, for
    # every vertex u.  The automorphisms are the closure of the generators
    # from the plain root, the whole group by the group-order identity below
    for n in range(1, 8):
        for _, g in catalog(n):
            group = group_elements(_automorphisms(n, g.adj), n)
            for u in range(n):
                ours = [s for s in _automorphisms(n, g.adj, _u_first(n, g.adj, u)) if s[u] == u]
                fixing = [p for p in group if p[u] == u]
                assert _orbit_partition(n, ours) == _orbit_partition(n, fixing)


def test_generator_search_group_order_matches_brute_force(catalog):
    # the group the generators generate has as many elements as the graph
    # has automorphisms, counted over all n! relabelings, on every class
    # with n <= 6; each generator is an automorphism
    for n in range(1, 7):
        for _, g in catalog(n):
            autos = sum(relabeled(g, list(p)) == g for p in permutations(range(n)))
            gens = _automorphisms(n, g.adj)
            assert all(relabeled(g, s) == g for s in gens)
            assert group_order(gens, n) == autos
            assert path_group_order(g, gens) == autos


def test_group_orders_sum_to_labeled_graph_count(catalog):
    # orbit-stabilizer over whole catalogs: a class on n vertices stands for
    # n!/|Aut G| labeled graphs, and the classes for all 2^(n(n-1)/2) of
    # them.  A missing class, a repeated one or a group short of an
    # automorphism each moves the sum; enumeration trusts _automorphisms for
    # every class's whole group
    for n in range(1, 9):
        orders = [path_group_order(g, _automorphisms(n, g.adj)) for _, g in catalog(n)]
        assert sum(factorial(n) // order for order in orders) == 2 ** (n * (n - 1) // 2), n


def test_generator_search_backtracks_below_a_path_node():
    # 2C3 + C6 is 2-regular, so refinement cannot tell the triangles from the
    # hexagon: under some labelings the first vertex tried below a path node
    # leads to no leaf equivalent to the first, and a later one must.  The
    # group is (S3 wr S2) x D6, of order 72 * 12
    g = disjoint_union(disjoint_union(cycle(3), cycle(3)), cycle(6))
    rng = random.Random(47)
    for _ in range(10):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabeled(g, perm)
        assert group_order(_automorphisms(h.n, h.adj), h.n) == 864


def _shrikhande():
    """The Cayley graph of Z4 x Z4 on +-(1, 0), +-(0, 1) and +-(1, 1)."""
    return build(16, [(4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4)
                      for a in range(4) for b in range(4) for da, db in ((1, 0), (0, 1), (1, 1))])


def _relabelled_gallery(count, seed):
    """`count` seeded relabellings of small graphs with groups to prune by,
    taken from the gallery in turn."""
    gallery = [_shrikhande(), cycle(12), wheel(9), path(11), circulant(12, {1, 5}),
               circulant(13, {1, 5}), disjoint_union(cycle(4), cycle(4)), lift(cycle(6), 3),
               disjoint_union(disjoint_union(cycle(3), cycle(3)), cycle(6)), kn_tight(8)]
    rng = random.Random(seed)
    for i in range(count):
        g = gallery[i % len(gallery)]
        perm = list(range(g.n))
        rng.shuffle(perm)
        yield relabeled(g, perm)


def test_least_leaf_prune_keeps_the_unpruned_leaf(catalog):
    # _least pruned by the group and the unpruned walk (no automorphism
    # known) give the same code and labeling, on every class with n <= 7 and
    # on seeded relabellings of graphs with larger groups, and the pruned
    # _leaves walk reaches every leaf code of the unpruned one.  In the
    # Shrikhande graph refinement leaves cells that join orbits of a node's
    # stabilizer, so a prune by generators that move the node's prefix cuts
    # the first least leaf there.  The group search walks the same _leaves,
    # so this guards its prune too
    graphs = [g for n in range(1, 8) for _, g in catalog(n)]
    for g in graphs + list(_relabelled_gallery(20, 67)):
        root = _refine_root(g.n, g.adj)
        gens = _automorphisms(g.n, g.adj)
        assert _least(g.n, g.adj, root, gens) == _least(g.n, g.adj, root, [])
        codes = [{_leaf_code(g.n, g.adj, perm) for perm in _leaves(g.adj, root, stab)}
                 for stab in (gens, [])]
        assert codes[0] == codes[1]


def test_least_leaf_on_large_symmetric_graphs():
    # where the unpruned walk is out of reach: the code is the same under
    # three relabellings, and the labeling spells it
    k20 = complement(build(20, []))
    rng = random.Random(71)
    for g in (complement(build(40, [])), complement(disjoint_union(k20, k20)),
              stable3_circulant(5), stable4_circulant(5), lift(kn_tight(20), 6),
              lift(stable3_circulant(3), 2)):
        root = _refine_root(g.n, g.adj)
        perm = _least(g.n, g.adj, root, _automorphisms(g.n, g.adj, root))[1]
        code = canonical(g)
        bits = "".join(str(g.adj[perm[i]] >> perm[j] & 1)
                       for i in range(g.n) for j in range(i + 1, g.n))
        assert code.code[0] == g.n and int.from_bytes(code.code[1:], "big") == int(bits, 2)
        for _ in range(3):
            relabel = list(range(g.n))
            rng.shuffle(relabel)
            assert canonical(relabeled(g, relabel)) == code


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
