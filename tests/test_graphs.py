import copy
import pickle
import random

import pytest

from indstab.graphs import (
    Graph,
    build,
    complement,
    disjoint_union,
    neighborhood,
    remove_vertices,
    vset,
    vset_members,
)
from indstab.families import circulant, cycle, kn_tight
from indstab.graph6 import g6_encode
from indstab.mis import alpha, is_independent
from indstab.canon import canonical

from _oracles import random_graph


def test_build_k3():
    g = build(3, [(0, 1), (1, 2), (0, 2)])
    assert g.edge_count() == 3
    assert g.degrees() == (2, 2, 2)


def test_build_isolated():
    g = build(2, [])
    assert g.edge_count() == 0
    assert g.n == 2


def test_build_duplicate_edges_collapse():
    g = build(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count() == 1


def test_build_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        build(3, [(0, 0)])
    with pytest.raises(ValueError, match="self-loop at vertex 1"):
        Graph(2, (0b00, 0b10))


def test_build_rejects_out_of_range():
    with pytest.raises(ValueError, match="endpoint"):
        build(3, [(0, 3)])


def test_build_rejects_bad_n():
    with pytest.raises(ValueError):
        build(0, [])
    with pytest.raises(ValueError):
        build(65, [])
    for n in (0, 65):
        with pytest.raises(ValueError, match=f"vertex count must be in \\[1, 64\\], got {n}"):
            Graph(n, [0] * n)


def test_graph_validation_catches_asymmetry():
    with pytest.raises(ValueError, match="asymmetric"):
        Graph(2, (0b10, 0b00))
    with pytest.raises(ValueError, match="adjacency has 1 rows for 2 vertices"):
        Graph(2, (0,))
    with pytest.raises(ValueError, match="row 0 has bits beyond vertex 1"):
        Graph(2, (0b100, 0b00))


def test_graph_immutable():
    g = build(2, [(0, 1)])
    with pytest.raises(AttributeError):
        g.n = 5
    with pytest.raises(AttributeError):
        del g.adj
    with pytest.raises(AttributeError):
        del g.n
    with pytest.raises(AttributeError):
        g.label = "x"
    assert (g.n, g.adj) == (2, (0b10, 0b01))


def test_graph_pickle_and_deepcopy_round_trip():
    for g in (build(1, []), cycle(5), kn_tight(6), build(64, [(0, 63)])):
        for h in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
            assert type(h) is Graph
            assert h == g and hash(h) == hash(g) == hash((g.n, g.adj))
        assert g != (g.n, g.adj)


def test_kept_alpha_solve_is_invisible():
    # the solve a Graph keeps once alpha is asked changes no equality, hash,
    # graph6 code or pickle, does not survive pickling, and leaves the value
    # as immutable as a fresh one
    for g in (build(1, []), cycle(5), kn_tight(6), circulant(24, {3, 4})):
        bare = Graph._wrap(g.n, g.adj)
        a = alpha(g)
        assert g._mis[0] == a and not hasattr(bare, "_mis")
        assert g == bare and hash(g) == hash(bare) and g6_encode(g) == g6_encode(bare)
        assert pickle.dumps(g) == pickle.dumps(bare)
        for h in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
            assert h == g and not hasattr(h, "_mis")
        for v in (g, bare):
            with pytest.raises(AttributeError):
                v._mis = (0, 0)
            with pytest.raises(AttributeError):
                del v._mis
        assert g._mis[0] == a


def test_remove_vertex_from_cycle_gives_path():
    g = remove_vertices(cycle(5), vset([0]))
    assert g.n == 4
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]


def test_remove_empty_set_is_identity():
    g = cycle(5)
    assert remove_vertices(g, 0) == g


def test_remove_one_side_of_k33():
    g = remove_vertices(kn_tight(6), vset([0, 1, 2]))
    assert g.n == 3 and g.edge_count() == 0


def test_remove_all_vertices_rejected():
    g = build(2, [(0, 1)])
    with pytest.raises(ValueError, match="every vertex"):
        remove_vertices(g, 0b11)


def test_remove_keeps_only_outside_edges():
    rng = random.Random(7)
    for _ in range(50):
        g = random_graph(rng.randint(2, 10), 0.5, rng)
        s = rng.randrange(1 << g.n)
        if s == g.vertex_mask:
            continue
        h = remove_vertices(g, s)
        keep = vset_members(g.vertex_mask & ~s)
        expected = [
            (u, v) for u, v in g.edges() if u in keep and v in keep
        ]
        renum = {v: i for i, v in enumerate(keep)}
        assert h.edges() == sorted((renum[u], renum[v]) for u, v in expected)


def test_complement_of_complete_is_empty():
    k5 = build(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    assert complement(k5).edge_count() == 0


def test_complement_is_involution():
    rng = random.Random(11)
    for _ in range(30):
        g = random_graph(rng.randint(1, 12), 0.4, rng)
        assert complement(complement(g)) == g


def test_c5_self_complementary():
    assert canonical(complement(cycle(5))) == canonical(cycle(5))


def test_disjoint_union_shifts_labels():
    g = disjoint_union(build(2, [(0, 1)]), build(2, [(0, 1)]))
    assert g.edges() == [(0, 1), (2, 3)]


def test_disjoint_union_cap():
    a = build(40, [])
    b = build(30, [])
    with pytest.raises(ValueError, match="64"):
        disjoint_union(a, b)


def test_neighborhood_on_cycle():
    assert neighborhood(cycle(5), vset([0])) == vset([1, 4])


def test_neighborhood_of_everything_is_empty():
    g = cycle(5)
    assert neighborhood(g, g.vertex_mask) == 0


def test_neighborhood_across_k33():
    g = kn_tight(6)
    assert neighborhood(g, vset([0, 1, 2])) == vset([3, 4, 5])


def test_transformers_preserve_invariants():
    # symmetry and loop-freeness after every transformer; Graph() revalidates
    rng = random.Random(3)
    for _ in range(40):
        g = random_graph(rng.randint(2, 10), 0.5, rng)
        for h in (
            complement(g),
            remove_vertices(g, 1 << rng.randrange(g.n)),
            disjoint_union(g, g),
        ):
            Graph(h.n, h.adj)


def test_vset_roundtrip():
    assert vset_members(vset([5, 1, 3])) == (1, 3, 5)
    assert vset([]) == 0
    assert vset([63]) == 1 << 63
    # a vertex outside 0..63 is one clear error, not a shift error or a
    # mask no graph can hold
    for v in (-1, 64):
        with pytest.raises(ValueError, match=f"^vertex {v} is outside 0..63$"):
            vset([0, v])


def test_vset_members_rejects_negative_masks():
    # a negative mask has no lowest set bit to end on: clearing bits walks
    # -1, -2, -4, ... and never reaches 0; a mask with a bit at 64 or above
    # names a vertex no graph holds, which vset rejects too
    for mask in (-1, -2, -(1 << 64), 1 << 64, (1 << 64) | 1):
        with pytest.raises(ValueError, match="non-negative"):
            vset_members(mask)
    assert vset_members((1 << 64) - 1) == tuple(range(64))


def test_set_readers_at_the_top_label():
    # the set readers on 64 vertices, where a set holding vertex 63 is a mask
    # of 2^63 or more; the smaller tests stop at 12 vertices
    rng = random.Random(64)
    for g in (random_graph(64, 0.5, rng), circulant(64, {1, 31, 32})):
        pairs = [(u, v) for u in range(64) for v in range(u + 1, 64) if g.has_edge(u, v)]
        assert g.edges() == pairs
        independent = 1 << 63
        for v in rng.sample(range(63), 63):
            if not g.adj[v] & independent:
                independent |= 1 << v
        assert is_independent(g, independent) and independent.bit_count() > 1
        top_edge = 1 << 63 | 1 << vset_members(g.adj[63])[0]  # its one edge is at 63
        sets = [independent, top_edge, 1 << 63, g.vertex_mask & ~1]
        sets += [vset(rng.sample(range(63), rng.randint(1, 8))) | 1 << 63 for _ in range(10)]
        for s in sets:
            members = [v for v in range(64) if s >> v & 1]
            outside = [u for u in range(64) if u not in members]
            reached = [u for u in outside if any(g.has_edge(u, v) for v in members)]
            assert neighborhood(g, s) == vset(reached)
            edge_inside = any(g.has_edge(u, v) for u in members for v in members)
            assert is_independent(g, s) == (not edge_inside)
            for removed in (s, s & ~(1 << 63)):
                keep = [v for v in range(64) if not removed >> v & 1]
                h = remove_vertices(g, removed)
                assert h.n == len(keep)
                assert h.edges() == [
                    (i, j) for i, u in enumerate(keep) for j, v in enumerate(keep)
                    if i < j and g.has_edge(u, v)
                ]
    with pytest.raises(ValueError, match="^asymmetric adjacency between 63 and 0$"):
        Graph(64, [1 << 63] + [0] * 63)
