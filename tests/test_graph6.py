import random

import networkx as nx
import pytest

from indstab.graph6 import g6_decode, g6_encode, read_graph6
from indstab.graphs import build

from _oracles import random_graph


def test_k3_hand_encoded():
    # n=3 -> chr(66)='B'; column bits (0,1),(0,2),(1,2) = 111, padded 111000
    assert g6_encode(build(3, [(0, 1), (1, 2), (0, 2)])) == "Bw"


def test_single_vertex():
    assert g6_encode(build(1, [])) == "@"
    g = g6_decode("@")
    assert g.n == 1 and g.edge_count() == 0


def test_p3_hand_encoded():
    # bits (0,1)=1, (0,2)=0, (1,2)=1 -> 101000 = 40 -> 'g'
    assert g6_encode(build(3, [(0, 1), (1, 2)])) == "Bg"


def test_round_trip_random():
    rng = random.Random(99)
    for _ in range(200):
        g = random_graph(rng.randint(1, 64), rng.random(), rng)
        assert g6_decode(g6_encode(g)) == g


def test_round_trip_large_n_form():
    rng = random.Random(5)
    for n in (62, 63, 64):
        g = random_graph(n, 0.3, rng)
        s = g6_encode(g)
        if n >= 63:
            assert s.startswith("~")
        assert g6_decode(s) == g


def test_matches_networkx_corpus():
    # decode an externally produced corpus, re-encode byte for byte
    rng = random.Random(42)
    sizes = [rng.randint(1, 40) for _ in range(100)] + [60, 61, 62, 63, 64]
    for n in sizes:
        g = random_graph(n, rng.random(), rng)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges())
        line = nx.to_graph6_bytes(nxg, header=False).decode().strip()
        ours = g6_decode(line)
        assert ours == g
        assert g6_encode(ours) == line


def test_decode_rejects_bad_length():
    with pytest.raises(ValueError, match="body"):
        g6_decode("Bw?")
    with pytest.raises(ValueError, match="body"):
        g6_decode("B")
    with pytest.raises(ValueError, match="truncated graph6 size field"):
        g6_decode("~??")


def test_decode_rejects_invalid_characters():
    with pytest.raises(ValueError, match="invalid"):
        g6_decode("B!")  # '!' is below the graph6 alphabet


def test_decode_rejects_nonzero_padding():
    # K3 body with a padding bit forced on: 111001 -> chr(63+57)='x'
    with pytest.raises(ValueError, match="padding"):
        g6_decode("Bx")


def test_decode_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        g6_decode("   ")


def test_optional_header_accepted():
    assert g6_decode(">>graph6<<Bw") == build(3, [(0, 1), (1, 2), (0, 2)])


def test_read_graph6_file(tmp_path):
    p = tmp_path / "graphs.g6"
    p.write_text("Bw\n@\n\nBg\n", encoding="utf-8")
    graphs = read_graph6(str(p))
    assert [g.n for g in graphs] == [3, 1, 3]
    assert graphs[0].edge_count() == 3
