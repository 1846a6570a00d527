"""The benchmark's workloads: closed loops of library calls with one caller.

Each workload class builds its inputs and warms up in ``__init__`` (timed as
set-up), lists the operations of one pass in ``ops``, and checks each output
in ``check``, which returns None for a correct output or a one-line reason.
The benchmark calls the library only through the names imported below, which
is where the tracer rebinds them.

Pinned answers were computed at the commit that added this benchmark; a
change that alters any of them changes an answer of the library.
"""

from __future__ import annotations

import hashlib

from indstab.canon import canonical
from indstab.enumeration import search_tight_stable
from indstab.families import (
    circulant,
    cycle,
    stable3_circulant,
    stable4_circulant,
    wheel,
)
from indstab.graph6 import g6_decode, g6_encode
from indstab.graphs import build
from indstab.mis import alpha_mask, max_independent_set
from indstab.stability import alpha_drop, is_stable
from indstab.verify import EXPECTED_DISCREPANCIES, SUITE_ORDER, VerifyConfig, run_all


def splitmix64(state: int):
    """The splitmix64 stream, so that inputs are identical on every Python."""
    mask = (1 << 64) - 1
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)


def permutation(n: int, stream) -> list[int]:
    """A Fisher-Yates shuffle of 0..n-1 drawn from `stream`."""
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = next(stream) % (i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


class Catalog:
    """The default verify run, without the uniqueness suite, at max_n = 7."""

    name = "catalog"
    why = (
        "the verify run users run: every suite but uniqueness rebuilds the "
        "small catalogs, so one catalog pass per n shows here"
    )
    takes_seed = False
    SUITES = tuple(s for s in SUITE_ORDER if s != "uniqueness")
    MAX_N = 7
    REPORT_SHA256 = "88e3e7f8c36cf3706d981de981364772a8debcef164f0452f36c5db27219afaf"

    def __init__(self, seed: int):
        self.config = VerifyConfig(max_n=self.MAX_N, jobs=1, suites=self.SUITES)
        warm = VerifyConfig(
            max_n=4, jobs=1, suites=("stability_bound", "hall", "edge_bounds", "erdos_rogers")
        )
        run_all(warm)

    def ops(self):
        return [("run_all", lambda: run_all(self.config))]

    def check(self, index: int, report) -> str | None:
        summary = report.summary
        noted = tuple(c.name for c in report.checks if c.status == "discrepancy-noted")
        if summary["fail"] or noted != EXPECTED_DISCREPANCIES:
            return f"summary {summary}, noted {noted}"
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        if digest != self.REPORT_SHA256:
            return f"report sha256 {digest} differs from the pinned report"
        return None


class Tight8:
    """The alpha-capped tight (2, 0) search of the uniqueness suite, at n = 8."""

    name = "tight8"
    why = (
        "alpha-capped canonical augmentation, mostly canon refinement and the "
        "mis alpha prune, with almost no removal scans"
    )
    takes_seed = False
    CODES_SHA256 = "d32b4079a7cc36f41b601a6a8b463bdcd9636b555367b122b6515c3483310226"
    CLASSES = 75

    def __init__(self, seed: int):
        self.wheel = canonical(wheel(8))
        search_tight_stable(6, 2, 0, jobs=1)

    def ops(self):
        return [("search_tight_stable(8,2,0)", lambda: search_tight_stable(8, 2, 0, jobs=1))]

    def check(self, index: int, codes) -> str | None:
        digest = hashlib.sha256(b"".join(c.code for c in codes)).hexdigest()
        if len(codes) != self.CLASSES or digest != self.CODES_SHA256:
            return f"{len(codes)} classes with sha256 {digest}, not the pinned {self.CLASSES}"
        if self.wheel not in codes:
            return "the 8-vertex wheel is missing"
        return None


class Scans:
    """Full removal scans on the stable circulants, each with a pinned answer."""

    name = "scans"
    why = (
        "exhaustive removal scans on 24- to 41-vertex circulants, the witness "
        "pool's target; no canon or enumeration work"
    )
    takes_seed = False
    EXPECTED = (True, True, 0, True, 0)

    def __init__(self, seed: int):
        self.s3_3 = stable3_circulant(3)
        self.s3_4 = stable3_circulant(4)
        self.s4_3 = stable4_circulant(3)
        c9 = cycle(9)
        is_stable(c9, 2, 0)
        alpha_drop(c9, 2)

    def ops(self):
        return [
            ("is_stable(stable3(3),3,0)", lambda: is_stable(self.s3_3, 3, 0)),
            ("is_stable(stable3(4),3,0)", lambda: is_stable(self.s3_4, 3, 0)),
            ("alpha_drop(stable3(4),3)", lambda: alpha_drop(self.s3_4, 3)),
            ("is_stable(stable4(3),4,0)", lambda: is_stable(self.s4_3, 4, 0)),
            ("alpha_drop(stable4(3),4)", lambda: alpha_drop(self.s4_3, 4)),
        ]

    def check(self, index: int, answer) -> str | None:
        if answer != self.EXPECTED[index]:
            return f"answer {answer!r}, pinned {self.EXPECTED[index]!r}"
        return None


class Queries:
    """Independent one-graph requests: decode, MIS, canonical form, (1,0) scan.

    The graphs are drawn once, from a fixed seed: G(n, p) on a grid of n in
    32..64 and p in 0.1..0.5, plus 64-vertex circulants with three
    differences.  The workload seed sets the order of the requests.  It does
    not relabel or redraw the graphs: a request's cost depends on the labels
    (the scan exits at the first vertex in label order whose removal lowers
    alpha), and over the ~130 requests a run has time for, seeded labels moved
    the median latency by up to 30 % between seeds.
    """

    name = "queries"
    why = (
        "one-off requests on 32- to 64-vertex graphs: mis and canon on single "
        "large graphs, removal scans that usually exit early"
    )
    takes_seed = True
    STRUCTURE_SEED = 2021
    NS = (32, 40, 48, 56, 64)
    PS = (0.1, 0.2, 0.3, 0.4, 0.5)
    PER_CELL = 5
    CIRCULANTS = 6
    SCAN_SAMPLE = 8  # one request in this many gets the plain-scan oracle

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs = self.make_inputs(seed)
        self.verified: dict[int, tuple] = {}
        for text in (g6_encode(cycle(9)), g6_encode(wheel(8))):
            self.request(text)

    @classmethod
    def structures(cls) -> list[tuple[int, list[tuple[int, int]]]]:
        stream = splitmix64(cls.STRUCTURE_SEED)
        out = []
        for n in cls.NS:
            for p in cls.PS:
                cut = int(p * 2**64)
                for _ in range(cls.PER_CELL):
                    edges = [
                        (u, v) for v in range(n) for u in range(v) if next(stream) < cut
                    ]
                    out.append((n, edges))
        for _ in range(cls.CIRCULANTS):
            diffs = set()
            while len(diffs) < 3:
                diffs.add(1 + next(stream) % 32)
            out.append((64, circulant(64, diffs).edges()))
        return out

    @classmethod
    def make_inputs(cls, seed: int) -> list[str]:
        """The graph6 request bodies for a workload seed, in request order."""
        texts = [g6_encode(build(n, edges)) for n, edges in cls.structures()]
        order = permutation(len(texts), splitmix64(seed))
        return [texts[i] for i in order]

    @staticmethod
    def request(text: str):
        g = g6_decode(text)
        return g, max_independent_set(g), canonical(g), is_stable(g, 1, 0)

    def ops(self):
        return [(f"query[{i}]", lambda t=t: self.request(t)) for i, t in enumerate(self.inputs)]

    def check(self, index: int, output) -> str | None:
        g, mis, code, stable = output
        key = (mis, code, stable)
        if index in self.verified:
            if self.verified[index] != key:
                return "answer differs from the same request's earlier answer"
            return None
        self.verified[index] = key
        return self._verify(index, g, mis, code, stable)

    def _verify(self, index, g, mis, code, stable) -> str | None:
        if g6_encode(g) != self.inputs[index]:
            return "graph6 does not round-trip"
        w = mis.witness
        if w & ~g.vertex_mask or any(g.adj[v] & w for v in range(g.n) if w >> v & 1):
            return "the witness is not an independent set"
        a = alpha_mask(g.adj, g.vertex_mask)
        if not w.bit_count() == mis.alpha == a:
            return f"witness size {w.bit_count()}, reported {mis.alpha}, alpha {a}"
        stream = splitmix64(self.seed ^ (index + 1) << 32)
        perm = permutation(g.n, stream)
        if canonical(build(g.n, [(perm[u], perm[v]) for u, v in g.edges()])) != code:
            return "canonical form changes under relabelling"
        if next(stream) % self.SCAN_SAMPLE == 0:
            full = g.vertex_mask
            plain = all(alpha_mask(g.adj, full & ~(1 << v)) == a for v in range(g.n))
            if plain != stable:
                return f"is_stable(g,1,0) says {stable}, the plain scan {plain}"
        return None


WORKLOADS = {w.name: w for w in (Catalog, Tight8, Scans, Queries)}
