"""Acceptance suite: every stated criterion at its stated scale, one line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines;
each test also asserts, so the suite is red if any criterion fails.  The
heavier criteria (the full n <= 8 sweeps and the n = 9 uniqueness search) use
every available core.
"""

import random

import pytest

from indstab.canon import canonical
from indstab.enumeration import search_tight_stable
from indstab.erdos_rogers import er_predicted, er_table
from indstab.families import (
    cycle,
    even20_circulant,
    kn_tight,
    lift,
    mn_matching,
    path,
    stable3_circulant,
    stable4_circulant,
    wheel,
)
from indstab.graph6 import g6_decode, g6_encode
from indstab.mis import alpha
from indstab.stability import (
    alpha_drop,
    is_stable,
    is_tight_stable,
    stability_bound,
    stable_vertex_count,
)
from indstab.verify import (
    CLASS_COUNTS,
    EXPECTED_DISCREPANCIES,
    VerifyConfig,
    catalog_facts,
    suite_constructions,
    suite_stability_bound,
)

from _oracles import (
    alpha_brute,
    check_stable_vertex_bound,
    min_code_all_perms,
    random_graph,
    relabeled,
)


def _report(num: int, ok: bool, text: str) -> None:
    print(f"acceptance criterion {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


@pytest.fixture(scope="module")
def constructions_checks(jobs):
    config = VerifyConfig(jobs=jobs, suites=("constructions",))
    return suite_constructions(catalog_facts(config), config)


def test_criterion_1_theorem_bound_exhaustive(jobs):
    config = VerifyConfig(max_n=8, jobs=jobs, suites=("stability_bound",))
    checks = suite_stability_bound(catalog_facts(config), config)
    bad = [c for c in checks if c.status != "pass"]
    counts = [
        int(c.actual) for c in checks if c.name == "catalog size"
    ]
    ok = not bad and counts == CLASS_COUNTS[1:8]
    _report(
        1, ok,
        f"bound holds on all classes n<=8 ({sum(counts) + 1} classes, "
        f"{len(checks)} checks)",
    )


def test_criterion_2_circulant_family(jobs):
    results = []
    for m in (3, 4, 5):
        results.append(alpha(stable3_circulant(m)) == m * m)
    for m in (3, 4):
        results.append(is_stable(stable3_circulant(m), 3, 0))
    results.append(is_stable(stable4_circulant(3), 4, 0))
    _report(
        2, all(results),
        "alpha = m^2 for m in {3,4,5}; (3,0)-stable for m in {3,4}; "
        "(4,0)-stable at 25 vertices",
    )


def test_criterion_3_tight_families():
    ok = (
        all(is_tight_stable(cycle(n), 2, 0) for n in range(3, 16, 2))
        and all(is_tight_stable(wheel(n), 2, 0) for n in range(4, 15, 2))
        and all(is_tight_stable(kn_tight(n), 1, 0) for n in range(2, 15))
        and all(is_tight_stable(path(n), 2, 1) for n in range(3, 15))
        and all(is_tight_stable(mn_matching(n), 1, 0) for n in range(2, 15))
    )
    _report(3, ok, "cycles, wheels, bipartite, paths, matchings tight on full ranges")


def test_criterion_4_no_tight_30_at_six(jobs):
    found = search_tight_stable(6, 3, 0, jobs=jobs)
    _report(4, found == [], "no 6-vertex tight (3,0)-stable graph exists")


def test_criterion_5_uniqueness_of_odd_cycles(default_report):
    # a uniqueness check passes when search_tight_stable(n, 2, 0) equals
    # [canonical(cycle(n))]
    checks = {c.params["n"]: c for c in default_report.checks if c.suite == "uniqueness"}
    ok = sorted(checks) == [3, 5, 7, 9] and all(c.status == "pass" for c in checks.values())
    detail = [
        f"n={n}:{'unique' if c.status == 'pass' else 'VIOLATED'}"
        for n, c in sorted(checks.items())
    ]
    _report(5, ok, "tight (2,0) search returns exactly the cycle: " + ", ".join(detail))


def test_criterion_6_lifting_preserves_tightness(catalog):
    checked = 0
    bad = 0
    for n in range(2, 8):
        for _, g in catalog(n):
            a = alpha(g)
            drops = [alpha_drop(g, k) for k in range(1, n)]
            for k in range(1, n):
                for l in range(k):
                    if drops[k - 1] <= l and a == stability_bound(n, k, l):
                        checked += 1
                        if not is_tight_stable(lift(g, 1), k + 1, l + 1):
                            bad += 1
    _report(6, bad == 0 and checked > 0, f"{checked} tight cases lifted, {bad} violations")


def test_criterion_7_stable_vertex_count_bound(catalog):
    bad = 0
    total = 0
    for n in range(2, 9):
        for _, g in catalog(n):
            total += 1
            if not check_stable_vertex_bound(g):
                bad += 1
    witness_ok = True
    for m in (2, 4, 6):
        for n in (6, 8):
            w = lift(kn_tight(m), n - m)
            witness_ok = witness_ok and (
                stable_vertex_count(w) == m and alpha(w) == (2 * n - m) // 2
            )
    _report(
        7, bad == 0 and witness_ok,
        f"alpha <= floor(n - m/2) on {total} classes; equality witnesses attain it",
    )


def test_criterion_8_edge_bounds(catalog):
    ok = True
    for n in range(2, 9):
        lo = mn_matching(n).edge_count()
        hi = kn_tight(n).edge_count()
        tight_codes = set()
        edge_counts = []
        for code, g in catalog(n):
            if is_tight_stable(g, 1, 0):
                tight_codes.add(code)
                edge_counts.append(g.edge_count())
        ok = ok and all(lo <= e <= hi for e in edge_counts)
        ok = ok and lo in edge_counts and hi in edge_counts
        ok = ok and canonical(mn_matching(n)) in tight_codes
        ok = ok and canonical(kn_tight(n)) in tight_codes
    _report(8, ok, "tight (1,0) classes bounded by the two families at n=2..8")


def test_criterion_9_erdos_rogers_grid(jobs):
    ok = True
    cells = 0
    for n in range(3, 9):
        for row in er_table(n, jobs=jobs):
            if row.predicted is None:
                continue
            cells += 1
            ok = ok and row.computed == n - row.t
    ok = ok and er_predicted(8, 5, 1) == 7
    _report(9, ok, f"computed value equals n - t on {cells} applicable cells, n=3..8")


def test_criterion_10_oracle_suites(catalog, jobs):
    # exact solver vs the 2^n brute force
    mis_ok = True
    for n in range(1, 8):
        for _, g in catalog(n):
            if alpha(g) != alpha_brute(g):
                mis_ok = False
    rng = random.Random(2024)
    for _ in range(10_000):
        g = random_graph(rng.randint(1, 16), rng.choice([0.15, 0.3, 0.5, 0.7, 0.85]), rng)
        if alpha(g) != alpha_brute(g):
            mis_ok = False
            break

    # canonical codes vs the all-permutation oracle, all pairs per n
    canon_ok = True
    for n in range(1, 8):
        codes = [code for code, _ in catalog(n)]
        brute = [min_code_all_perms(g) for _, g in catalog(n)]
        # every catalog pair: code equality iff oracle equality (all distinct)
        canon_ok = canon_ok and len(set(codes)) == len(codes)
        canon_ok = canon_ok and len(set(brute)) == len(brute)
        sample = catalog(n) if n <= 6 else catalog(n)[::5]
        for code, g in sample:
            perm = list(range(n))
            rng.shuffle(perm)
            h = relabeled(g, perm)
            canon_ok = canon_ok and canonical(h) == code
            canon_ok = canon_ok and min_code_all_perms(h) == min_code_all_perms(g)

    # graph6 byte-exact round trip over the full n <= 8 catalog
    g6_ok = True
    for n in range(1, 9):
        for _, g in catalog(n):
            line = g6_encode(g)
            if g6_decode(line) != g or g6_encode(g6_decode(line)) != line:
                g6_ok = False

    _report(
        10, mis_ok and canon_ok and g6_ok,
        "solver == 2^n scan (catalog + 10^4 random n<=16); codes == permutation "
        "oracle on all catalog pairs n<=7; graph6 round-trip byte-exact n<=8",
    )


def test_criterion_11_discrepancy_pin(constructions_checks):
    tight_even = all(is_tight_stable(even20_circulant(k), 2, 0) for k in (4, 6))
    unstable_odd = all(not is_stable(even20_circulant(k), 2, 0) for k in (3, 5))
    noted = tuple(
        c.name for c in constructions_checks if c.status == "discrepancy-noted"
    )
    pinned = noted == EXPECTED_DISCREPANCIES
    _report(
        11, tight_even and unstable_odd and pinned,
        "cycle-plus-diameters family: tight at k in {4,6}, not (2,0)-stable at "
        "k in {3,5}, discrepancies noted exactly as pinned",
    )
