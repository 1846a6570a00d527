import hashlib
import json

import pytest

from indstab import verify
from indstab.families import lift
from indstab.mis import alpha, saturating_matching
from indstab.stability import (
    alpha_drop,
    is_tight_stable,
    stability_bound,
    stable_vertex_count,
)
from indstab.verify import (
    EXPECTED_DISCREPANCIES,
    SUITE_ORDER,
    Facts,
    VerifyConfig,
    _class_facts,
    catalog_facts,
    run_all,
    suite_constructions,
    suite_edge_bounds,
    suite_erdos_rogers,
    suite_hall,
    suite_stability_bound,
    suite_uniqueness,
)

from _oracles import all_max_independent_sets


def _run(suite, max_n):
    # one suite at max_n, called as run_all calls it
    config = VerifyConfig(max_n=max_n, jobs=1, suites=(suite.__name__.removeprefix("suite_"),))
    return suite(catalog_facts(config), config)


def test_class_facts_match_scans(catalog):
    # every fact read from the subset_alphas table, and the lift check read of
    # the profile, rebuilt from the removal scans and the maximum-independent-set walk
    five = tuple(s for s in SUITE_ORDER if s != "uniqueness")
    for n in range(2, 8):
        for _, g in catalog(n):
            a = alpha(g)
            drops = tuple(alpha_drop(g, k) for k in range(1, n))
            pairs = [
                (k, l) for k in range(1, n) for l in range(k)
                if drops[k - 1] <= l and a == stability_bound(n, k, l)
            ]
            lifted = lift(g, 1)
            hall = edges = None
            if drops[0] == 0:
                sets = all_max_independent_sets(g)
                missing = sum(saturating_matching(g, y) is None for y in sets)
                hall = (len(sets) - missing, missing)
                if a == stability_bound(n, 1, 0):
                    edges = g.edge_count()
            # p(n - k) = alpha - drop_k, p(0) = 0, p(n) = alpha
            profile = (0, *(a - d for d in reversed(drops)), a)
            want = Facts(a, profile, stable_vertex_count(g), hall, edges)
            # the pass asks no class for its code: None in its place is never called
            assert _class_facts(five, 7, g, None) == want
            # the lift check, read of the profile alone
            assert verify._lifts(profile) == (
                len(pairs), sum(not is_tight_stable(lifted, k + 1, l + 1) for k, l in pairs)
            )


def test_theorem_suite_small():
    checks = _run(suite_stability_bound, 5)
    assert all(c.status == "pass" for c in checks)
    # n=1 vacuous + per-n catalog checks + one check per (n, k, l)
    assert any(c.params == {"n": 1} for c in checks)
    assert any(c.params == {"n": 5, "k": 2, "l": 1} for c in checks)


def test_hall_suite_small():
    checks = _run(suite_hall, 6)
    assert all(c.status == "pass" for c in checks)
    assert len(checks) == 5  # n = 2..6


def test_edge_bounds_small():
    checks = _run(suite_edge_bounds, 6)
    assert all(c.status == "pass" for c in checks)
    by_n = {c.params["n"]: c for c in checks}
    assert "[3, 9]" in by_n[6].expected or "3" in by_n[6].expected


def test_uniqueness_small():
    # the n values come from the config: 3..9 without allow_long
    checks = suite_uniqueness({}, VerifyConfig(suites=("uniqueness",), jobs=1))
    assert [c.params["n"] for c in checks] == [3, 5, 7, 9]
    assert all(c.status == "pass" for c in checks)


def test_erdos_rogers_suite_small():
    checks = _run(suite_erdos_rogers, 5)
    assert all(c.status == "pass" for c in checks)
    assert len(checks) == 3  # n = 3..5


def test_constructions_suite_statuses():
    checks = _run(suite_constructions, 8)
    noted = [c.name for c in checks if c.status == "discrepancy-noted"]
    assert tuple(noted) == EXPECTED_DISCREPANCIES
    assert not [c for c in checks if c.status == "fail"]


def test_config_rejects_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        VerifyConfig(suites=("spectra",))
    with pytest.raises(ValueError, match="max_n"):
        VerifyConfig(max_n=9)
    with pytest.raises(ValueError, match="max_n must be in 1..8, got 0"):
        VerifyConfig(max_n=0, suites=("uniqueness",))
    # a repeated suite would run once but be listed twice in the report
    with pytest.raises(ValueError, match="^suite 'hall' is named more than once$"):
        VerifyConfig(suites=("hall", "erdos_rogers", "hall"))


def _small_config(**kw):
    defaults = dict(max_n=5, suites=("hall", "erdos_rogers"), jobs=1)
    defaults.update(kw)
    return VerifyConfig(**defaults)


def test_run_all_small_passes():
    report = run_all(_small_config())
    assert report.ok
    assert report.summary["fail"] == 0
    assert len(report.checks) == report.summary["pass"] + report.summary[
        "discrepancy-noted"
    ]


def test_report_json_is_deterministic_and_valid():
    a = run_all(_small_config()).to_json()
    b = run_all(_small_config()).to_json()
    assert a == b
    doc = json.loads(a)
    assert doc["schema"] == "indstab-report/1"
    assert doc["summary"]["fail"] == 0
    assert all("duration_ms" not in c for c in doc["checks"])


def test_report_json_with_timings():
    report = run_all(_small_config())
    doc = json.loads(report.to_json(include_timings=True))
    assert all("duration_ms" in c for c in doc["checks"])
    assert isinstance(doc["catalog_ms"], int)
    assert "catalog_ms" not in json.loads(report.to_json())


def test_report_text_charges_the_catalog_pass(monkeypatch):
    text = run_all(_small_config()).to_text()
    assert text.splitlines()[0].startswith("catalog pass (n = 2..5): ")
    assert text.splitlines()[0].endswith(" ms")
    # a uniqueness-only run builds no catalog; run_all finds the suite
    # through the module, so a stand-in keeps the run small
    stand_in = [verify.CheckResult("uniqueness", "stand-in", {}, "", "", verify.PASS)]
    monkeypatch.setattr(verify, "suite_uniqueness", lambda facts, config: stand_in)
    text = run_all(_small_config(suites=("uniqueness",))).to_text()
    assert "catalog pass" not in text
    assert text.startswith("[PASS] uniqueness: ")


def test_report_text_mentions_summary():
    text = run_all(_small_config()).to_text()
    assert "checks:" in text and "fail" in text


def test_worker_count_does_not_change_report():
    a = run_all(_small_config(jobs=1)).to_json()
    b = run_all(_small_config(jobs=2)).to_json()
    assert a == b


def test_report_digest_pinned():
    # the bytes of the report, pinned before the suites shared one catalog pass
    # (the first digest is also the catalog benchmark's)
    def digest(**kw):
        return hashlib.sha256(run_all(VerifyConfig(**kw)).to_json().encode()).hexdigest()

    every_but_uniqueness = tuple(s for s in SUITE_ORDER if s != "uniqueness")
    assert digest(max_n=7, jobs=1, suites=every_but_uniqueness) == (
        "88e3e7f8c36cf3706d981de981364772a8debcef164f0452f36c5db27219afaf"
    )
    four = ("stability_bound", "hall", "edge_bounds", "erdos_rogers")
    for jobs in (1, 2):
        assert digest(max_n=6, jobs=jobs, suites=four) == (
            "b783849cb2d36e8f087d34075df790f315714e65c397cc3e439d15c99a3b48d6"
        )


def test_suite_order_fixed():
    report = run_all(_small_config())
    suites = [c.suite for c in report.checks]
    assert suites == sorted(suites, key=("hall", "erdos_rogers").index)


def test_run_all_default_configuration(default_report):
    # the headline command: every suite at its default scale
    report = default_report
    assert report.ok
    # the bytes of the default report, pinned before its facts came from one
    # subset table per class (reports do not depend on jobs)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == (
        "3ed10e5bf6e78800ea38533fd06e72aeef3efeadcb846d99ac2e733ef97c6508"
    )
    assert report.summary["fail"] == 0
    assert report.summary["discrepancy-noted"] == 2
    names = {c.name for c in report.checks}
    assert "discrepancy pin" in names
    assert any(c.params == {"n": 9} for c in report.checks if c.suite == "uniqueness")
    # the text form spells out what each noted check expected and found
    lines = report.to_text().splitlines()
    for k, bound in ((3, 2), (5, 4)):
        head = f"[NOTED] constructions: even20({k}) tight (2,0) (k={k}) ["
        i = next(i for i, line in enumerate(lines) if line.startswith(head))
        assert lines[i + 1 : i + 3] == [
            "    expected: tight (2,0)-stable (claimed for every k >= 3)",
            f"    actual:   not tight: alpha={k} vs bound {bound}, not (2,0)-stable",
        ]
