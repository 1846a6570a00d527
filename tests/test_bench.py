import argparse
import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# a bench script whose case ["pid"] gives each run its own counters and
# ["src"] each side its own result
FAKE = """\
import json, os, sys
kind = json.loads(sys.argv[2])[0]
print(json.dumps({
    "seconds": 0.0,
    "result": os.environ["PYTHONPATH"] if kind == "src" else 0,
    "counters": {"pid": os.getpid() if kind == "pid" else 0},
}))
"""


@pytest.fixture
def pairs(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    import pairs

    return pairs


def test_quartiles_lie_within_the_values(pairs):
    # two values, as a --pairs 2 run's ratios: the quartiles may not reach
    # past either (the exclusive method put q1 at 0.4 here)
    q = pairs._quartiles([0.5, 0.9])
    assert q == {"median": 0.7, "q1": 0.6, "q3": 0.8}
    for xs in ([0.5, 0.9], [1.2, 0.7, 0.9], [3.0, 1.0, 2.0, 5.0]):
        q = pairs._quartiles(xs)
        assert min(xs) <= q["q1"] <= q["median"] <= q["q3"] <= max(xs)


def _fake_run(pairs, tmp_path, kind):
    script = tmp_path / "fake.py"
    script.write_text(FAKE)
    args = argparse.Namespace(parent_src=str(tmp_path), pairs=2, out=str(tmp_path / "out.json"),
                              one=None)
    pairs.run(str(script), None, args, [((kind,), 2)])


def test_pairs_stops_when_a_side_does_not_repeat(pairs, tmp_path):
    with pytest.raises(SystemExit, match="runs disagree"):
        _fake_run(pairs, tmp_path, "pid")
    assert not (tmp_path / "out.json").exists()


def test_pairs_stops_when_the_sides_disagree(pairs, tmp_path):
    with pytest.raises(SystemExit, match="the sides disagree"):
        _fake_run(pairs, tmp_path, "src")


def test_pairs_gives_no_ratio_over_a_parent_that_reads_zero(pairs, tmp_path):
    # the fake reads 0.0 s on both sides, as a tiny case can at 3 decimals
    _fake_run(pairs, tmp_path, "same")
    entry = json.loads((tmp_path / "out.json").read_text())["cases"]["same"]
    assert entry["change_faster_pairs"] == "0 of 2"
    assert entry["change_over_parent"] is None


def _catalog_two_pairs(monkeypatch, tmp_path, case: tuple) -> dict:
    # bench/catalog.py's own command line and gates, with this checkout as
    # both sides, over one case and no long case; gives that case's change
    # side
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    import catalog

    checked, check = [], catalog._check

    def untimed(case, entry, doc):
        # two pairs of a few-ms search read only noise, so the timing gate
        # sees the parent's seconds on both sides; it is tried on its own below
        checked.append(case)
        check(case, {**entry, "change": {**entry["change"], "seconds": entry["parent"]["seconds"]}},
              doc)

    out = tmp_path / "BENCH_catalog_levels.json"
    monkeypatch.setattr(catalog, "CASES", [case])
    monkeypatch.setattr(catalog, "_check", untimed)
    argv = ["catalog.py", SRC, "--pairs", "2", "--long-pairs", "0", "--out", str(out)]
    monkeypatch.setattr(sys, "argv", argv)
    catalog.main()
    assert checked == [case]
    doc = json.loads(out.read_text())
    assert list(doc) == ["label", "host", "command", "cases"]
    assert doc["label"] == "catalog_levels"  # the --out name
    assert doc["command"] == "python bench/catalog.py PARENT_SRC --pairs 2 --long-pairs 0"
    key = " ".join(map(str, case))
    assert list(doc["cases"]) == [key]
    entry = doc["cases"][key]
    assert set(entry) == {"parent", "change", "change_faster_pairs", "change_over_parent"}
    assert re.fullmatch(r"[0-2] of 2", entry["change_faster_pairs"])
    assert entry["parent"]["result"] == entry["change"]["result"]
    for side in ("parent", "change"):
        assert set(entry[side]) == {
            "seconds", "cpu_self_s", "rss_self_mib", "rss_children_mib", "result", "counters",
        }
        assert set(entry[side]["seconds"]) == {"median", "q1", "q3", "runs"}
        assert len(entry[side]["seconds"]["runs"]) == len(entry[side]["rss_self_mib"]) == 2
        assert set(entry[side]["counters"]) == {
            "expand", "expand_roots", "root_refinements", "refine_calls", "searches",
            "least_walks", "leaves", "worst_drops",
        }
    return entry["change"]


def test_catalog_bench_two_pairs(monkeypatch, tmp_path):
    count = _catalog_two_pairs(monkeypatch, tmp_path, ("count", 5, 1))
    assert count["result"]["classes"] == 34


def test_dfs_bench_two_pairs(monkeypatch, tmp_path):
    # the serial tight search that bench/dfs.py timed, now a catalog.py case;
    # canon._code starts 3 of the 35 group searches, for classes whose group
    # the walk does not hold
    tight = _catalog_two_pairs(monkeypatch, tmp_path, ("search", 6, 1, "tight-stable:2,0"))
    assert tight["result"]["classes"] == 15
    counters = tight["counters"]
    assert (counters["expand"], counters["searches"], counters["least_walks"]) == (21, 35, 15)


def test_stable_bench_two_pairs(monkeypatch, tmp_path):
    # the Stable search that bench/stable.py timed, now a catalog.py case
    stable = _catalog_two_pairs(monkeypatch, tmp_path, ("search", 6, 1, "stable:2,1"))
    assert stable["result"]["classes"] == 107


def _scans_two_pairs(monkeypatch, tmp_path, case: tuple) -> dict:
    # bench/scans.py's own command line and gates, with this checkout as
    # both sides, over one case; gives that case's entry
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    import scans

    out = tmp_path / "BENCH_generator_scans.json"
    monkeypatch.setattr(scans, "CASES", [case])
    monkeypatch.setattr(sys, "argv", ["scans.py", SRC, "--pairs", "2", "--out", str(out)])
    scans.main()
    doc = json.loads(out.read_text())
    assert list(doc) == ["label", "host", "command", "cases"]
    assert doc["label"] == "generator_scans"  # the --out name
    assert doc["command"] == "python bench/scans.py PARENT_SRC --pairs 2"
    assert list(doc["cases"]) == [" ".join(map(str, case))]
    entry = doc["cases"][" ".join(map(str, case))]
    assert set(entry) == {"parent", "change", "change_faster_pairs", "change_over_parent"}
    assert re.fullmatch(r"[0-2] of 2", entry["change_faster_pairs"])
    assert set(entry["change_over_parent"]) == {"median", "q1", "q3"}
    assert entry["parent"]["result"] == entry["change"]["result"]
    for side in ("parent", "change"):
        assert set(entry[side]) == {"us_per_call", "result", "counters"}
        assert len(entry[side]["us_per_call"]["runs"]) == 2
    return entry


# the nodes pins of the next two tests also check that pairs.per_call's
# counting wrapper is the one frame that scans._from_grow looks past

def test_scans_bench_two_pairs(monkeypatch, tmp_path):
    scan = _scans_two_pairs(monkeypatch, tmp_path, ("is_stable", "stable3(3)", 3, 0))
    for side in ("parent", "change"):
        assert scan[side]["result"] is True
        assert scan[side]["counters"] == {"solver_calls": 6, "group_searches": 1, "nodes": 76}


def test_mis_bench_two_pairs(monkeypatch, tmp_path):
    # the MIS solver's per-call case: bench/scans.py over the 32-vertex
    # `queries` graphs (5,455 nodes when is_stable solved the alpha that
    # max_independent_set had found)
    band = _scans_two_pairs(monkeypatch, tmp_path, ("queries", 32, 32))
    for side in ("parent", "change"):
        assert set(band[side]["result"]) == {"sha256"}
        assert band[side]["counters"] == {"solver_calls": 51, "group_searches": 0, "nodes": 3859}


def _counted(parent: dict, change: dict) -> dict:
    return {"parent": {"counters": parent}, "change": {"counters": change}}


def test_scans_bench_stops_on_more_solver_calls_or_nodes(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    import scans

    case = ("tight", 8, 2, 0)
    same = {"solver_calls": 10, "nodes": 100}
    scans._check(case, _counted(same, same), {})
    with pytest.raises(SystemExit, match=r"^\('tight', 8, 2, 0\): solver_calls 10 -> 11$"):
        scans._check(case, _counted(same, {"solver_calls": 11, "nodes": 100}), {})
    with pytest.raises(SystemExit, match=r"^\('tight', 8, 2, 0\): nodes 100 -> 101$"):
        scans._check(case, _counted(same, {"solver_calls": 10, "nodes": 101}), {})


def test_catalog_bench_stops_on_other_searches_or_more_leaves(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    import catalog

    case = ("facts", 8)
    same = {"searches": 10, "leaves": 100}
    catalog._check(case, _counted(same, same), {})
    catalog._check(case, _counted(same, {"searches": 10, "leaves": 99}), {})
    for change in ({"searches": 9, "leaves": 100}, {"searches": 11, "leaves": 100},
                   {"searches": 10, "leaves": 101}):
        with pytest.raises(SystemExit, match=r"^\('facts', 8\): searches differ or leaves rose"):
            catalog._check(case, _counted(same, change), {})
    # a jobs-2 entry counts nothing, and a "first" entry its _expand calls alone
    catalog._check(("search", 9, 2, "tight-stable:3,1"), _counted({}, {}), {})
    catalog._check(("first", 9, "tight-stable:2,0"), _counted({"expand": 59}, {"expand": 60}), {})


def test_stable_bench_stops_on_a_slower_change(monkeypatch):
    # bench/catalog.py's timing gate, on "stable:" searches alone
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    import catalog

    def entry(parent_q3, change_median):
        return {"parent": {"seconds": {"q3": parent_q3}},
                "change": {"seconds": {"median": change_median}}}

    case = ("search", 8, 1, "stable:2,1")
    catalog._check(case, entry(2.0, 2.0), {})
    with pytest.raises(SystemExit, match=r"^\('search', 8, 1, 'stable:2,1'\): change median 2.1 s"):
        catalog._check(case, entry(2.0, 2.1), {})
    catalog._check(("search", 8, 1, "tight-stable:2,0"), entry(2.0, 2.1), {})


def test_mutants_name_live_text_and_tests(monkeypatch):
    # bench/mutants.py's list stays current: each mutant's text occurs
    # exactly once in its file, and each named test's file exists
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    import mutants

    assert mutants.MUTANTS
    for name, (file, old, new, tests) in mutants.MUTANTS.items():
        with open(os.path.join(ROOT, file)) as f:
            assert f.read().count(old) == 1, name
        assert old != new and tests, name
        for test in tests:
            assert os.path.isfile(os.path.join(ROOT, test.split("::")[0])), (name, test)


def test_mutants_stop_when_the_control_run_fails(monkeypatch, capsys):
    # bench/mutants.py runs every named test once unmutated before any
    # mutant: a test that fails there would read as killing its mutants
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    import mutants

    runs = []

    def failing(cmd, **kwargs):
        runs.append(cmd)
        return subprocess.CompletedProcess(cmd, mutants._KILLED)

    monkeypatch.setattr(mutants.subprocess, "run", failing)
    with pytest.raises(SystemExit) as stop:
        mutants.main()
    assert stop.value.code == 1
    named = {t for *_, tests in mutants.MUTANTS.values() for t in tests}
    assert len(runs) == 1 and set(runs[0][runs[0].index("no:cacheprovider") + 1:]) == named
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["outcome"] == "error"


def test_every_bench_script_has_a_two_pairs_test():
    # a bench script lands with its smoke run: test_<script>_bench_two_pairs
    # here; pairs.py is the harness and mutants.py is not a paired bench.
    # A whole-run case goes in catalog.py and a per-call case in scans.py;
    # a third paired script must say here why neither fits it
    scripts = {f[:-3] for f in os.listdir(os.path.join(ROOT, "bench")) if f.endswith(".py")}
    assert scripts == {"catalog", "scans", "pairs", "mutants"}
    for script in sorted(scripts - {"pairs", "mutants"}):
        assert f"test_{script}_bench_two_pairs" in globals(), script
