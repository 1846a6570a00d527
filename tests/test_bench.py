import argparse
import json
import os
import re
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


def test_catalog_bench_two_pairs(monkeypatch, tmp_path):
    # bench/catalog.py's own command line and gates, with this checkout as
    # both sides, over one small case
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    import catalog

    out = tmp_path / "BENCH_catalog_levels.json"
    monkeypatch.setattr(catalog, "CASES", [("count", 5)])
    monkeypatch.setattr(sys, "argv", ["catalog.py", SRC, "--pairs", "2", "--out", str(out)])
    catalog.main()
    doc = json.loads(out.read_text())
    assert list(doc) == ["label", "host", "command", "cases"]
    assert doc["label"] == "catalog_levels"  # the --out name
    assert doc["command"] == "python bench/catalog.py PARENT_SRC --pairs 2"
    entry = doc["cases"]["count 5"]
    assert set(entry) == {"parent", "change", "change_faster_pairs"}
    assert re.fullmatch(r"[0-2] of 2", entry["change_faster_pairs"])
    for side in ("parent", "change"):
        assert set(entry[side]) == {"seconds", "rss_mib", "result", "counters"}
        assert set(entry[side]["seconds"]) == {"median", "q1", "q3", "runs"}
        assert len(entry[side]["seconds"]["runs"]) == len(entry[side]["rss_mib"]) == 2
        assert entry[side]["result"] == {"classes": 34}
        assert set(entry[side]["counters"]) == {
            "expand_roots", "root_refinements", "refine_calls", "searches", "least_walks", "leaves",
        }


def test_scans_bench_two_pairs(monkeypatch, tmp_path):
    # bench/scans.py's own command line and gates, with this checkout as
    # both sides, over one small case
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    import scans

    out = tmp_path / "BENCH_generator_scans.json"
    monkeypatch.setattr(scans, "CASES", [("is_stable", "stable3(3)", 3, 0)])
    monkeypatch.setattr(sys, "argv", ["scans.py", SRC, "--pairs", "2", "--out", str(out)])
    scans.main()
    doc = json.loads(out.read_text())
    assert list(doc) == ["label", "host", "command", "cases"]
    assert doc["label"] == "generator_scans"  # the --out name
    assert doc["command"] == "python bench/scans.py PARENT_SRC --pairs 2"
    entry = doc["cases"]["is_stable stable3(3) 3 0"]
    assert set(entry) == {"parent", "change", "change_faster_pairs"}
    assert re.fullmatch(r"[0-2] of 2", entry["change_faster_pairs"])
    for side in ("parent", "change"):
        assert set(entry[side]) == {"us_per_call", "result", "counters"}
        assert len(entry[side]["us_per_call"]["runs"]) == 2
        assert entry[side]["result"] is True
        assert entry[side]["counters"] == {"solver_calls": 6, "group_searches": 1}


def test_dfs_bench_two_pairs(monkeypatch, tmp_path):
    # bench/dfs.py's own command line, with this checkout as both sides, over
    # one small serial search and no long case
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    import dfs

    out = tmp_path / "BENCH_dfs.json"
    monkeypatch.setattr(dfs, "CASES", [("search", 6, 1, 2, 0)])
    argv = ["dfs.py", SRC, "--pairs", "2", "--long-pairs", "0", "--out", str(out)]
    monkeypatch.setattr(sys, "argv", argv)
    dfs.main()
    doc = json.loads(out.read_text())
    assert list(doc) == ["label", "host", "command", "cases"]
    assert doc["label"] == "dfs"  # the --out name
    assert doc["command"] == "python bench/dfs.py PARENT_SRC --pairs 2 --long-pairs 0"
    assert list(doc["cases"]) == ["search 6 1 2 0"]
    entry = doc["cases"]["search 6 1 2 0"]
    assert set(entry) == {"parent", "change", "change_faster_pairs"}
    assert re.fullmatch(r"[0-2] of 2", entry["change_faster_pairs"])
    assert entry["parent"]["result"] == entry["change"]["result"]
    for side in ("parent", "change"):
        assert set(entry[side]) == {
            "seconds", "cpu_self_s", "rss_self_mib", "rss_children_mib", "result", "counters",
        }
        assert len(entry[side]["seconds"]["runs"]) == 2
        assert entry[side]["result"]["classes"] == 15
        assert entry[side]["counters"] == {
            "_expand": 21, "_automorphisms": 32, "_least": 12, "_search": 3,
        }


def test_stable_bench_two_pairs(monkeypatch, tmp_path):
    # bench/stable.py's own command line, with this checkout as both sides,
    # over one small case; its timing gate is tried on its own below
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    import stable

    out = tmp_path / "stable.json"
    monkeypatch.setattr(stable, "CASES", [(6, 2, 1)])
    monkeypatch.setattr(stable, "_check", lambda case, entry, doc: None)
    monkeypatch.setattr(sys, "argv", ["stable.py", SRC, "--pairs", "2", "--out", str(out)])
    stable.main()
    doc = json.loads(out.read_text())
    assert list(doc) == ["label", "host", "command", "cases"]
    assert doc["label"] == "stable"  # the --out name
    assert doc["command"] == "python bench/stable.py PARENT_SRC --pairs 2"
    entry = doc["cases"]["6 2 1"]
    assert set(entry) == {"parent", "change", "change_faster_pairs"}
    for side in ("parent", "change"):
        assert set(entry[side]) == {"seconds", "result", "counters"}
        assert len(entry[side]["seconds"]["runs"]) == 2
        assert entry[side]["result"]["classes"] == 107
        assert set(entry[side]["counters"]) == {"_expand", "_worst_drop"}


def test_stable_bench_stops_on_a_slower_change(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    import stable

    def entry(parent_q3, change_median):
        return {"parent": {"seconds": {"q3": parent_q3}},
                "change": {"seconds": {"median": change_median}}}

    stable._check((8, 2, 1), entry(2.0, 2.0), {})
    with pytest.raises(SystemExit, match=r"^\(8, 2, 1\): change median 2.1 s is above"):
        stable._check((8, 2, 1), entry(2.0, 2.1), {})
