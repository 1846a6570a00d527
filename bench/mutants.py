"""Mutation check of the pruning rules: each mutant must fail its tests.

    python bench/mutants.py

MUTANTS maps a name to (file, old, new, test ids): one edit of a file of
the checkout, whose `old` text occurs there exactly once, and the tests
that must fail once it is made.  The script copies src/, tests/,
perfbench/ and pyproject.toml to a temporary directory, makes the edit
there and runs `python -m pytest -x -q` on the named tests, with PYTHONPATH
set to the copy's src/.  A control run first runs every named test on an
unmutated copy; if it fails, the script prints one line with outcome
"error" and exits 1.  Then it prints one JSON line per mutant: its name, its
outcome ("killed" when a test fails, "survived" when they all pass,
"error" when pytest could not run them) and the seconds the tests took.
It exits 1 unless every mutant is killed.  It writes nothing in the
checkout.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CANON = "src/indstab/canon.py"
STABILITY = "src/indstab/stability.py"
ENUMERATION = "src/indstab/enumeration.py"
MIS = "src/indstab/mis.py"
MUTANTS = {
    # a child of a _leaves node is pruned by generators that move its new vertex
    "leaves_unfiltered_stab": (
        CANON,
        "        below = [s for s in stab if s[v] == v]\n",
        "        below = stab\n",
        ["tests/test_canon.py::test_least_leaf_prune_keeps_the_unpruned_leaf"],
    ),
    # the group search walks nodes whose cell sizes leave the first path's
    "leaves_no_size_skip": (
        CANON,
        "    if sizes and [len(c) for c in cells] != sizes[depth]:\n        return\n",
        "",
        ["tests/test_enumeration.py::test_canonical_search_work_bounded"],
    ),
    # the group search skips only the candidates it tried, not their orbits
    "automorphisms_known_without_orbit": (
        CANON,
        "            known = _orbit([*known, w], gens)\n",
        "            known.add(w)\n",
        ["tests/test_enumeration.py::test_canonical_search_work_bounded"],
    ),
    # the first subtree's orbits are taken under the whole group, not u's stabilizer
    "orbit_under_whole_group": (
        STABILITY,
        "self.stab if fixed else self.gens))\n",
        "self.gens))\n",
        ["tests/test_stability.py::test_orbit_scans_match_plain_scan"],
    ),
    # the orbit ban reaches below the first root subtree
    "orbit_ban_at_every_depth": (
        STABILITY,
        "        by_orbit = self.by_orbit and (not depth or depth == 1 and not banned)\n",
        "        by_orbit = self.by_orbit\n",
        ["tests/test_stability.py::test_orbit_scans_match_plain_scan"],
    ),
    # the stabilizer holds the root generators, those that move u
    "stab_holds_every_generator": (
        STABILITY,
        "            self.stab = [s for s in self.gens if s[u] == u]\n",
        "            self.stab = list(self.gens)\n",
        ["tests/test_stability.py::test_orbit_scans_match_plain_scan"],
    ),
    # a subtree that ends below the cut-off bans its vertex alone
    "no_orbit_ban": (
        STABILITY,
        "                bit = self.orbit(bit, removed)\n",
        "                pass\n",
        ["tests/test_stability.py::test_scan_solver_calls_pinned"],
    ),
    # the witnesses pooled before the group search gain no images
    "pool_without_images": (
        STABILITY,
        "            self.pool += self.images(self.pool)\n",
        "",
        ["tests/test_stability.py::test_scan_solver_calls_pinned"],
    ),
    # a witness the solver returns joins the pool without its images
    "witness_without_images": (
        STABILITY,
        "            if self.moves:\n                self.pool += self.images([w])\n",
        "",
        ["tests/test_stability.py::test_scan_solver_calls_pinned"],
    ),
    # a prefix is extended by every free vertex, not only the witness's
    "no_witness_prefix_rule": (
        STABILITY,
        "        cand = w & free\n",
        "        cand = free\n",
        ["tests/test_stability.py::test_scan_solver_calls_pinned"],
    ),
    # k deletions are taken to reach alpha, emptying a graph with vertices left
    "reach_takes_alpha": (
        STABILITY,
        "    return min(k, a - (k < n))\n",
        "    return min(k, a)\n",
        ["tests/test_stability.py::test_drop_without_scan_when_alpha_is_one"],
    ),
    # a new vertex of least degree is accepted though an old one ties it
    "degree_only_acceptance_on_ties": (
        ENUMERATION,
        "        if k < d or k == d and t & low == low:\n",
        "        if k <= d:\n",
        ["tests/test_enumeration.py::test_counts_match_published_census"],
    ),
    # a child whose new vertex lies outside the deletion cell is searched on
    "no_deletion_cell_pretest": (
        ENUMERATION,
        "        if n not in cell:\n            continue\n",
        "",
        ["tests/test_enumeration.py::test_counts_match_published_census"],
    ),
    # attachment sets are deduplicated by one generator step, not by orbits;
    # the rest of its test file runs for minutes under it, this test for seconds
    "attachments_without_orbit_closure": (
        ENUMERATION,
        "        for cur in orbit:\n",
        "        for cur in [t]:\n",
        ["tests/test_enumeration.py::test_attachments_match_oracle"],
    ),
    # a child's scan starts without its earlier siblings' witnesses
    "no_sibling_witnesses": (
        ENUMERATION,
        "            shared += [w for w in pool[start:] if not w >> n & 1]\n",
        "",
        ["tests/test_enumeration.py::test_tight_search_scan_solver_calls_pinned"],
    ),
    # the window's alpha floor ignores the removal floor F
    "window_lo_without_floor": (
        ENUMERATION,
        "        return max(L - (n - m), F - max(0, n - k - m)), H,",
        "        return L - (n - m), H,",
        ["tests/test_enumeration.py::test_tight_window_floor_is_its_lo"],
    ),
    # the removal floor is carried one level too far down
    "window_floor_one_level_low": (
        ENUMERATION,
        "F - max(0, n - k - m)), H,",
        "F - max(0, n - k - m - 1)), H,",
        ["tests/test_enumeration.py::test_window_prune_is_exact"],
    ),
    # a cover of exactly room + 1 cliques passes without its forced vertices
    "cover_without_propagation": (
        MIS,
        "_cover_exceeds(adj, sub & ~(forced | near), room - forced.bit_count())",
        "True",
        ["tests/test_mis.py::test_solver_nodes_pinned"],
    ),
    # the forced vertices' remainder is allowed one vertex too few
    "cover_forced_room_plus_one": (
        MIS,
        "room - forced.bit_count())",
        "room - forced.bit_count() + 1)",
        ["tests/test_mis.py::test_cover_bound_is_sound",
         "tests/test_mis.py::test_solver_matches_plain_branch_and_bound"],
    ),
    # the maximum search starts with vertex 0 chosen, so every set it finds
    # past the greedy one holds vertex 0
    "alpha_set_chosen_one": (
        MIS,
        "_grow(adj, mask, 0, 0, best, best_set, mask.bit_count())",
        "_grow(adj, mask, 1, 0, best, best_set, mask.bit_count())",
        ["tests/test_mis.py::test_alpha_set_witness_is_independent_and_maximum"],
    ),
}
_KILLED, _PASSED = 1, 0  # pytest's exit codes for failed tests and for none


def _pytest(tests: list[str], edit: tuple[str, str, str] | None = None) -> tuple[int, float]:
    """pytest's exit code and seconds on `tests` in a temporary copy of the
    checkout, with the edit (file, old, new) made there if one is given."""
    with tempfile.TemporaryDirectory() as tmp:
        for sub in ("src", "tests", "perfbench"):  # tests read perfbench's query graphs
            shutil.copytree(os.path.join(ROOT, sub), os.path.join(tmp, sub),
                            ignore=shutil.ignore_patterns("__pycache__", "results"))
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp)
        if edit:
            file, old, new = edit
            path = os.path.join(tmp, file)
            with open(path) as f:
                text = f.read()
            if text.count(old) != 1:
                raise SystemExit(f"the text to replace occurs {text.count(old)} times in {file}")
            with open(path, "w") as f:
                f.write(text.replace(old, new))
        t = time.perf_counter()
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=tmp, env=dict(os.environ, PYTHONPATH=os.path.join(tmp, "src")),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode
        return code, round(time.perf_counter() - t, 1)


def run(name: str, file: str, old: str, new: str, tests: list[str]) -> dict:
    """The outcome of one mutant, tested in a temporary copy of the checkout."""
    code, seconds = _pytest(tests, (file, old, new))
    outcome = {_KILLED: "killed", _PASSED: "survived"}.get(code, "error")
    return {"mutant": name, "outcome": outcome, "seconds": seconds}


def main() -> None:
    # the control run: a test that fails unmutated would "kill" its mutants
    code, seconds = _pytest(sorted({t for *_, tests in MUTANTS.values() for t in tests}))
    if code != _PASSED:
        print(json.dumps({"mutant": None, "outcome": "error", "seconds": seconds}))
        sys.exit(1)
    outcomes = []
    for name, mutant in MUTANTS.items():
        result = run(name, *mutant)
        print(json.dumps(result), flush=True)
        outcomes.append(result["outcome"])
    sys.exit(0 if all(o == "killed" for o in outcomes) else 1)


if __name__ == "__main__":
    main()
