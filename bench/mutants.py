"""Mutation check of the pruning rules: each mutant must fail its tests.

    python bench/mutants.py

MUTANTS maps a name to (file, old, new, test ids): one edit of a file of
the checkout, whose `old` text occurs there exactly once, and the tests
that must fail once it is made.  For each mutant the script copies src/,
tests/ and pyproject.toml to a temporary directory, applies the edit there
and runs `python -m pytest -x -q` on the named tests, with PYTHONPATH set
to the copy's src/.  It prints one JSON line per mutant: its name, its
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
}
_KILLED, _PASSED = 1, 0  # pytest's exit codes for failed tests and for none


def run(name: str, file: str, old: str, new: str, tests: list[str]) -> dict:
    """The outcome of one mutant, tested in a temporary copy of the checkout."""
    with tempfile.TemporaryDirectory() as tmp:
        for sub in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, sub), os.path.join(tmp, sub),
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp)
        path = os.path.join(tmp, file)
        with open(path) as f:
            text = f.read()
        if text.count(old) != 1:
            raise SystemExit(f"{name}: the text to replace occurs {text.count(old)} times in {file}")
        with open(path, "w") as f:
            f.write(text.replace(old, new))
        t = time.perf_counter()
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=tmp, env=dict(os.environ, PYTHONPATH=os.path.join(tmp, "src")),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode
        seconds = time.perf_counter() - t
    outcome = {_KILLED: "killed", _PASSED: "survived"}.get(code, "error")
    return {"mutant": name, "outcome": outcome, "seconds": round(seconds, 1)}


def main() -> None:
    outcomes = []
    for name, mutant in MUTANTS.items():
        result = run(name, *mutant)
        print(json.dumps(result), flush=True)
        outcomes.append(result["outcome"])
    sys.exit(0 if all(o == "killed" for o in outcomes) else 1)


if __name__ == "__main__":
    main()
