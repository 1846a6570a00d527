"""The library's entry points leave no cyclic garbage behind.

Self-recursive nested closures (a function whose closure cell refers to the
function) are freed only by the cyclic collector; a long run of small calls
then holds their frames' data until a collection.  Each entry point runs once
to warm caches and imports, then again with the collector disabled, and the
collection afterwards must find nothing.
"""

import gc

import pytest

import indstab as I
from indstab import families
from indstab.enumeration import TightStable

from _oracles import automorphism_generators, canonical_labeling, vertex_orbits

C7 = families.cycle(7)
S3 = families.stable3_circulant(3)

ENTRY_POINTS = {
    "alpha": lambda: I.alpha(S3),
    "max_independent_set": lambda: I.max_independent_set(S3),
    "saturating_matching": lambda: I.saturating_matching(families.kn_tight(6), 0b111),
    "canonical": lambda: I.canonical(S3),
    "canonical_labeling": lambda: canonical_labeling(S3),
    "vertex_orbits": lambda: vertex_orbits(S3),
    "automorphism_generators": lambda: automorphism_generators(S3),
    "is_stable": lambda: I.is_stable(S3, 3, 0),
    "alpha_drop": lambda: I.alpha_drop(C7, 3),
    "is_tight_stable": lambda: I.is_tight_stable(C7, 2, 0),
    "stable_vertex_count": lambda: I.stable_vertex_count(C7),
    "enumerate_graphs": lambda: list(I.enumerate_graphs(5)),
    "count_graphs": lambda: I.count_graphs(5),
    "search_with": lambda: I.search_with(6, TightStable(2, 0)),
    "search_tight_stable": lambda: I.search_tight_stable(6, 2, 0),
    "er_f": lambda: I.er_f(5, 3, 2),
    "er_table": lambda: I.er_table(5),
    "graph6": lambda: I.g6_decode(I.g6_encode(S3)),
    "run_all": lambda: I.run_all(
        I.VerifyConfig(max_n=4, jobs=1, suites=("stability_bound", "hall", "edge_bounds"))
    ),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_leaves_no_cyclic_garbage(name):
    call = ENTRY_POINTS[name]
    call()
    gc.collect()
    gc.disable()
    try:
        call()
    finally:
        found = gc.collect()
        gc.enable()
    assert found == 0
