"""Exact tools for vertex-removal stability of graph independence numbers.

A graph is (k, l)-stable when deleting any k vertices lowers its independence
number by at most l.  This package provides the machinery to study that notion
exactly at small scale: an immutable bitmask graph type with graph6 I/O,
an exact maximum-independent-set solver, stability predicates and worst-case
drops, the extremal graph families that realise the known tight cases,
isomorph-free exhaustive enumeration, exact small-n Erdos-Rogers values,
and a verification harness that reruns every desk-scale claim.
"""

from indstab.graphs import (
    MAX_VERTICES,
    Graph,
    build,
    complement,
    disjoint_union,
    neighborhood,
    remove_vertices,
    vset,
    vset_members,
)
from indstab.graph6 import g6_decode, g6_encode
from indstab.canon import CanonicalCode, canonical
from indstab.mis import (
    Matching,
    MisResult,
    alpha,
    max_independent_set,
    saturating_matching,
)
from indstab.stability import (
    alpha_drop,
    is_stable,
    is_tight_stable,
    stability_bound,
    stable_vertex_count,
)
from indstab import families
from indstab.enumeration import (
    count_graphs,
    enumerate_graphs,
    parse_predicate,
    search_tight_stable,
    search_with,
)
from indstab.erdos_rogers import er_f, er_predicted, er_table
from indstab.verify import VerificationReport, VerifyConfig, run_all

__version__ = "0.1.0"
