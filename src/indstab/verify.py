"""Named verification suites reproducing every desk-scale stability claim.

Every suite_<name> takes (facts, config), the catalog pass's facts and the
run's VerifyConfig, and returns a list of check records.  run_all calls the
selected suites in a fixed order, concatenates their checks, and appends a
final check asserting that the set of discrepancy-noted entries matches the
pinned expectation.  A check is pass/fail except where a documented family
claim is computationally false for some parameters: those entries carry
status "discrepancy-noted" so the harness neither hides the claim nor
asserts a falsehood.

The exhaustive suites share one catalog pass, catalog_facts: one depth-first
walk produces each class once, and the process that produces a class computes
the Facts that the selected suites read of it, up to a top level N set by the
suites and max_n alone.  The caller walks every level, or with jobs > 1 the
levels up to N - 2, and the workers walk levels N - 1 and N below them.
Every fact is read from one mis.subset_alphas table per class (the bytes of
alpha of every induced subgraph), most through its alpha profile p(q), the
least alpha over the q-vertex induced subgraphs; Facts holds only what needs
the table or the graph, and no canonical code.  (k, l)-stability,
p(n - k) >= alpha - l, is read off a profile by _stable and _tight alone, and
the lift check reads each distinct profile once.  Each suite is a reduction
over the facts, and stamps each check with the time since its previous one;
run_all times the catalog pass (catalog_ms).

Reports are deterministic for a fixed (config, tool version): suites run in a
fixed order, every scan is exhaustive, and JSON output omits wall-clock
durations unless explicitly requested, so two runs produce byte-identical
documents regardless of worker count.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import asdict, dataclass
from functools import partial
from typing import NamedTuple

from indstab import families
from indstab.canon import canonical
from indstab.enumeration import enumerate_levels, search_tight_stable
from indstab.erdos_rogers import er_grid
from indstab.graphs import Graph
from indstab.mis import alpha, alpha_profile, saturating_matching, subset_alphas
from indstab.stability import is_stable, is_tight_stable, stability_bound, stable_vertex_count

TOOL_VERSION = "0.1.0"
REPORT_SCHEMA = "indstab-report/1"

# isomorphism class counts on 1..10 vertices, used as catalog sanity pins
CLASS_COUNTS = [1, 2, 4, 11, 34, 156, 1044, 12346, 274668, 12005168]

PASS = "pass"
FAIL = "fail"
NOTED = "discrepancy-noted"

# the one family claim that computation contradicts: the cycle-plus-diameters
# circulant on 2k vertices is claimed tight (2, 0)-stable for every k >= 3,
# but for odd k both differences are odd, the graph is bipartite, and its
# independence number k exceeds the bound k - 1.
EXPECTED_DISCREPANCIES = (
    "even20(3) tight (2,0)",
    "even20(5) tight (2,0)",
)

SUITE_ORDER = (
    "stability_bound",
    "hall",
    "constructions",
    "edge_bounds",
    "uniqueness",
    "erdos_rogers",
)


@dataclass
class CheckResult:
    suite: str
    name: str
    params: dict
    expected: str
    actual: str
    status: str
    duration_ms: int = 0


@dataclass
class VerifyConfig:
    max_n: int = 8
    jobs: int = 1
    allow_long: bool = False
    suites: tuple[str, ...] = SUITE_ORDER

    def __post_init__(self):
        for s in self.suites:
            if s not in SUITE_ORDER:
                raise ValueError(f"unknown suite {s!r}; known: {', '.join(SUITE_ORDER)}")
            if self.suites.count(s) > 1:
                raise ValueError(f"suite {s!r} is named more than once")
        if not 1 <= self.max_n <= 8:
            raise ValueError(f"max_n must be in 1..8, got {self.max_n}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")


@dataclass
class VerificationReport:
    checks: list[CheckResult]
    config: VerifyConfig
    tool_version: str = TOOL_VERSION
    # the top level and the wall time of the shared catalog pass; 0 if none ran
    catalog_n: int = 0
    catalog_ms: int = 0

    @property
    def summary(self) -> dict[str, int]:
        return {s: sum(c.status == s for c in self.checks) for s in (PASS, FAIL, NOTED)}

    @property
    def ok(self) -> bool:
        return self.summary[FAIL] == 0

    def to_json(self, include_timings: bool = False) -> str:
        checks = [asdict(c) for c in self.checks]
        config = asdict(self.config)
        del config["jobs"]  # execution detail; reports are worker-count independent
        doc = {
            "schema": REPORT_SCHEMA,
            "tool_version": self.tool_version,
            "config": config,
            "checks": checks,
            "summary": self.summary,
        }
        if include_timings:
            doc["catalog_ms"] = self.catalog_ms
        else:
            for d in checks:
                del d["duration_ms"]
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = []
        if self.catalog_n:
            lines.append(f"catalog pass (n = 2..{self.catalog_n}): {self.catalog_ms} ms")
        for c in self.checks:
            tag = {PASS: "PASS", FAIL: "FAIL", NOTED: "NOTED"}[c.status]
            params = " ".join(f"{k}={v}" for k, v in c.params.items())
            head = f"[{tag}] {c.suite}: {c.name}"
            if params:
                head += f" ({params})"
            lines.append(f"{head} [{c.duration_ms} ms]")
            if c.status != PASS:
                lines.append(f"    expected: {c.expected}")
                lines.append(f"    actual:   {c.actual}")
        s = self.summary
        lines.append(
            f"{len(self.checks)} checks: {s[PASS]} pass, {s[FAIL]} fail, "
            f"{s[NOTED]} discrepancy-noted"
        )
        return "\n".join(lines) + "\n"


class _Recorder(list):
    """The checks of one suite, each stamped with the time since the suite's
    previous check (the first, since the recorder was made)."""

    def __init__(self, suite: str):
        super().__init__()
        self.suite = suite
        self.t0 = time.perf_counter()

    def check(self, name, params, expected, actual, good) -> CheckResult:
        now = time.perf_counter()
        c = CheckResult(
            self.suite, name, params, expected, actual, PASS if good else FAIL,
            int((now - self.t0) * 1000),
        )
        self.t0 = now
        self.append(c)
        return c


# ---------------------------------------------------------------------------
# the shared catalog pass


class Facts(NamedTuple):
    """What the exhaustive suites read of one class, no canonical code among
    it; None where no selected suite reads the field at its vertex count."""

    alpha: int
    profile: tuple[int, ...] | None  # alpha_profile, q = 0..n
    stable_vertices: int | None
    # (1, 0)-stable: maximum independent sets with and without a saturating matching
    hall: tuple[int, int] | None
    edges: int | None  # tight (1, 0): the edge count


LIFT_MAX_N = 7  # the lift check covers n = 2..7
STABLE_VERTEX_MAX_N = 8  # the stable-vertex-count bound covers n = 2..8


def _stable(p, k: int, l: int) -> bool:
    """(k, l)-stability read off an alpha profile p: p(n - k) >= alpha - l."""
    return p[-1 - k] >= p[-1] - l


def _tight(p, k: int, l: int) -> bool:
    """Tight (k, l)-stability read off an alpha profile: stable, alpha at the bound."""
    return _stable(p, k, l) and p[-1] == stability_bound(len(p) - 1, k, l)


def _lifts(p) -> tuple[int, int]:
    """The tight (k, l) pairs of profile p, and those whose lift is not tight (k + 1, l + 1)."""
    pairs = [(k, l) for k in range(1, len(p) - 1) for l in range(k) if _tight(p, k, l)]
    # the lift adds an isolated vertex: a q-subset drops it or adds it to a (q - 1)-subset
    lifted = [0] + [min(x, y + 1) for x, y in zip(p[1:], p)] + [p[-1] + 1]
    return len(pairs), sum(not _tight(lifted, k + 1, l + 1) for k, l in pairs)


def _class_facts(suites, max_n: int, g: Graph, code) -> Facts | None:
    """The Facts of one class, computed in the process that produced it from
    the class's subset_alphas table; the table is dropped on return, and
    `code` is never called."""
    n = g.n
    if n < 2:
        return None
    wants = set(suites) if n <= max_n else set()
    table = subset_alphas(g.adj, n)
    a = table[-1]
    full = g.vertex_mask
    profile = stable = hall = edges = None
    if wants - {"constructions", "uniqueness"} or ("constructions" in suites and n <= LIFT_MAX_N):
        profile = alpha_profile(table)
    if "constructions" in suites:
        stable = sum(table[full & ~(1 << v)] == a for v in range(n))
    if "hall" in wants and _stable(profile, 1, 0):
        sets = [m for m, x in enumerate(table) if x == a == m.bit_count()]
        missing = sum(saturating_matching(g, y) is None for y in sets)
        hall = (len(sets) - missing, missing)
    if "edge_bounds" in wants and _tight(profile, 1, 0):
        edges = g.edge_count()
    return Facts(a, profile, stable, hall, edges)


def catalog_facts(config: VerifyConfig) -> dict[int, list[Facts]]:
    """n -> the Facts of every class on n vertices, for the selected suites.

    One pass produces each class once.  Equal facts share one record, so
    a level costs little more than a pointer per class.
    """
    if set(config.suites) <= {"uniqueness"}:
        return {}
    top = STABLE_VERTEX_MAX_N if "constructions" in config.suites else config.max_n
    emit = partial(_class_facts, config.suites, config.max_n)
    facts: dict[int, list[Facts]] = {n: [] for n in range(2, top + 1)}
    shared: dict[Facts, Facts] = {}
    for n, f in enumerate_levels(top, emit, jobs=config.jobs):
        facts[n].append(shared.setdefault(f, f))
    return facts


# ---------------------------------------------------------------------------
# suites


def suite_stability_bound(
    facts: dict[int, list[Facts]], config: VerifyConfig
) -> list[CheckResult]:
    """Every (k, l)-stable graph satisfies alpha <= floor((n-k+1)/2) + l,
    checked exhaustively over all isomorphism classes with n <= max_n."""
    rec = _Recorder("stability_bound")
    rec.check("bound holds", {"n": 1}, "vacuous (no valid k)", "vacuous", True)
    for n in range(2, config.max_n + 1):
        level = facts[n]
        size = len(level)
        rec.check(
            "catalog size", {"n": n}, str(CLASS_COUNTS[n - 1]), str(size),
            size == CLASS_COUNTS[n - 1],
        )
        for k in range(1, n):
            for l in range(0, k):
                bound = stability_bound(n, k, l)
                violations = sum(_stable(f.profile, k, l) and f.alpha > bound for f in level)
                rec.check(
                    "bound holds", {"n": n, "k": k, "l": l}, "0 violations",
                    f"{violations} violations over {size} classes", violations == 0,
                )
    return rec


def suite_hall(facts: dict[int, list[Facts]], config: VerifyConfig) -> list[CheckResult]:
    """Every maximum independent set of a (1, 0)-stable graph is saturated by
    a matching into the rest of the graph."""
    rec = _Recorder("hall")
    for n in range(2, config.max_n + 1):
        stable = [f.hall for f in facts[n] if f.hall is not None]
        matchings = sum(h[0] for h in stable)
        missing = sum(h[1] for h in stable)
        rec.check(
            "saturating matching exists", {"n": n},
            "a matching for every maximum independent set",
            f"{len(stable)} stable classes, {matchings} matchings, {missing} missing",
            missing == 0,
        )
    return rec


def suite_constructions(facts: dict[int, list[Facts]], config: VerifyConfig) -> list[CheckResult]:
    """The fixed construction checklist: circulant stability and independence
    numbers, the five tight families, non-existence at six vertices, lifting,
    the stable-vertex-count bound, and the cycle-plus-diameters family pins."""
    rec = _Recorder("constructions")

    # each graph is built once, so that its checks share its one alpha solve
    stable3 = {m: families.stable3_circulant(m) for m in (3, 4, 5)}
    for m, g in stable3.items():
        a = alpha(g)
        rec.check("stable3 circulant alpha", {"m": m}, str(m * m), str(a), a == m * m)
    for m in (3, 4):
        ok = is_stable(stable3[m], 3, 0)
        rec.check(
            "stable3 circulant is (3,0)-stable", {"m": m}, "true", str(ok).lower(), ok,
        )
    g = families.stable4_circulant(3)
    ok = is_stable(g, 4, 0)
    rec.check(
        "stable4 circulant is (4,0)-stable", {"m": 3},
        "true", f"{str(ok).lower()} (alpha={alpha(g)})", ok,
    )

    grids = [
        ("cycle tight (2,0)", families.cycle, range(3, 16, 2), 2, 0),
        ("wheel tight (2,0)", families.wheel, range(4, 15, 2), 2, 0),
        ("kn_tight tight (1,0)", families.kn_tight, range(2, 15), 1, 0),
        ("path tight (2,1)", families.path, range(3, 15), 2, 1),
        ("mn_matching tight (1,0)", families.mn_matching, range(2, 15), 1, 0),
    ]
    for name, fam, ns, k, l in grids:
        bad = [n for n in ns if not is_tight_stable(fam(n), k, l)]
        rec.check(
            name, {"n": f"{ns.start}..{ns.stop - 1}"}, "tight for the whole range",
            "all tight" if not bad else f"failures at n={bad}", not bad,
        )

    found = sum(_tight(f.profile, 3, 0) for f in facts[6])
    rec.check(
        "no 6-vertex tight (3,0)-stable graph", {},
        "empty search", f"{found} classes found", not found,
    )

    profiles = Counter(f.profile for n in range(2, LIFT_MAX_N + 1) for f in facts[n])
    lifts = [(_lifts(p), count) for p, count in profiles.items()]
    lift_checked = sum(checked * count for (checked, _), count in lifts)
    lift_bad = sum(bad * count for (_, bad), count in lifts)
    rec.check(
        "lift of tight (k,l) is tight (k+1,l+1)", {"n": f"2..{LIFT_MAX_N}"}, "0 violations",
        f"{lift_checked} tight cases, {lift_bad} violations", lift_bad == 0,
    )

    holds = [
        f.alpha <= (2 * n - f.stable_vertices) // 2
        for n in range(2, STABLE_VERTEX_MAX_N + 1)
        for f in facts[n]
    ]
    cor_bad = holds.count(False)
    rec.check(
        "stable-vertex-count bound", {"n": f"2..{STABLE_VERTEX_MAX_N}"},
        "alpha <= floor(n - m/2) for every class",
        f"{len(holds)} classes, {cor_bad} violations", cor_bad == 0,
    )
    for m in (2, 4, 6):
        for n in (6, 8):
            w = families.lift(families.kn_tight(m), n - m)
            mm = stable_vertex_count(w)
            a = alpha(w)
            target = (2 * n - mm) // 2
            rec.check(
                "stable-vertex-count bound is attained", {"m": m, "n": n},
                f"m={m} stable vertices and alpha = floor(n - m/2)",
                f"m={mm}, alpha={a}, floor(n - m/2)={target}",
                mm == m and a == target,
            )

    for k in (3, 4, 5, 6):
        g = families.even20_circulant(k)
        tight = is_tight_stable(g, 2, 0)
        actual = "tight (2,0)-stable"
        if not tight:
            actual = (
                f"not tight: alpha={alpha(g)} vs bound "
                f"{stability_bound(2 * k, 2, 0)}, "
                f"{'(2,0)-stable' if is_stable(g, 2, 0) else 'not (2,0)-stable'}"
            )
        check = rec.check(
            f"even20({k}) tight (2,0)", {"k": k},
            "tight (2,0)-stable (claimed for every k >= 3)", actual, tight,
        )
        # the family claim says every k >= 3; computation disagrees for odd k,
        # so the harness notes the discrepancy instead of failing
        check.status = PASS if tight else NOTED
    return rec


def suite_edge_bounds(facts: dict[int, list[Facts]], config: VerifyConfig) -> list[CheckResult]:
    """Edge counts of tight (1, 0)-stable graphs are sandwiched between the
    matching family and the balanced bipartite family, both ends attained."""
    rec = _Recorder("edge_bounds")
    for n in range(2, config.max_n + 1):
        ends = (families.mn_matching(n), families.kn_tight(n))
        lo, hi = (e.edge_count() for e in ends)
        tight = [f for f in facts[n] if f.edges is not None]
        out_of_range = sum(not lo <= f.edges <= hi for f in tight)
        seen_lo = any(f.edges == lo for f in tight)
        seen_hi = any(f.edges == hi for f in tight)
        named = all(is_tight_stable(e, 1, 0) for e in ends)
        rec.check(
            "edge count bounds", {"n": n},
            f"all tight (1,0) classes within [{lo}, {hi}], both ends attained "
            "by the named constructions",
            f"{len(tight)} classes, {out_of_range} out of range, "
            f"min attained={seen_lo}, max attained={seen_hi}",
            out_of_range == 0 and seen_lo and seen_hi and named,
        )
    return rec


def suite_uniqueness(facts: dict[int, list[Facts]], config: VerifyConfig) -> list[CheckResult]:
    """The odd cycle is the unique tight (2, 0)-stable graph at each odd n in
    3..9, and at n = 11 with allow_long; reads no facts."""
    rec = _Recorder("uniqueness")
    for n in range(3, 12 if config.allow_long else 10, 2):
        found = search_tight_stable(n, 2, 0, jobs=config.jobs, allow_long=config.allow_long)
        good = found == [canonical(families.cycle(n))]
        rec.check(
            "odd cycle is the unique tight (2,0) graph", {"n": n}, "exactly the n-cycle",
            f"{len(found)} classes found" + ("" if good else " (not matching the cycle)"),
            good,
        )
    return rec


def suite_erdos_rogers(facts: dict[int, list[Facts]], config: VerifyConfig) -> list[CheckResult]:
    """Computed Erdos-Rogers values equal n - t on every applicable cell."""
    rec = _Recorder("erdos_rogers")
    for n in range(3, config.max_n + 1):
        rows = er_grid(n, (f.profile for f in facts[n]))
        applicable = [r for r in rows if r.predicted is not None]
        bad = [r for r in applicable if not r.match]
        rec.check(
            "exact value matches n - t", {"n": n},
            f"{len(applicable)} applicable cells all equal n - t",
            f"{len(applicable)} applicable, {len(rows) - len(applicable)} "
            f"skipped, {len(bad)} mismatches",
            not bad,
        )
    return rec


def run_all(config: VerifyConfig | None = None) -> VerificationReport:
    """Run the selected suites in fixed order and pin the discrepancy set."""
    config = config or VerifyConfig()
    t0 = time.perf_counter()
    facts = catalog_facts(config)
    catalog_ms = int((time.perf_counter() - t0) * 1000)
    checks: list[CheckResult] = []
    for name in SUITE_ORDER:
        if name in config.suites:
            # looked up at call time, so a rebound suite_<name> is the one run
            checks += globals()[f"suite_{name}"](facts, config)

    if "constructions" in config.suites:
        pin = _Recorder("constructions")
        noted = tuple(c.name for c in checks if c.status == NOTED)
        pin.check(
            "discrepancy pin", {}, f"noted exactly: {', '.join(EXPECTED_DISCREPANCIES)}",
            f"noted: {', '.join(noted) if noted else '(none)'}",
            noted == EXPECTED_DISCREPANCIES,
        )
        checks += pin
    return VerificationReport(
        checks=checks, config=config, catalog_n=max(facts, default=0), catalog_ms=catalog_ms
    )
