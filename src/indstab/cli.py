"""Command-line interface.

Graph arguments accept a graph6 string or @file with one graph6 line per
graph.  Exit codes: 0 success, 1 verification failure, 2 usage error or
interrupt.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial

from indstab import families
from indstab.enumeration import And, _match, enumerate_levels, parse_predicate
from indstab.erdos_rogers import er_f, er_table
from indstab.graph6 import g6_decode, g6_encode, read_graph6
from indstab.graphs import Graph, vset_members
from indstab.mis import alpha, max_independent_set
from indstab.stability import alpha_drop, is_stable, is_tight_stable
from indstab.verify import SUITE_ORDER, VerifyConfig, run_all


def _graphs_from_arg(arg: str) -> list[Graph]:
    if arg.startswith("@"):
        graphs = read_graph6(arg[1:])
        if not graphs:
            raise ValueError(f"no graphs in {arg[1:]}")
        return graphs
    return [g6_decode(arg)]


def _add_jobs(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--jobs", type=int,
        default=len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1,
        help="worker count (default: the CPUs this process may run on)",
    )


def _one_graph(arg: str) -> Graph:
    graphs = _graphs_from_arg(arg)
    if len(graphs) != 1:
        raise ValueError(f"--graph takes one graph, {arg[1:]} holds {len(graphs)}")
    return graphs[0]


def _cmd_per_graph(args) -> int:
    for g in _graphs_from_arg(args.graph):
        print(str(args.answer(g, args)).lower())  # a bool prints as true or false
    return 0


def _alpha_answer(g: Graph, args) -> str:
    if not args.witness:
        return str(alpha(g))
    r = max_independent_set(g)
    members = ",".join(str(v) for v in vset_members(r.witness))
    return f"{r.alpha} {{{members}}}"


# the commands that answer one line per input graph: (name, help, integer flags, answer)
_PER_GRAPH = (
    ("alpha", "independence number of graph6 input", (), _alpha_answer),
    ("drop", "worst-case alpha drop over k-vertex removals", ("k",),
     lambda g, a: alpha_drop(g, a.k)),
    ("stable", "test (k,l)-stability", ("k", "l"), lambda g, a: is_stable(g, a.k, a.l)),
    ("tight", "test tight (k,l)-stability", ("k", "l"),
     lambda g, a: is_tight_stable(g, a.k, a.l)),
)


def _cmd_construct(args) -> int:
    fn, flags = families.FAMILIES[args.family]
    missing = [f"--{f}" for f in flags if getattr(args, f) is None]
    if missing:
        raise ValueError(f"{args.family} needs {' and '.join(missing)}")
    values = [_one_graph(args.graph) if f == "graph" else getattr(args, f) for f in flags]
    print(g6_encode(fn(*values)))
    return 0


def _cmd_enumerate(args) -> int:
    predicate = None
    if args.filter:
        parts = [parse_predicate(f) for f in args.filter]
        predicate = parts[0] if len(parts) == 1 else And(tuple(parts))
    # enumerate_graphs' stream without the codes, which are never printed
    stream = enumerate_levels(
        args.n, partial(_match, args.n, predicate),
        jobs=args.jobs, allow_long=args.allow_long, predicate=predicate,
    )
    if args.count_only:
        print(sum(1 for _ in stream))
    else:
        for _, adj in stream:
            print(g6_encode(Graph._wrap(args.n, adj)))
    return 0


def _cmd_erdos_rogers(args) -> int:
    if args.table:
        rows = er_table(args.n, jobs=args.jobs)  # validates n before any output
        print("s,t,predicted,computed,match")
        for r in rows:
            pred = "-" if r.predicted is None else str(r.predicted)
            match = "-" if r.match is None else ("yes" if r.match else "no")
            print(f"{r.s},{r.t},{pred},{r.computed},{match}")
        return 0
    if args.s is None or args.t is None:
        raise ValueError("need --s and --t (or --table)")
    print(er_f(args.n, args.s, args.t, jobs=args.jobs))
    return 0


def _cmd_verify(args) -> int:
    config = VerifyConfig(
        max_n=args.max_n,
        jobs=args.jobs,
        allow_long=args.allow_long,
        suites=tuple(args.suite) if args.suite else SUITE_ORDER,
    )
    report = run_all(config)
    as_json = partial(report.to_json, include_timings=args.timings)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(as_json())
    out = as_json() if args.format == "json" else report.to_text()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return 0 if report.ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="indstab",
        description="Vertex-removal stability of graph independence numbers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text, flags, answer in _PER_GRAPH:
        p = sub.add_parser(name, help=text)
        p.add_argument("graph", help="graph6 string or @file")
        for flag in flags:
            p.add_argument(f"--{flag}", type=int, required=True)
        if name == "alpha":
            p.add_argument("--witness", action="store_true", help="also print a witness set")
        p.set_defaults(fn=_cmd_per_graph, answer=answer)

    p = sub.add_parser("construct", help="emit a named family member as graph6")
    p.add_argument("--family", required=True, choices=sorted(families.FAMILIES))
    for flag in ("n", "m", "k", "j"):
        p.add_argument(f"--{flag}", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--diff", type=int, action="append", help="circulant difference")
    p.add_argument("--graph", help="base graph for lift (graph6 or @file)")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("enumerate", help="stream all n-vertex graphs up to isomorphism")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--filter", action="append",
        help="predicate NAME:ARGS, repeatable (conjunction)",
    )
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--allow-long", action="store_true")
    _add_jobs(p)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("erdos-rogers", help="exact Erdos-Rogers values at small n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--table", action="store_true", help="CSV grid over all (s,t)")
    _add_jobs(p)
    p.set_defaults(fn=_cmd_erdos_rogers)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--suite", action="append", choices=SUITE_ORDER)
    p.add_argument("--max-n", type=int, default=8, dest="max_n")
    p.add_argument("--json", help="write a JSON report to this path")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", help="write the report to this path instead of stdout")
    p.add_argument("--timings", action="store_true", help="include durations in JSON")
    p.add_argument("--allow-long", action="store_true")
    _add_jobs(p)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
        status = args.fn(args)
        sys.stdout.flush()  # meet a closed pipe here, not at interpreter exit
        return status
    except BrokenPipeError:
        # the reader stopped early (e.g. `| head`): end quietly, and point
        # stdout at /dev/null so the interpreter's final flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # a running pool was terminated on the way out
        print("error: interrupted", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
