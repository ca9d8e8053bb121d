"""Command line front end.

Exit codes: 0 success / all cases passed; 1 some verification case failed;
2 bad input (unparseable graph, malformed sizes, unknown suite); 3 a budget
ran out and the result is reported as unknown rather than guessed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .choosability import (
    MAX_LIST_SIZE, Budget, Choosable, UnknownVerdict, is_choosable,
)
from .errors import SumChoiceError
from .families import format_family, generate, parse_family
from .graphs import Graph, encode_graph6, parse_graph6
from .sumnumber import (
    ChiUnknown, MemoStore, _encode_bound, chi_sc, greedy_bound,
)
from .suites import SUITE_NAMES, run_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_UNKNOWN = 3


def _add_graph_source(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph6", help="graph6 text of the input graph")
    src.add_argument("--family", help="family descriptor, e.g. wheel:4 or "
                                      "product:path:2,path:3")


def _resolve_graph(args) -> Graph:
    if args.graph6 is not None:
        return parse_graph6(args.graph6)
    return generate(parse_family(args.family))


def _cache_path(args) -> str | None:
    if args.cache:
        return args.cache
    return os.environ.get("SUMCHOICE_CACHE") or None


def cmd_chi_sc(args) -> int:
    g = _resolve_graph(args)
    memo = MemoStore(_cache_path(args))
    budget = Budget.of(seconds=args.budget)
    start = time.monotonic()
    out = chi_sc(g, memo, budget)
    elapsed = time.monotonic() - start
    if isinstance(out, ChiUnknown):
        payload = {"unknown": True, "lower": out.lower, "upper": out.upper,
                   "progress": out.progress, "elapsed": round(elapsed, 3)}
        if args.json:
            print(json.dumps(payload))
        else:
            print(f"unknown: chi_sc in [{out.lower}, {out.upper}] "
                  f"({out.progress})")
        return EXIT_UNKNOWN
    payload = {
        "graph6": encode_graph6(g),
        "n": g.n,
        "m": g.edge_count,
        "chi_sc": out.chi_sc,
        "gb": out.greedy_bound,
        "sc_greedy": out.sc_greedy,
        "optimal_f": list(out.optimal_f),
        "rho": _encode_bound(out.rho),
        "tau": _encode_bound(out.tau),
        "elapsed": round(elapsed, 3),
    }
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"graph {payload['graph6']}  n={g.n} m={g.edge_count}")
        print(f"chi_sc = {out.chi_sc}   greedy bound = {out.greedy_bound}   "
              f"sc-greedy = {'yes' if out.sc_greedy else 'no'}")
        print(f"optimal sizes: {','.join(map(str, out.optimal_f))}")
    return EXIT_OK


def cmd_choosable(args) -> int:
    g = _resolve_graph(args)
    try:
        sizes = tuple(int(x) for x in args.sizes.split(","))
    except ValueError as exc:
        raise SumChoiceError(f"bad --sizes value: {exc}") from exc
    if len(sizes) != g.n:
        raise SumChoiceError(
            f"--sizes has {len(sizes)} entries for a graph of order {g.n}")
    if any(x < 0 for x in sizes):
        raise SumChoiceError(f"--sizes has a negative entry: {args.sizes}")
    if any(x > MAX_LIST_SIZE for x in sizes):
        raise SumChoiceError(
            f"--sizes has an entry above {MAX_LIST_SIZE}: {args.sizes}")
    budget = Budget.of(seconds=args.budget)
    verdict = is_choosable(g, sizes, budget)
    if isinstance(verdict, UnknownVerdict):
        if args.json:
            print(json.dumps({"choosable": None, "progress": verdict.progress}))
        else:
            print(f"unknown ({verdict.progress})")
        return EXIT_UNKNOWN
    if isinstance(verdict, Choosable):
        payload = {"choosable": True,
                   "assignments_examined": verdict.assignments_examined}
        text = (f"choosable (examined {verdict.assignments_examined} "
                f"canonical assignments)")
    else:
        payload = {"choosable": False,
                   "witness": [list(row) for row in verdict.witness]}
        text = "not choosable; witness lists: " + json.dumps(payload["witness"])
    print(json.dumps(payload) if args.json else text)
    return EXIT_OK


def cmd_family(args) -> int:
    spec = parse_family(args.spec)
    g = generate(spec)
    print(encode_graph6(g))
    print(f"{format_family(spec)}: n={g.n} m={g.edge_count} gb={greedy_bound(g)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.suite not in SUITE_NAMES:
        raise SumChoiceError(
            f"unknown suite {args.suite!r}; choose from {', '.join(SUITE_NAMES)}")
    report = run_suite(
        args.suite,
        cache=_cache_path(args),
        budget_seconds=args.budget,
        seed=args.seed,
        extended=args.extended,
    )
    if args.json:
        print(report.to_json_lines())
    else:
        for case in report.cases:
            print(case.line())
        print(report.summary())
    return report.exit_code()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumchoice",
        description="Exact sum list coloring computations for small graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chi-sc", help="compute the sum choice number")
    _add_graph_source(p)
    p.add_argument("--cache", default=None,
                   help="JSON-lines memo cache (default: $SUMCHOICE_CACHE)")
    p.add_argument("--budget", type=float, default=600.0,
                   help="wall-clock budget in seconds")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_chi_sc)

    p = sub.add_parser("choosable", help="decide list-size choosability")
    _add_graph_source(p)
    p.add_argument("--sizes", required=True,
                   help="comma separated list sizes in vertex order")
    p.add_argument("--budget", type=float, default=600.0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_choosable)

    p = sub.add_parser("family", help="print graph6 and summary for a family")
    p.add_argument("spec")
    p.set_defaults(fn=cmd_family)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", help=", ".join(SUITE_NAMES))
    p.add_argument("--cache", default=None)
    p.add_argument("--budget", type=float, default=600.0,
                   help="per-case budget in seconds")
    p.add_argument("--seed", type=int, default=1729)
    p.add_argument("--extended", action="store_true",
                   help="include the slower non-blocking checks")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)
    return parser


def _check_limits(args) -> None:
    if not getattr(args, "budget", 0.0) >= 0:  # also rejects NaN
        raise SumChoiceError(f"--budget must be a non-negative number of seconds, "
                             f"got {args.budget}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_limits(args)
        return args.fn(args)
    except SumChoiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
