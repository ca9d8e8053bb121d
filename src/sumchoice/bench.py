"""Benchmark the search kernels on four fixed workloads.

Run ``python -m sumchoice.bench`` for a table of times, or add ``--json``
for machine-readable output.  Each workload runs once and its answer is
checked.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time


def _workloads():
    from .choosability import all_proper_colorings, is_choosable, is_list_colorable
    from .families import BrokenWheel, CompleteBipartite, PathOfCycles, Wheel, generate
    from .sumnumber import MemoStore, chi_sc

    g = generate(BrokenWheel(4))
    rng = random.Random(7)
    instances = [[tuple(sorted(rng.sample(range(5), 2))) for _ in range(g.n)]
                 for _ in range(400)]
    colorable = sum(next(all_proper_colorings(g, lists), None) is not None
                    for lists in instances)

    def solver_micro():
        return sum(is_list_colorable(g, lists) is not None for lists in instances)

    def sweep_k23():
        verdict = is_choosable(generate(CompleteBipartite(2, 3)), (2, 2, 2, 2, 2))
        return type(verdict).__name__, getattr(verdict, "assignments_examined", None)

    def chi_w4():
        return chi_sc(generate(Wheel(4)), MemoStore()).chi_sc

    def chi_path_of_cycles():
        return chi_sc(generate(PathOfCycles((4, 5))), MemoStore()).chi_sc

    return [
        ("list-coloring solver x400", solver_micro, colorable),
        ("choosability sweep K23 f=2", sweep_k23, ("Choosable", 1794)),
        ("chi_sc wheel W4", chi_w4, 12),
        ("chi_sc path of cycles 4,5", chi_path_of_cycles, 15),
    ]


def run_bench() -> list[dict]:
    results = []
    for name, fn, expect in _workloads():
        t0 = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - t0
        if value != expect:
            raise AssertionError(f"{name}: got {value}, expected {expect}")
        results.append({"name": name, "seconds": elapsed})
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m sumchoice.bench")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output only")
    args = parser.parse_args(argv)

    results = run_bench()
    if args.json:
        print(json.dumps(results))
        return 0
    for r in results:
        print(f"  {r['name']:<32} {r['seconds'] * 1000:10.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
