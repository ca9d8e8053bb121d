"""The four workloads: inputs made from the seed, the program's set-up, one
round of operations, and the checks of every answer.

A workload object is driven by ``worker.py``:

* ``setup(lib)`` does the program-side set-up that is timed as ``setup_s``;
* ``prepare(lib, k)`` makes round k's inputs from the seed (not timed);
* ``call(lib, op)`` for each input, then ``end_round()``, make up one
  timed round;
* ``check(op, result)`` returns what is wrong with one answer, and
  ``check_round(ops, results)`` what is wrong with the round as a whole.

``lib`` is the imported ``sumchoice`` package; only its public names are
used.  Every check compares with ``oracles``, which never calls the program.
"""

from __future__ import annotations

import random
from pathlib import Path

import oracles


def _rng(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{k}")


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self, lib) -> None:
        pass

    def setup_problems(self) -> list[str]:
        return []

    def prepare(self, lib, k: int) -> list:
        raise NotImplementedError

    def call(self, lib, op):
        raise NotImplementedError

    def end_round(self) -> None:
        pass

    def kind(self, lib, result) -> str:
        """Label for splitting latencies by outcome."""
        return "query"

    def check(self, lib, op, result) -> str | None:
        raise NotImplementedError

    def check_round(self, lib, ops, results) -> list[str]:
        return []


def _check_record(lib, adj, result, expected: int | None) -> str | None:
    if not isinstance(result, lib.SumChoiceRecord):
        return f"no value: {result!r}"
    if expected is not None and result.chi_sc != expected:
        return f"chi_sc {result.chi_sc}, expected {expected}"
    if not oracles.size_function_ok(adj, result.optimal_f, result.chi_sc):
        return f"optimal_f {result.optimal_f} does not sum to chi_sc {result.chi_sc}"
    if result.chi_sc > oracles.greedy_value(adj):
        return f"chi_sc {result.chi_sc} above |V|+|E|"
    return None


class FiveVertex(Workload):
    """chi_sc of every connected graph on five vertices, the paper's table.
    Each graph starts from an empty memo writing a fresh memo file, as
    ``sumchoice chi-sc --cache FILE`` does with a new FILE, so the work for
    one graph does not depend on the order of the round."""

    name = "five-vertex"

    def setup(self, lib) -> None:
        self.graphs = list(lib.enumerate_connected_graphs(5))

    def setup_problems(self) -> list[str]:
        out = []
        if len(self.graphs) != oracles.CONNECTED_GRAPH_COUNTS[5]:
            out.append(f"{len(self.graphs)} connected graphs on five vertices, "
                       f"expected {oracles.CONNECTED_GRAPH_COUNTS[5]}")
        self.cut = {}
        for g in self.graphs:
            if g.n != 5 or not oracles.is_connected(g.adj):
                out.append(f"enumerated graph {g.adj} is not connected on five vertices")
            self.cut[g.adj] = bool(oracles.cut_vertices(g.adj))
        return out

    def prepare(self, lib, k: int) -> list:
        ops = list(self.graphs)
        _rng(self.name, self.seed, k).shuffle(ops)
        self.paths = [self.workdir / f"five-vertex-memo-{k}-{i}.jsonl"
                      for i in range(len(ops))]
        return list(zip(ops, self.paths))

    def call(self, lib, op):
        g, path = op
        return lib.chi_sc(g, lib.MemoStore(str(path)))

    def end_round(self) -> None:
        for path in self.paths:
            path.unlink(missing_ok=True)

    def check(self, lib, op, result) -> str | None:
        g = op[0]
        if self.cut[g.adj]:
            expected = oracles.greedy_value(g.adj)  # a cut vertex: sc-greedy
        elif oracles.edge_count(g.adj) == 10:
            expected = oracles.K5_VALUE
        else:
            expected = None  # checked as a multiset in check_round
        return _check_record(lib, g.adj, result, expected)

    def check_round(self, lib, ops, results) -> list[str]:
        values = sorted(r.chi_sc for (g, _), r in zip(ops, results)
                        if isinstance(r, lib.SumChoiceRecord)
                        and not self.cut[g.adj] and oracles.edge_count(g.adj) != 10)
        if tuple(values) != oracles.FIVE_VERTEX_2CONNECTED:
            return [f"2-connected values {values}, expected "
                    f"{list(oracles.FIVE_VERTEX_2CONNECTED)}"]
        return []


class CycleTrees(Workload):
    """chi_sc of paths and trees of cycles, each from an empty memo, so the
    work for one graph does not depend on the order of the round."""

    name = "cycle-trees"
    SPECS = ("pathcycles:4,4", "pathcycles:4,5", "treecycles:5/1.0.4",
             "pathcycles:4,6", "pathcycles:4,4,4", "treecycles:4/1.0.4/1.2.4")

    def setup(self, lib) -> None:
        self.graphs = [(spec, lib.generate(lib.parse_family(spec))) for spec in self.SPECS]

    def prepare(self, lib, k: int) -> list:
        ops = list(self.graphs)
        _rng(self.name, self.seed, k).shuffle(ops)
        return ops

    def call(self, lib, op):
        return lib.chi_sc(op[1], lib.MemoStore())

    def check(self, lib, op, result) -> str | None:
        spec, g = op
        problem = _check_record(lib, g.adj, result, oracles.greedy_value(g.adj))
        return f"{spec}: {problem}" if problem else None


class TwoChoosable(Workload):
    """is_choosable(G, f = 2 everywhere) on every connected graph of order
    at most 7, in a seed-shuffled order."""

    name = "two-choosable"
    MAX_ORDER = 7

    def setup(self, lib) -> None:
        self.graphs = [g for n in range(1, self.MAX_ORDER + 1)
                       for g in lib.enumerate_connected_graphs(n)]

    def setup_problems(self) -> list[str]:
        out = []
        for n in range(1, self.MAX_ORDER + 1):
            got = sum(1 for g in self.graphs if g.n == n)
            if got != oracles.CONNECTED_GRAPH_COUNTS[n]:
                out.append(f"{got} connected graphs of order {n}, "
                           f"expected {oracles.CONNECTED_GRAPH_COUNTS[n]}")
        self.expected = {}
        for g in self.graphs:
            if not oracles.is_connected(g.adj):
                out.append(f"enumerated graph {g.adj} is not connected")
                continue
            self.expected[g.adj] = oracles.is_two_choosable(g.adj)
        return out

    def prepare(self, lib, k: int) -> list:
        ops = list(self.graphs)
        _rng(self.name, self.seed, k).shuffle(ops)
        return ops

    def call(self, lib, g):
        return lib.is_choosable(g, (2,) * g.n)

    def kind(self, lib, result) -> str:
        if isinstance(result, lib.Choosable):
            return "proof"
        if isinstance(result, lib.NotChoosable):
            return "witness"
        return "unknown"

    def check(self, lib, g, result) -> str | None:
        want = self.expected.get(g.adj)
        if isinstance(result, lib.Choosable):
            return None if want else f"{g.adj}: Choosable, but the theorem says not"
        if isinstance(result, lib.NotChoosable):
            if want:
                return f"{g.adj}: NotChoosable, but the theorem says 2-choosable"
            if not oracles.is_uncolorable_witness(g.adj, (2,) * g.n, result.witness):
                return f"{g.adj}: witness {result.witness} is not an uncolorable 2-assignment"
            return None
        return f"{g.adj}: no verdict: {result!r}"


class WarmCache(Workload):
    """chi_sc of random relabelings of graphs of order 5-10, answered from a
    memo file that set-up writes."""

    name = "warm-cache"
    # (family spec, published-value family, parameter)
    BASE = ([(f"path:{n}", "path", n) for n in range(5, 11)]
            + [(f"cycle:{n}", "cycle", n) for n in range(5, 11)]
            + [(f"bipartite:1,{n}", "star", n) for n in range(4, 8)]
            + [(f"bipartite:2,{n}", "k2n", n) for n in (3, 4)]
            + [("complete:5", "complete", 5)])
    COPIES = 3  # relabelings of each base graph per round

    def setup(self, lib) -> None:
        path = self.workdir / "warm-cache-memo.jsonl"
        path.unlink(missing_ok=True)
        self.base = []
        build = lib.MemoStore(str(path))
        for spec, family, param in self.BASE:
            g = lib.generate(lib.parse_family(spec))
            lib.chi_sc(g, build)
            self.base.append((g, oracles.published_chi_sc(family, param)))
        self.memo = lib.MemoStore(str(path))

    def prepare(self, lib, k: int) -> list:
        rng = _rng(self.name, self.seed, k)
        ops = []
        for g, value in self.base:
            for _ in range(self.COPIES):
                perm = list(range(g.n))
                rng.shuffle(perm)
                rows = oracles.relabel(g.adj, perm)
                ops.append((lib.Graph(g.n, rows), value))
        rng.shuffle(ops)
        return ops

    def call(self, lib, op):
        return lib.chi_sc(op[0], self.memo)

    def check(self, lib, op, result) -> str | None:
        g, value = op
        return _check_record(lib, g.adj, result, value)


WORKLOADS = {cls.name: cls for cls in (FiveVertex, CycleTrees, TwoChoosable, WarmCache)}
