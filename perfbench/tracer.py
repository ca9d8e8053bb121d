"""Spans around sumchoice's layer entry points, and the per-layer metrics
computed from them.

The tracer replaces entry points by wrappers while it is installed and puts
the originals back when it is removed; nothing in the program changes.  A
function is replaced under every name that refers to it in a loaded
``sumchoice`` module, so ``from .choosability import is_choosable`` in
``sumnumber`` is traced too.  An entry point that no longer exists (after
a refactor, say) is skipped: the metrics that need it are reported as
absent and the run carries on.

Spans are kept in memory and written out when the run ends.  A span has a
name, a start, an end, the span that caused it, the benchmark operation it
belongs to and a small dict of data read at the boundary.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time

from stats import percentile, tail_level

_clock = time.perf_counter


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "data")

    def __init__(self, id_, name, start, parent, op):
        self.id = id_
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.data = None

    def as_dict(self) -> dict:
        out = {"id": self.id, "name": self.name, "start": self.start,
               "end": self.end, "parent": self.parent, "op": self.op}
        if self.data:
            out.update(self.data)
        return out


# Entry point -> the per-layer metrics that cannot be computed without it.
METRICS_NEEDING = {
    "graphs.canonical": ["graphs.canonical.calls", "graphs.canonical.s",
                         "graphs.canonical.setup_calls", "graphs.canonical.setup_s"],
    "graphs.enumerate": ["graphs.enumerate.s"],
    "graphs.blocks": ["graphs.blocks.calls", "graphs.blocks.s"],
    "sumnumber.chi_sc": ["sumnumber.chi_sc.calls"],
    "sumnumber.rho": ["sumnumber.rho.calls", "sumnumber.rho.self_s"],
    "sumnumber.tau": ["sumnumber.tau.calls", "sumnumber.tau.s",
                      "sumnumber.tau.candidates",
                      "sumnumber.tau.candidates_after_settle"],
    "sumnumber.is_choosable": ["sumnumber.tau.candidates",
                               "sumnumber.tau.candidates_after_settle",
                               "sumnumber.verify.calls", "sumnumber.verify.s"],
    "memo.load": ["sumnumber.memo.load_s", "sumnumber.memo.records"],
    "memo.records": ["sumnumber.memo.records"],
    "memo.get": ["sumnumber.memo.gets", "sumnumber.memo.hits",
                 "sumnumber.memo.hit_ratio"],
    "memo.put": ["sumnumber.memo.puts", "sumnumber.memo.put_s"],
    "choosability.is_choosable": [
        "choosability.choosable", "choosability.not_choosable",
        "choosability.unknown", "choosability.choosable_s",
        "choosability.not_choosable_s", "choosability.reduce_s",
        "choosability.witness_check_s",
        "choosability.choosable_ms_p50", "choosability.choosable_ms_tail",
        "choosability.not_choosable_ms_p50", "choosability.not_choosable_ms_tail"],
    "choosability.reduce": ["choosability.reduce_s"],
    "choosability.list_colorable": ["choosability.witness_check_s"],
    "kernels.sweep_setup": ["kernels.sweeps", "kernels.sweep_setup_s",
                            "choosability.heuristic_witnesses",
                            "choosability.heuristic_wasted_nodes"],
    "kernels.sweep_run": ["kernels.nodes", "kernels.assignments",
                          "kernels.sweep_s", "kernels.us_per_node",
                          "kernels.solver_calls", "kernels.cache_hits",
                          "kernels.cache_hit_ratio", "kernels.prune_cuts",
                          "kernels.setup_nodes", "choosability.heuristic_witnesses",
                          "choosability.heuristic_wasted_nodes"],
    "kernels.sweep_args": ["choosability.heuristic_witnesses",
                           "choosability.heuristic_wasted_nodes"],
    # SweepState.counters: 0 nodes, 1 assignments, 2 solver calls, 3 cache hits
    "kernels.counters": ["kernels.solver_calls", "kernels.cache_hits",
                         "kernels.cache_hit_ratio", "kernels.prune_cuts"],
}


class Tracer:
    """Install with ``install()``, remove with ``uninstall()``; the spans
    recorded while installed stay in ``spans``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []
        self._sweeps: dict[int, list] = {}  # id(SweepState) -> [heuristic, nodes]

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, _clock(),
                    parent.id if parent is not None else None,
                    parent.op if parent is not None else len(self.spans))
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = _clock()
        # an exception may have skipped inner closes; unwind to this span
        while self._stack and self._stack.pop() is not span:
            pass

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark itself opens around its own steps."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def parent_name(self) -> str | None:
        return self._stack[-1].name if self._stack else None

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None, consume=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ctx = before(args) if before is not None else None
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
                if consume:
                    result = list(result)
            finally:
                tracer._close(span)
            if after is not None:
                span.data = after(args, result, ctx)
            return iter(result) if consume else result

        return wrapper

    def _replace(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_function(self, module, attr, name, **hooks) -> None:
        """Wrap ``module.attr`` under every name that refers to it in a
        loaded sumchoice module."""
        original = getattr(module, attr, None) if module is not None else None
        if not callable(original):
            self.missing.add(name)
            return
        wrapper = self._wrap(name, original, **hooks)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "sumchoice" or modname.startswith("sumchoice.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, key, wrapper)

    def _patch_method(self, cls, attr, name, **hooks) -> None:
        original = cls.__dict__.get(attr) if cls is not None else None
        if not callable(original):
            self.missing.add(name)
            return
        self._replace(cls, attr, self._wrap(name, original, **hooks))

    def install(self) -> None:
        graphs = _module("sumchoice.graphs")
        sumnumber = _module("sumchoice.sumnumber")
        choosability = _module("sumchoice.choosability")
        kernels = _module("sumchoice._kernels")

        self._patch_function(graphs, "canonical_form_and_permutation", "graphs.canonical")
        self._patch_function(graphs, "blocks", "graphs.blocks")
        # a generator works while it is consumed: consume it inside the span
        self._patch_function(graphs, "enumerate_connected_graphs", "graphs.enumerate",
                             consume=True)
        self._patch_function(sumnumber, "chi_sc", "sumnumber.chi_sc")
        self._patch_function(sumnumber, "rho", "sumnumber.rho")
        self._patch_function(sumnumber, "tau", "sumnumber.tau")

        self._patch_function(choosability, "is_choosable", "choosability.is_choosable",
                             after=_verdict_data)
        self._patch_function(choosability, "reduce_size_function", "choosability.reduce")
        self._patch_function(choosability, "is_list_colorable",
                             "choosability.list_colorable")
        # the name sumnumber calls, with its caller: tau or verification
        if sumnumber is not None and callable(getattr(sumnumber, "is_choosable", None)):
            tracer = self
            self._replace(sumnumber, "is_choosable", self._wrap(
                "sumnumber.is_choosable", sumnumber.is_choosable,
                before=lambda args: tracer.parent_name(),
                after=lambda args, result, caller: {
                    "caller": "tau" if caller == "sumnumber.tau" else "verify",
                    "level": sum(args[1]),
                    "verdict": type(result).__name__}))
        else:
            self.missing.add("sumnumber.is_choosable")

        memo_cls = getattr(sumnumber, "MemoStore", None) if sumnumber is not None else None
        self._patch_method(memo_cls, "__init__", "memo.load", after=self._memo_loaded)
        self._patch_method(memo_cls, "get", "memo.get",
                           after=lambda args, result, ctx: {"hit": result is not None})
        self._patch_method(memo_cls, "put", "memo.put")

        sweep_cls = getattr(kernels, "SweepState", None) if kernels is not None else None
        self._patch_method(sweep_cls, "__init__", "kernels.sweep_setup",
                           after=self._sweep_started)
        self._patch_method(sweep_cls, "run", "kernels.sweep_run",
                           before=self._sweep_counters, after=self._sweep_ran)
        self._status = {
            "witness": getattr(kernels, "SWEEP_WITNESS", None),
            "paused": getattr(kernels, "SWEEP_PAUSED", None),
        }

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        self._stack.clear()

    # -- sweep bookkeeping -------------------------------------------------

    def _memo_loaded(self, args, result, ctx):
        try:
            return {"records": len(args[0])}
        except TypeError:
            self.missing.add("memo.records")
            return None

    def _sweep_started(self, args, result, ctx):
        # SweepState(adj_masks, sizes, u_cap, conn_prune): a pass whose color
        # universe is below sum(sizes) is the small-universe witness hunt
        try:
            heuristic = args[3] < sum(args[2])
        except (IndexError, TypeError):
            self.missing.add("kernels.sweep_args")
            heuristic = None
        self._sweeps[id(args[0])] = [heuristic, 0]
        return {"heuristic": heuristic}

    def _sweep_counters(self, args):
        state = args[0]
        try:
            nodes, assignments = state.nodes, state.assignments_examined
        except AttributeError:
            return None
        try:
            counters = state.counters
            return nodes, assignments, int(counters[2]), int(counters[3])
        except (AttributeError, IndexError, TypeError):
            self.missing.add("kernels.counters")
            return nodes, assignments, None, None

    def _sweep_ran(self, args, status, before):
        state = args[0]
        after = self._sweep_counters(args)
        if before is None or after is None:
            self.missing.add("kernels.sweep_run")
            return None
        data = {"nodes": after[0] - before[0], "assignments": after[1] - before[1],
                "status": status}
        if before[2] is not None and after[2] is not None:
            data["solver_calls"] = after[2] - before[2]
            data["cache_hits"] = after[3] - before[3]
        info = self._sweeps.get(id(state))
        if info is not None:
            info[1] += data["nodes"]
            if status != self._status["paused"]:
                del self._sweeps[id(state)]
                data["heuristic"] = info[0]
                data["sweep_nodes"] = info[1]
                data["witness"] = status == self._status["witness"]
        return data

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _verdict_data(args, result, ctx):
    return {"verdict": type(result).__name__, "nodes": getattr(result, "nodes", 0)}


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(tracer: Tracer, untraced_wall: float, traced_wall: float):
    """(metrics, absent, problems): metric name -> (value, unit); the names
    that could not be measured; and counters that failed to reconcile.

    The metrics cover the traced round, except the ``setup_*`` ones (the
    traced set-up only) and ``graphs.enumerate.s`` and
    ``sumnumber.memo.load_s``/``records`` (set-up and round together).
    """
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)

    # set-up spans descend from the benchmark's "bench.setup" span; every
    # other span belongs to the traced round
    setup_roots = {s.id for s in spans if s.name == "bench.setup"}

    def named(name, phase="round"):
        return [s for s in spans if s.name == name and (
            phase == "all" or (s.op in setup_roots) == (phase == "setup"))]

    def parent_name(s):
        return by_id[s.parent].name if s.parent is not None else None

    def dur(ss):
        return sum(s.end - s.start for s in ss)

    def data(s, key, default=0):
        return s.data.get(key, default) if s.data else default

    m: dict[str, tuple[float, str]] = {}

    canon = named("graphs.canonical")
    m["graphs.canonical.calls"] = (len(canon), "count")
    m["graphs.canonical.s"] = (dur(canon), "s")
    canon_setup = named("graphs.canonical", "setup")
    m["graphs.canonical.setup_calls"] = (len(canon_setup), "count")
    m["graphs.canonical.setup_s"] = (dur(canon_setup), "s")
    m["graphs.enumerate.s"] = (dur(named("graphs.enumerate", "all")), "s")
    blk = named("graphs.blocks")
    m["graphs.blocks.calls"] = (len(blk), "count")
    m["graphs.blocks.s"] = (dur(blk), "s")

    chi = named("sumnumber.chi_sc")
    m["sumnumber.chi_sc.calls"] = (len(chi), "count")
    rho = named("sumnumber.rho")
    m["sumnumber.rho.calls"] = (len(rho), "count")
    m["sumnumber.rho.self_s"] = (
        sum((s.end - s.start) - child_time.get(s.id, 0.0) for s in rho), "s")
    tau = named("sumnumber.tau")
    m["sumnumber.tau.calls"] = (len(tau), "count")
    m["sumnumber.tau.s"] = (dur(tau), "s")
    sn_calls = named("sumnumber.is_choosable")
    from_tau = [s for s in sn_calls if data(s, "caller", "") == "tau"]
    verify = [s for s in sn_calls if data(s, "caller", "") == "verify"]
    m["sumnumber.tau.candidates"] = (len(from_tau), "count")
    after_settle = 0
    settled: set[tuple[int, int]] = set()  # (tau span, size level)
    for s in from_tau:  # spans are in call order
        level = (s.parent, data(s, "level"))
        if level in settled:
            after_settle += 1
        elif data(s, "verdict", "") == "Choosable":
            settled.add(level)
    m["sumnumber.tau.candidates_after_settle"] = (after_settle, "count")
    m["sumnumber.verify.calls"] = (len(verify), "count")
    m["sumnumber.verify.s"] = (dur(verify), "s")

    loads = named("memo.load", "all")
    m["sumnumber.memo.load_s"] = (dur(loads), "s")
    m["sumnumber.memo.records"] = (sum(data(s, "records") for s in loads), "count")
    gets = named("memo.get")
    hits = sum(1 for s in gets if data(s, "hit", False))
    m["sumnumber.memo.gets"] = (len(gets), "count")
    m["sumnumber.memo.hits"] = (hits, "count")
    m["sumnumber.memo.hit_ratio"] = (hits / len(gets) if gets else 0.0, "ratio")
    puts = named("memo.put")
    m["sumnumber.memo.puts"] = (len(puts), "count")
    m["sumnumber.memo.put_s"] = (dur(puts), "s")

    ic = named("choosability.is_choosable")
    top = [s for s in ic if not _has_ancestor(s, "choosability.is_choosable", by_id)]
    by_verdict: dict[str, list[Span]] = {}
    for s in top:
        by_verdict.setdefault(data(s, "verdict", ""), []).append(s)
    yes = by_verdict.get("Choosable", [])
    no = by_verdict.get("NotChoosable", [])
    m["choosability.choosable"] = (len(yes), "count")
    m["choosability.not_choosable"] = (len(no), "count")
    m["choosability.unknown"] = (len(by_verdict.get("UnknownVerdict", [])), "count")
    m["choosability.choosable_s"] = (dur(yes), "s")
    m["choosability.not_choosable_s"] = (dur(no), "s")
    for label, group in (("choosable", yes), ("not_choosable", no)):
        ms = sorted((s.end - s.start) * 1000.0 for s in group)
        m[f"choosability.{label}_ms_p50"] = (percentile(ms, 50), "ms")
        m[f"choosability.{label}_ms_tail"] = (percentile(ms, tail_level(len(ms))), "ms")
    m["choosability.reduce_s"] = (dur(
        s for s in named("choosability.reduce")
        if parent_name(s) == "choosability.is_choosable"), "s")
    m["choosability.witness_check_s"] = (dur(
        s for s in named("choosability.list_colorable")
        if parent_name(s) == "choosability.is_choosable"), "s")

    setups = named("kernels.sweep_setup")
    runs = named("kernels.sweep_run")
    finished = [s for s in runs if s.data and "heuristic" in s.data]
    m["choosability.heuristic_witnesses"] = (
        sum(1 for s in finished if s.data["heuristic"] and s.data["witness"]), "count")
    m["choosability.heuristic_wasted_nodes"] = (
        sum(s.data["sweep_nodes"] for s in finished
            if s.data["heuristic"] and not s.data["witness"]), "count")
    m["kernels.sweeps"] = (len(setups), "count")
    m["kernels.sweep_setup_s"] = (dur(setups), "s")
    nodes = sum(data(s, "nodes") for s in runs)
    sweep_s = dur(runs)
    solver = sum(data(s, "solver_calls") for s in runs)
    cache = sum(data(s, "cache_hits") for s in runs)
    m["kernels.nodes"] = (nodes, "count")
    m["kernels.assignments"] = (sum(data(s, "assignments") for s in runs), "count")
    m["kernels.sweep_s"] = (sweep_s, "s")
    m["kernels.us_per_node"] = (sweep_s / nodes * 1e6 if nodes else 0.0, "us")
    m["kernels.solver_calls"] = (solver, "count")
    m["kernels.cache_hits"] = (cache, "count")
    m["kernels.cache_hit_ratio"] = (cache / (cache + solver) if cache + solver else 0.0,
                                    "ratio")
    m["kernels.prune_cuts"] = (nodes - solver - cache, "count")
    setup_runs = named("kernels.sweep_run", "setup")
    m["kernels.setup_nodes"] = (sum(data(s, "nodes") for s in setup_runs), "count")

    m["trace.spans"] = (len(spans), "count")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")

    absent = sorted({name for point in tracer.missing
                     for name in METRICS_NEEDING.get(point, [])})
    for name in absent:
        m.pop(name, None)

    problems = []
    if "kernels.nodes" in m and "choosability.is_choosable" not in tracer.missing:
        every = named("choosability.is_choosable", "all")
        verdict_nodes = sum(data(s, "nodes") for s in every
                            if not _has_ancestor(s, "choosability.is_choosable", by_id))
        swept = sum(data(s, "nodes") for s in named("kernels.sweep_run", "all"))
        if verdict_nodes != swept:
            problems.append(f"is_choosable verdicts report {verdict_nodes} nodes, "
                            f"the sweeps ran {swept}")
    return m, absent, problems


def _has_ancestor(span: Span, name: str, by_id) -> bool:
    parent = span.parent
    while parent is not None:
        p = by_id[parent]
        if p.name == name:
            return True
        parent = p.parent
    return False
