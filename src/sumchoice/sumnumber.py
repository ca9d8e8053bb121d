"""Sum choice numbers: exact computation, classification and closed forms.

The sum choice number of a graph is the minimum total list size over all
choosable size functions.  It never exceeds the greedy bound |V| + |E|, and
a graph attaining the bound is called sc-greedy.

The computation uses three exact identities:

* over the blocks B_1..B_k of every component (an isolated vertex is a
  block of its own), chi_sc = |V| + sum(chi_sc(B_j) - |B_j|); for a
  connected graph this is sum(chi_sc(B_j)) - k + 1, and components add;
* for any graph, chi_sc = min(rho, tau) where
  rho = min over vertices of chi_sc(G - v) + deg(v) + 1 and
  tau = minimum size of a choosable "non-simple" size function
  (2 <= f(v) <= deg(v) for every v; infinity when none exists).

Since rho always yields a choice function of its own size, tau only needs
to be searched strictly below rho.  Both rho and tau use the automorphisms
of G that the canonical labeling for G's memo key finds on its way, so G is
labeled once per chi_sc call.  rho recurses into chi_sc(G - v) only for the
lowest vertex v of each orbit: an automorphism that maps v to v' maps
G - v onto G - v' and keeps the degree, so every vertex of an orbit gives
the same chi_sc(G - v) + deg(v) + 1, and ties go to the lowest vertex.
Within one size, tau skips every candidate f that an automorphism gamma
maps onto a lexicographically smaller one, f o gamma: the candidates of a
size come in lexicographic order, so f o gamma was already refuted, and f
and f o gamma have the same verdict.  Recursion over vertex-deleted
subgraphs is memoized by canonical key, so isomorphic subproblems are
solved once.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from typing import Iterator, Sequence, Union

from . import families as fam
from .choosability import (
    Budget, Choosable, SizeFunction, UnknownVerdict, is_choosable,
)
from .errors import SearchBudgetExceeded, SumChoiceError
from .graphs import (
    CANONICAL_MAX_ORDER, CanonicalKey, Graph, blocks, canonical_form,
    canonical_labeling, enumerate_connected_graphs,
    induced_subgraph, orbits, parse_graph6,
)

INFINITY = math.inf


def greedy_bound(g: Graph) -> int:
    """|V| + |E|: an upper bound attained by greedy size functions."""
    return g.n + g.edge_count


def greedy_choice_function(g: Graph, ordering: Sequence[int] | None = None) -> SizeFunction:
    """f(v_i) = 1 + number of earlier neighbors, which is choosable for any
    vertex ordering (color greedily along the ordering) and has total size
    equal to the greedy bound."""
    ordering = tuple(ordering) if ordering is not None else tuple(range(g.n))
    if sorted(ordering) != list(range(g.n)):
        raise ValueError("ordering is not a permutation of the vertex set")
    f = [0] * g.n
    seen = 0
    for v in ordering:
        f[v] = 1 + (g.adj[v] & seen).bit_count()
        seen |= 1 << v
    return tuple(f)


# ---------------------------------------------------------------------------
# Records and the memo store
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SumChoiceRecord:
    chi_sc: int
    greedy_bound: int
    optimal_f: SizeFunction
    rho: int | float | None  # None: not computed on this path
    tau: int | float | None  # None: capped search found nothing at <= cap
    method: str = ""

    @property
    def sc_greedy(self) -> bool:
        return self.chi_sc == self.greedy_bound

    def relabeled(self, perm: Sequence[int]) -> "SumChoiceRecord":
        """Map optimal_f through perm (old vertex -> new position)."""
        f = [0] * len(self.optimal_f)
        for v, p in enumerate(perm):
            f[p] = self.optimal_f[v]
        return replace(self, optimal_f=tuple(f))


@dataclass(frozen=True)
class ChiUnknown:
    """Budget ran out: chi_sc lies in [lower, upper], nothing more is claimed."""

    lower: int
    upper: int
    progress: str = ""


ChiOutcome = Union[SumChoiceRecord, ChiUnknown]


def _encode_bound(x: int | float | None):
    if x is None:
        return None
    if x == INFINITY:
        return "inf"
    return int(x)


def _decode_bound(x):
    if x is None:
        return None
    if x == "inf":
        return INFINITY
    return int(x)


# the memo record format ``MemoStore.put`` writes; a record without the field
# predates it and has the same layout
_MEMO_FORMAT = 1


class MemoStore:
    """Canonical-key -> record map with optional JSON-lines persistence.

    Records are final: writing a key twice with different values raises
    SumChoiceError.  Stored size functions use the canonical labeling;
    callers map them through the canonical permutation of their own graph.

    A final line with no trailing newline that does not parse is what a
    crash during an append leaves behind; it is ignored on load and cut off
    before the next append.  Any other malformed line, a record of another
    format than ``_MEMO_FORMAT`` (a missing field reads as it), a line that
    conflicts with an earlier one for its key (as ``put`` defines it; the
    earlier one is kept otherwise) and a file that cannot be read or
    appended to raise SumChoiceError.

    Records read from the file are not trusted: ``check_first_hit`` checks
    each on its first hit, and their keys stay in ``_unchecked`` until a
    check passes.
    """

    def __init__(self, path: str | None = None):
        self.path = path
        self._data: dict[str, SumChoiceRecord] = {}
        self._torn_at: int | None = None  # byte offset of a torn final line
        self._unchecked: set[CanonicalKey] = set()
        if path:
            try:
                with open(path, "rb") as fh:
                    text = fh.read()
            except FileNotFoundError:
                return
            except OSError as exc:
                raise SumChoiceError(f"cannot read memo file {path}: {exc.strerror}") from exc
            lines = text.split(b"\n")
            for number, line in enumerate(lines, 1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except ValueError as exc:
                    if number == len(lines):
                        self._torn_at = len(text) - len(line)
                        continue
                    raise SumChoiceError(f"{path}:{number}: malformed memo line") from exc
                if isinstance(obj, dict) and obj.get("format", _MEMO_FORMAT) != _MEMO_FORMAT:
                    raise SumChoiceError(
                        f"{path}:{number}: memo format {obj['format']!r}, "
                        f"this version reads {_MEMO_FORMAT}")
                try:
                    key = obj["canonical_graph6"]
                    rec = SumChoiceRecord(
                        chi_sc=obj["chi_sc"],
                        greedy_bound=obj["gb"],
                        optimal_f=tuple(obj["optimal_f"]),
                        rho=_decode_bound(obj["rho"]),
                        tau=_decode_bound(obj["tau"]),
                        method="cache",
                    )
                    old = self._data.setdefault(key, rec)
                except (KeyError, TypeError, ValueError) as exc:
                    raise SumChoiceError(f"{path}:{number}: malformed memo record") from exc
                if (old.chi_sc, old.greedy_bound) != (rec.chi_sc, rec.greedy_bound):
                    raise SumChoiceError(
                        f"{path}:{number}: memo record for {key} conflicts with an "
                        f"earlier line: {(rec.chi_sc, rec.greedy_bound)} vs "
                        f"{(old.chi_sc, old.greedy_bound)}")
            self._unchecked = set(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: CanonicalKey) -> SumChoiceRecord | None:
        return self._data.get(key)

    def check_first_hit(self, key: CanonicalKey, record: SumChoiceRecord,
                        budget: Budget | None) -> ChiUnknown | None:
        """Check ``record``, read from the file under ``key``, the first time
        it is hit (see ``_check_memo_record``).  None when it holds or was
        checked before, ChiUnknown when the budget ran out first (the record
        stays unchecked); a wrong record raises SumChoiceError."""
        if key not in self._unchecked:
            return None
        unknown = _check_memo_record(key, record, self, budget)
        if unknown is None:
            self._unchecked.discard(key)
        return unknown

    def put(self, key: CanonicalKey, record: SumChoiceRecord) -> None:
        old = self._data.get(key)
        if old is not None:
            if (old.chi_sc, old.greedy_bound) != (record.chi_sc, record.greedy_bound):
                raise SumChoiceError(
                    f"conflicting records for {key}: "
                    f"{(old.chi_sc, old.greedy_bound)} vs "
                    f"{(record.chi_sc, record.greedy_bound)}")
            return
        self._data[key] = record
        if not self.path:
            return
        # json.dumps escapes every non-ASCII character, so the line is ASCII.
        line = (json.dumps({
            "format": _MEMO_FORMAT,
            "canonical_graph6": key,
            "chi_sc": record.chi_sc,
            "gb": record.greedy_bound,
            "optimal_f": list(record.optimal_f),
            "rho": _encode_bound(record.rho),
            "tau": _encode_bound(record.tau),
        }) + "\n").encode("ascii")
        try:
            if self._torn_at is not None:
                os.truncate(self.path, self._torn_at)
                self._torn_at = None
            fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
            try:
                while line:
                    line = line[os.write(fd, line):]
            finally:
                os.close(fd)
        except OSError as exc:
            raise SumChoiceError(f"cannot write memo file {self.path}: {exc.strerror}") from exc

    def known_not_sc_greedy(self) -> list[tuple[str, int]]:
        """(key, order) pairs of stored graphs with chi_sc < greedy bound."""
        return [(key, len(rec.optimal_f)) for key, rec in self._data.items()
                if not rec.sc_greedy]


# ---------------------------------------------------------------------------
# Size-function generators
# ---------------------------------------------------------------------------

def bounded_sum_vectors(lows: Sequence[int], highs: Sequence[int],
                        total: int) -> Iterator[tuple[int, ...]]:
    """All vectors with lows <= v <= highs summing to total, lexicographic."""
    n = len(lows)
    suffix_lo = [0] * (n + 1)
    suffix_hi = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_lo[i] = suffix_lo[i + 1] + lows[i]
        suffix_hi[i] = suffix_hi[i + 1] + highs[i]
    vec = [0] * n

    def rec(i: int, remaining: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            if remaining == 0:
                yield tuple(vec)
            return
        lo = max(lows[i], remaining - suffix_hi[i + 1])
        hi = min(highs[i], remaining - suffix_lo[i + 1])
        for x in range(lo, hi + 1):
            vec[i] = x
            yield from rec(i + 1, remaining - x)

    return rec(0, total)


# ---------------------------------------------------------------------------
# tau and rho
# ---------------------------------------------------------------------------

@dataclass
class BoundResult:
    """What ``rho`` or ``tau`` found: the bound and a size function of that
    size. With ``unknown`` the bound is undecided but at least
    ``lower_bound``; ``tau`` also sets it when it decides: every non-simple
    size function below it is not choosable."""

    value: int | float  # INFINITY: no vertices (rho), none at <= cap (tau)
    choice_function: SizeFunction | None
    unknown: bool = False
    lower_bound: int = 0


def tau(g: Graph, cap: int | float, budget: Budget | None = None,
        generators: list[list[int]] | None = None) -> BoundResult:
    """Minimum size of a choosable size function with 2 <= f(v) <= deg(v)
    for every vertex, searched in nondecreasing total size up to ``cap``
    (lexicographic within one size).  INFINITY if none exists at <= cap or
    some vertex has degree below 2.

    The candidates of one size are taken one at a time, in order, and the
    first Choosable or Unknown verdict settles the size: no later candidate
    is checked.  A candidate f is skipped, not checked, when f o gamma <lex f
    for one of the automorphisms gamma of ``generators``, where
    (f o gamma)(v) = f(gamma(v)).  That is exact, and it rests on the
    lexicographic order within a size: gamma preserves degrees, so f o gamma
    lies in the same box at the same size and came earlier, hence was
    refuted (or skipped, by the same argument); and relabeling an
    uncolorable (f o gamma)-assignment by gamma gives an uncolorable
    f-assignment.  ``chi_sc`` passes the automorphisms that its canonical
    labeling of g found, so tau labels nothing; without them tau labels g
    itself.

    The budget is checked before every candidate, checked or skipped; once
    it runs out the result is unknown with every smaller size refuted.
    """
    degs = [g.degree(v) for v in range(g.n)]
    if g.n == 0 or min(degs) < 2:
        return BoundResult(INFINITY, None)
    if generators is None:
        generators = canonical_labeling(g)[2]
    lows = [2] * g.n
    hi = int(min(cap, sum(degs)))
    for total in range(2 * g.n, hi + 1):
        for f in bounded_sum_vectors(lows, degs, total):
            if budget is not None:
                try:
                    budget.check("size-function search")
                except SearchBudgetExceeded:
                    return BoundResult(INFINITY, None, unknown=True, lower_bound=total)
            if any(tuple([f[w] for w in gamma]) < f for gamma in generators):
                continue
            verdict = is_choosable(g, f, budget)
            if isinstance(verdict, UnknownVerdict):
                return BoundResult(INFINITY, None, unknown=True, lower_bound=total)
            if isinstance(verdict, Choosable):
                return BoundResult(total, f, lower_bound=total)
    return BoundResult(INFINITY, None, lower_bound=hi + 1)


def rho(g: Graph, memo: "MemoStore | None" = None,
        budget: Budget | None = None,
        generators: list[list[int]] | None = None) -> BoundResult:
    """min over vertices of chi_sc(G - v) + deg(v) + 1 (INFINITY when there
    are no vertices).  Ties broken by ascending vertex index.  The choice
    function is the best G - v's optimal one with f(v) = deg(v) + 1 inserted.

    Only the lowest vertex of each orbit of the group that the automorphisms
    ``generators`` generate is visited.  That is exact: an automorphism
    mapping v to v' maps G - v onto G - v' and keeps the degree, so v' gives
    v's value, and with vertices taken in ascending order only a strict
    improvement replaces the best, so v' would never replace it; it cannot
    lower the floor below v's either.  ``chi_sc`` passes the automorphisms
    its canonical labeling of g found; without them rho labels g itself.

    Once the budget has run out, each G - v left is bounded without a
    search: chi_sc(G - v) >= |V(G - v)|, as every list holds a color.
    ChiUnknown is never memoized, so searching them would walk the subset
    lattice again below each one."""
    memo = memo if memo is not None else MemoStore()
    if generators is None:
        generators = canonical_labeling(g)[2]
    orbit = orbits(g.n, generators)
    best: int | float = INFINITY
    best_f = None
    floor: int | float = INFINITY
    any_unknown = False
    for v in range(g.n):
        if orbit[v] & ((1 << v) - 1):
            continue  # a lower vertex of v's orbit gave the same value
        sub = g.delete_vertex(v)
        try:
            if budget is not None:
                budget.check("vertex-deletion recursion")
        except SearchBudgetExceeded as exc:
            out: ChiOutcome = ChiUnknown(sub.n, greedy_bound(sub), str(exc))
        else:
            out = chi_sc(sub, memo, budget)
        step = g.degree(v) + 1
        if isinstance(out, ChiUnknown):
            any_unknown = True
            floor = min(floor, out.lower + step)
        else:
            if out.chi_sc + step < best:
                best = out.chi_sc + step
                best_f = out.optimal_f[:v] + (step,) + out.optimal_f[v:]
            floor = min(floor, out.chi_sc + step)
    if any_unknown and best > floor:  # floor is finite once a vertex is unknown
        return BoundResult(INFINITY, None, unknown=True, lower_bound=floor)
    return BoundResult(best, best_f)


# ---------------------------------------------------------------------------
# chi_sc
# ---------------------------------------------------------------------------

def _verify_choice_function(g: Graph, f: SizeFunction, chi: int,
                            budget: Budget | None) -> ChiUnknown | None:
    """None once f, of size chi, is proved choosable; ChiUnknown(chi, chi)
    when the budget runs out first."""
    if sum(f) != chi:
        raise AssertionError(f"optimal size function sums to {sum(f)}, not {chi}")
    verdict = is_choosable(g, f, budget)
    if isinstance(verdict, UnknownVerdict):
        return ChiUnknown(chi, chi, f"value certified, optimal size function "
                          f"unverified: {verdict.progress}")
    if not isinstance(verdict, Choosable):
        raise AssertionError("optimal size function failed re-verification")
    return None


def _check_memo_record(key: CanonicalKey, rec: SumChoiceRecord, memo: MemoStore,
                       budget: Budget | None) -> ChiUnknown | None:
    """Check a record read from the memo file: its optimal_f must sum to
    chi_sc, which must not exceed the greedy bound, and must be choosable.
    A wrong record raises SumChoiceError; None when it holds, ChiUnknown
    when the budget ran out first."""
    g = parse_graph6(key)
    f = rec.optimal_f
    gb = greedy_bound(g)
    if len(f) != g.n or not all(type(x) is int and x >= 1 for x in f):
        problem = f"optimal_f {list(f)} is not a size function on {g.n} vertices"
    elif sum(f) != rec.chi_sc:
        problem = f"optimal_f sums to {sum(f)}, not chi_sc {rec.chi_sc}"
    elif rec.greedy_bound != gb or rec.chi_sc > gb:
        problem = f"chi_sc {rec.chi_sc} and gb {rec.greedy_bound} with greedy bound {gb}"
    else:
        verdict = is_choosable(g, f, budget)
        if isinstance(verdict, UnknownVerdict):
            return ChiUnknown(g.n, gb, f"budget ran out while checking the memo "
                              f"record: {verdict.progress}")
        if isinstance(verdict, Choosable):
            return None
        problem = f"optimal_f {list(f)} is not choosable"
    raise SumChoiceError(f"{memo.path}: wrong memo record for {key}: {problem}")


def chi_sc(g: Graph, memo: MemoStore | None = None,
           budget: Budget | None = None, *, use_blocks: bool = True) -> ChiOutcome:
    """Exact sum choice number with a verified optimal size function.

    Decomposes over the blocks of every component (|V| plus each block's
    excess over its order), then settles each block by min(rho, tau) with
    tau capped below rho.  ``use_blocks=False`` skips the decomposition and
    settles ``g`` itself by min(rho, tau).  On budget exhaustion returns
    certified bounds instead of a value.
    """
    gb = greedy_bound(g)
    if g.n == 0:
        return SumChoiceRecord(0, 0, (), INFINITY, INFINITY, method="empty")

    if g.n > CANONICAL_MAX_ORDER:
        key = perm = maps = None  # research scale: computed but not memoized
    else:
        key, perm, maps = canonical_labeling(g)
    memo = memo if memo is not None else MemoStore()
    if key is not None:
        hit = memo.get(key)
        if hit is not None:
            unknown = memo.check_first_hit(key, hit, budget)
            if unknown is not None:
                return unknown
            return replace(hit, optimal_f=tuple(hit.optimal_f[p] for p in perm))

    blks, cuts = blocks(g) if use_blocks else ([tuple(range(g.n))], ())
    if len(blks) > 1:
        outcome = _chi_blocks(g, blks, cuts, memo, budget)
    else:
        outcome = _chi_base(g, memo, budget, maps)

    if isinstance(outcome, SumChoiceRecord):
        if outcome.chi_sc > gb:
            raise AssertionError(f"chi_sc {outcome.chi_sc} above greedy bound {gb}")
        if key is not None:
            memo.put(key, outcome.relabeled(perm))
    return outcome


def _chi_blocks(g, blks, cuts, memo, budget) -> ChiOutcome:
    """Combine the blocks of every component: f(v) = 1 + sum over the blocks
    B at v of (f_B(v) - 1), so chi_sc = |V| + sum(chi_sc(B) - |B|).  For a
    connected graph this is sum(chi_sc(B)) - k + 1; components simply add.
    The combined f is re-verified when some block meets another at a cut
    vertex."""
    f = [1] * g.n
    total = g.n  # a lower bound while some block is unknown
    unknown = False
    for blk in blks:
        out = chi_sc(induced_subgraph(g, blk), memo, budget)
        if isinstance(out, ChiUnknown):
            unknown = True
            total += out.lower - len(blk)
            continue
        total += out.chi_sc - len(blk)
        for i, v in enumerate(blk):
            f[v] += out.optimal_f[i] - 1
    if unknown:
        return ChiUnknown(total, greedy_bound(g), "block computation hit the budget")
    fr = tuple(f)
    if cuts:
        unknown = _verify_choice_function(g, fr, total, budget)
        if unknown is not None:
            return unknown
    return SumChoiceRecord(total, greedy_bound(g), fr, None, None, method="blocks")


def _chi_base(g, memo, budget, maps) -> ChiOutcome:
    gb = greedy_bound(g)
    if maps is None:
        maps = canonical_labeling(g)[2]  # not labeled for the memo key
    rho_res = rho(g, memo, budget, maps)
    if rho_res.unknown:
        floor = rho_res.lower_bound
        if g.min_degree() >= 2:
            floor = min(floor, 2 * g.n)  # a non-simple choice function may exist
        return ChiUnknown(max(g.n, floor), gb,
                          "vertex-deletion recursion hit the budget")
    rho_val = rho_res.value  # finite: g has a vertex, and rho visits vertex 0
    tau_res = tau(g, rho_val - 1, budget, maps)
    if tau_res.unknown:
        return ChiUnknown(min(rho_val, tau_res.lower_bound), rho_val,
                          "size-function search hit the budget")
    chi = int(min(rho_val, tau_res.value))
    if tau_res.value < rho_val:
        f = tau_res.choice_function
        tau_field: int | float | None = tau_res.value
    else:
        # no non-simple size function exists at all when some degree is
        # below 2; otherwise the capped search only proves tau >= rho
        tau_field = INFINITY if g.min_degree() < 2 else None
        f = rho_res.choice_function
        unknown = _verify_choice_function(g, f, chi, budget)
        if unknown is not None:
            return unknown
    return SumChoiceRecord(chi, gb, f, rho_val, tau_field,
                           method="rho-tau")


def is_sc_greedy(g: Graph, memo: MemoStore | None = None,
                 budget: Budget | None = None) -> bool:
    """Whether chi_sc equals the greedy bound.

    A stored non-sc-greedy graph found as an induced subgraph settles the
    answer as False without computing the value (non-greediness is
    inherited upward through induced subgraphs).  The store is seeded with
    the smallest non-sc-greedy graph, K_{2,3}, and grows with every value
    the engine computes.
    """
    memo = memo if memo is not None else MemoStore()
    if 5 < g.n <= CANONICAL_MAX_ORDER:
        k23 = fam.generate(fam.CompleteBipartite(2, 3))
        chi_sc(k23, memo, budget)  # seed; a no-op once memoized
        for key, order in memo.known_not_sc_greedy():
            if order < g.n and has_induced_subgraph(g, key, order):
                # a record read from the memo file is checked on its first hit
                if isinstance(chi_sc(parse_graph6(key), memo, budget), ChiUnknown):
                    raise SearchBudgetExceeded("budget ran out while checking a "
                                               "memo record")
                return False
    out = chi_sc(g, memo, budget)
    if isinstance(out, ChiUnknown):
        raise SearchBudgetExceeded(
            f"sc-greedy status unresolved: chi_sc in [{out.lower}, {out.upper}]")
    return out.sc_greedy


def has_induced_subgraph(g: Graph, key: CanonicalKey, order: int) -> bool:
    """True when some induced subgraph of g has the given canonical key."""
    import itertools as _it
    for combo in _it.combinations(range(g.n), order):
        if canonical_form(induced_subgraph(g, combo)) == key:
            return True
    return False


# ---------------------------------------------------------------------------
# Direct search oracles and scans
# ---------------------------------------------------------------------------

def direct_min_choice_size(g: Graph, budget: Budget | None = None
                           ) -> tuple[int, SizeFunction]:
    """Smallest total size of a choosable size function, by plain search in
    nondecreasing total size; independent of the rho/tau machinery.

    Searching 1 <= f(v) <= deg(v) + 1 is enough: surplus entries can be
    lowered to deg(v) + 1 without changing choosability, and sizes can be
    padded back up freely because choosability is monotone in f.
    """
    if g.n == 0:
        return 0, ()
    lows = [1] * g.n
    highs = [g.degree(v) + 1 for v in range(g.n)]
    for total in range(g.n, greedy_bound(g) + 1):
        for f in bounded_sum_vectors(lows, highs, total):
            verdict = is_choosable(g, f, budget)
            if isinstance(verdict, UnknownVerdict):
                raise SearchBudgetExceeded(
                    f"direct search interrupted at size {total}")
            if isinstance(verdict, Choosable):
                return total, f
    raise AssertionError("greedy size function must be choosable")


def confirm_minimality(g: Graph, chi: int, budget: Budget | None = None) -> int:
    """Check that no size function of total chi - 1 is choosable; returns the
    number of candidates refuted.  Same 1..deg+1 box as the direct search."""
    if g.n == 0:
        return 0
    lows = [1] * g.n
    highs = [g.degree(v) + 1 for v in range(g.n)]
    count = 0
    for f in bounded_sum_vectors(lows, highs, chi - 1):
        verdict = is_choosable(g, f, budget)
        if isinstance(verdict, UnknownVerdict):
            raise SearchBudgetExceeded(f"minimality check interrupted at {f}")
        if isinstance(verdict, Choosable):
            raise AssertionError(
                f"size function {f} of total {chi - 1} is choosable")
        count += 1
    return count


@dataclass(frozen=True)
class MinimalNonGreedy:
    graph: Graph
    chi_sc: int
    greedy_bound: int
    min_degree: int
    gap_is_one: bool


def classify_minimally_not_sc_greedy(n: int, memo: MemoStore | None = None,
                                     budget: Budget | None = None
                                     ) -> list[MinimalNonGreedy]:
    """Connected graphs on at most n vertices that are not sc-greedy while
    every proper induced subgraph is sc-greedy.

    Checking the one-vertex deletions suffices: non-greediness propagates
    upward through induced subgraphs, so if every G - v is sc-greedy then so
    is every smaller induced subgraph.
    """
    memo = memo if memo is not None else MemoStore()
    out: list[MinimalNonGreedy] = []
    for k in range(1, n + 1):
        for g in enumerate_connected_graphs(k):
            rec = chi_sc(g, memo, budget)
            if isinstance(rec, ChiUnknown):
                raise SearchBudgetExceeded(
                    f"classification interrupted on a graph of order {k}")
            if rec.sc_greedy:
                continue
            deletions_greedy = True
            for v in range(k):
                sub_rec = chi_sc(g.delete_vertex(v), memo, budget)
                if isinstance(sub_rec, ChiUnknown):
                    raise SearchBudgetExceeded(
                        f"classification interrupted below a graph of order {k}")
                if not sub_rec.sc_greedy:
                    deletions_greedy = False
                    break
            if deletions_greedy:
                out.append(MinimalNonGreedy(
                    graph=g,
                    chi_sc=rec.chi_sc,
                    greedy_bound=rec.greedy_bound,
                    min_degree=g.min_degree(),
                    gap_is_one=rec.chi_sc == rec.greedy_bound - 1,
                ))
    return out


# ---------------------------------------------------------------------------
# Closed forms for families with published values
# ---------------------------------------------------------------------------

def _normalize(spec: fam.FamilySpec) -> fam.FamilySpec:
    if isinstance(spec, fam.Path) and spec.n <= 2:
        return fam.Complete(spec.n)
    if isinstance(spec, fam.Cycle) and spec.n == 3:
        return fam.Complete(3)
    if isinstance(spec, fam.GeneralizedTheta) and len(spec.parts) == 3:
        return fam.Theta(tuple(sorted(spec.parts)))  # type: ignore[arg-type]
    if isinstance(spec, fam.Theta):
        return fam.Theta(tuple(sorted(spec.parts)))  # type: ignore[arg-type]
    return spec


def closed_form(spec: fam.FamilySpec) -> int | None:
    """Known sum choice number for the family, or None when no published
    value covers these parameters.  Used as an independent cross-check for
    the search engine, never as a substitute for it."""
    spec = _normalize(spec)
    if isinstance(spec, fam.Path):
        return 2 * spec.n - 1
    if isinstance(spec, fam.Cycle):
        return 2 * spec.n
    if isinstance(spec, fam.Complete):
        return spec.n * (spec.n + 1) // 2
    if isinstance(spec, fam.CompleteBipartite):
        a, b = sorted((spec.m, spec.n))
        if a == 1:
            return 2 * b + 1
        if a == 2:
            return 2 * b + 1 + math.isqrt(4 * b + 1)
        if a == 3:
            return 2 * b + 1 + math.isqrt(12 * b + 4)
        return None
    if isinstance(spec, fam.Wheel):
        if spec.k == 3:
            return 10
        if spec.k == 4:
            return 12
        return None
    if isinstance(spec, fam.BrokenWheel):
        return 3 * spec.k if spec.k <= 9 else None
    if isinstance(spec, fam.Theta):
        a, b, c = spec.parts
        if a == 1 and b == 1 and c % 2 == 1:
            return 2 * c + 8
        return 2 * (a + b + c) + 5
    if isinstance(spec, fam.CartesianProduct):
        pairs = [(_normalize(spec.left), _normalize(spec.right))]
        pairs.append((pairs[0][1], pairs[0][0]))
        for left, right in pairs:
            if isinstance(left, fam.Complete) and left.n == 1:
                return closed_form(right)
            if (isinstance(left, fam.Complete) and isinstance(right, fam.Complete)
                    and left.n == 3 and right.n == 3):
                return 25
            if isinstance(left, fam.Complete) and left.n == 2 and isinstance(right, fam.Complete):
                n = right.n
                return n * n + math.ceil(5 * n / 3)
            if isinstance(left, fam.Complete) and left.n == 2 and isinstance(right, fam.Path):
                return 5 * right.n - 2
            if isinstance(left, fam.Path) and left.n == 3 and isinstance(right, fam.Path):
                n = right.n
                return 8 * n - 3 - n // 3
        return None
    if isinstance(spec, fam.Power):
        base = _normalize(spec.base)
        if spec.k == 1:
            return closed_form(base)
        if isinstance(base, fam.Path) and spec.k == 2:
            return 1 if base.n == 1 else 3 * base.n - 3
        if isinstance(base, fam.Complete) and base.n <= 2 and spec.k == 2:
            return closed_form(base)
        return None
    if isinstance(spec, fam.PathOfCycles):
        k = len(spec.lengths)
        return 2 * sum(spec.lengths) - 3 * (k - 1)
    if isinstance(spec, fam.TreeOfCycles):
        total = spec.first_length + sum(a for _, _, a in spec.attachments)
        return 2 * total - 3 * len(spec.attachments)
    return None
