"""Named graph families: constructors, validation and the CLI text form.

Labeling conventions are frozen so tests can reference vertices stably:

* paths and cycles are labeled consecutively along the walk;
* wheels and broken wheels put the hub at vertex 0 and the rim at 1..k in
  cycle order (the broken wheel omits the rim edge {1, k});
* theta graphs put the two end vertices at 0 and 1, then the internal
  vertices of each path consecutively, path by path;
* complete bipartite graphs label one side 0..m-1 and the other m..m+n-1;
* Cartesian products map (u, u') to u * |V(right)| + u';
* paths/trees of cycles label the first cycle 0..a1-1 in cycle order and
  every later cycle as (t, new..., b) where {t, b} is the shared edge; a
  path of cycles always attaches each next cycle to the edge formed by the
  second and third vertices of the previous cycle's stored order, which
  never touches an earlier shared pair because cycle lengths are >= 4.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .errors import FamilySpecError
from .graphs import Graph, cartesian_product, graph_from_edges, graph_power


@dataclass(frozen=True)
class Path:
    n: int


@dataclass(frozen=True)
class Cycle:
    n: int


@dataclass(frozen=True)
class Complete:
    n: int


@dataclass(frozen=True)
class CompleteBipartite:
    m: int
    n: int


@dataclass(frozen=True)
class Wheel:
    k: int


@dataclass(frozen=True)
class BrokenWheel:
    k: int


@dataclass(frozen=True)
class Theta:
    parts: tuple[int, int, int]


@dataclass(frozen=True)
class GeneralizedTheta:
    parts: tuple[int, ...]


@dataclass(frozen=True)
class CartesianProduct:
    left: "FamilySpec"
    right: "FamilySpec"


@dataclass(frozen=True)
class Power:
    base: "FamilySpec"
    k: int


@dataclass(frozen=True)
class PathOfCycles:
    lengths: tuple[int, ...]


@dataclass(frozen=True)
class TreeOfCycles:
    """First cycle length plus, per later cycle, (parent cycle number,
    parent edge index, length).  Cycles are numbered from 1 in build order;
    edge i of a cycle joins positions i and i+1 of its stored vertex order
    (wrapping)."""

    first_length: int
    attachments: tuple[tuple[int, int, int], ...]


FamilySpec = Union[
    Path, Cycle, Complete, CompleteBipartite, Wheel, BrokenWheel,
    Theta, GeneralizedTheta, CartesianProduct, Power, PathOfCycles, TreeOfCycles,
]


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise FamilySpecError(message)


def _theta_graph(parts: tuple[int, ...]) -> Graph:
    _check(len(parts) >= 3, "theta graphs need at least three paths")
    _check(all(p >= 0 for p in parts), "theta path sizes must be nonnegative")
    _check(sum(1 for p in parts if p == 0) <= 1,
           "at most one theta path may have zero internal vertices")
    n = 2 + sum(parts)
    edges = []
    nxt = 2
    for p in parts:
        if p == 0:
            edges.append((0, 1))
            continue
        chain = list(range(nxt, nxt + p))
        nxt += p
        edges.append((0, chain[0]))
        for a, b in zip(chain, chain[1:]):
            edges.append((a, b))
        edges.append((chain[-1], 1))
    return graph_from_edges(n, edges)


def _cycles_graph(first_length: int,
                  attachments: tuple[tuple[int, int, int], ...]) -> Graph:
    """Shared-edge gluing engine behind PathOfCycles and TreeOfCycles."""
    _check(first_length >= 4, "cycle lengths must be at least 4")
    orders: list[list[int]] = [list(range(first_length))]
    edges = [(i, (i + 1) % first_length) for i in range(first_length)]
    n = first_length
    # how many cycles each vertex belongs to (shared pairs must stay disjoint)
    membership = [1] * first_length
    for parent, edge_idx, length in attachments:
        _check(length >= 4, "cycle lengths must be at least 4")
        _check(1 <= parent <= len(orders), f"no cycle numbered {parent} yet")
        cyc = orders[parent - 1]
        _check(0 <= edge_idx < len(cyc),
               f"cycle {parent} has edges 0..{len(cyc) - 1}, got {edge_idx}")
        t = cyc[edge_idx]
        b = cyc[(edge_idx + 1) % len(cyc)]
        _check(membership[t] == 1 and membership[b] == 1,
               f"edge {{{t},{b}}} of cycle {parent} is already shared")
        membership[t] += 1
        membership[b] += 1
        fresh = list(range(n, n + length - 2))
        membership.extend([1] * (length - 2))
        n += length - 2
        order = [t] + fresh + [b]
        orders.append(order)
        path = [t] + fresh + [b]
        edges.extend(zip(path, path[1:]))
    return graph_from_edges(n, edges)


def path_of_cycles_attachments(lengths: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    """Each cycle after the first attaches to edge 1 (second/third vertices)
    of its predecessor; valid for every length >= 4."""
    return tuple((i, 1, a) for i, a in enumerate(lengths[1:], start=1))


def generate(spec: FamilySpec) -> Graph:
    """Build the labeled graph for a family descriptor."""
    if isinstance(spec, Path):
        _check(spec.n >= 1, "paths need at least one vertex")
        return graph_from_edges(spec.n, [(i, i + 1) for i in range(spec.n - 1)])
    if isinstance(spec, Cycle):
        _check(spec.n >= 3, "cycles need at least three vertices")
        return graph_from_edges(spec.n, [(i, (i + 1) % spec.n) for i in range(spec.n)])
    if isinstance(spec, Complete):
        _check(spec.n >= 1, "complete graphs need at least one vertex")
        return graph_from_edges(spec.n, [(i, j) for i in range(spec.n) for j in range(i)])
    if isinstance(spec, CompleteBipartite):
        _check(spec.m >= 1 and spec.n >= 1, "both sides need at least one vertex")
        return graph_from_edges(
            spec.m + spec.n,
            [(i, spec.m + j) for i in range(spec.m) for j in range(spec.n)],
        )
    if isinstance(spec, Wheel):
        _check(spec.k >= 3, "wheels need rim length at least 3")
        edges = [(0, i) for i in range(1, spec.k + 1)]
        edges += [(i, i % spec.k + 1) for i in range(1, spec.k + 1)]
        return graph_from_edges(spec.k + 1, edges)
    if isinstance(spec, BrokenWheel):
        _check(spec.k >= 3, "broken wheels need rim length at least 3")
        return generate(Wheel(spec.k)).remove_edge(1, spec.k)
    if isinstance(spec, Theta):
        return _theta_graph(spec.parts)
    if isinstance(spec, GeneralizedTheta):
        return _theta_graph(spec.parts)
    if isinstance(spec, CartesianProduct):
        return cartesian_product(generate(spec.left), generate(spec.right))
    if isinstance(spec, Power):
        _check(spec.k >= 1, "powers need an exponent of at least 1")
        return graph_power(generate(spec.base), spec.k)
    if isinstance(spec, PathOfCycles):
        _check(len(spec.lengths) >= 1, "need at least one cycle")
        return _cycles_graph(spec.lengths[0], path_of_cycles_attachments(spec.lengths))
    if isinstance(spec, TreeOfCycles):
        return _cycles_graph(spec.first_length, spec.attachments)
    raise FamilySpecError(f"unknown family spec {spec!r}")


# ---------------------------------------------------------------------------
# Text form, e.g. wheel:4, theta:1,1,2, product:path:2,path:3, power:path:5,2
# ---------------------------------------------------------------------------

_FIXED_ARITY = {
    "path": 1, "cycle": 1, "complete": 1, "wheel": 1, "brokenwheel": 1,
    "bipartite": 2, "theta": 3,
}
_NAME_RE = re.compile(r"[a-z]+")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> None:
        if self.peek() != ch:
            raise FamilySpecError(
                f"expected {ch!r} at position {self.pos} in {self.text!r}")
        self.pos += 1

    def int_token(self) -> int:
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        if start == self.pos:
            raise FamilySpecError(
                f"expected an integer at position {start} in {self.text!r}")
        return int(self.text[start:self.pos])

    def name_token(self) -> str:
        m = _NAME_RE.match(self.text, self.pos)
        if not m:
            raise FamilySpecError(
                f"expected a family name at position {self.pos} in {self.text!r}")
        self.pos = m.end()
        return m.group()


def _parse_spec(s: _Scanner, greedy: bool) -> FamilySpec:
    if s.peek() == "(":
        s.take("(")
        inner = _parse_spec(s, greedy=True)
        s.take(")")
        return inner
    name = s.name_token()
    if name in _FIXED_ARITY:
        s.take(":")
        args = [s.int_token()]
        for _ in range(_FIXED_ARITY[name] - 1):
            s.take(",")
            args.append(s.int_token())
        if name == "path":
            return Path(args[0])
        if name == "cycle":
            return Cycle(args[0])
        if name == "complete":
            return Complete(args[0])
        if name == "wheel":
            return Wheel(args[0])
        if name == "brokenwheel":
            return BrokenWheel(args[0])
        if name == "bipartite":
            return CompleteBipartite(args[0], args[1])
        return Theta((args[0], args[1], args[2]))
    if name == "product":
        s.take(":")
        left = _parse_spec(s, greedy=False)
        s.take(",")
        right = _parse_spec(s, greedy=True)
        return CartesianProduct(left, right)
    if name == "power":
        s.take(":")
        base = _parse_spec(s, greedy=False)
        s.take(",")
        return Power(base, s.int_token())
    if name in ("gentheta", "pathcycles"):
        if not greedy:
            raise FamilySpecError(
                f"{name} takes a variable argument list; parenthesize it here")
        s.take(":")
        args = [s.int_token()]
        while s.peek() == ",":
            s.take(",")
            args.append(s.int_token())
        if name == "gentheta":
            return GeneralizedTheta(tuple(args))
        return PathOfCycles(tuple(args))
    if name == "treecycles":
        if not greedy:
            raise FamilySpecError(
                "treecycles takes a variable argument list; parenthesize it here")
        s.take(":")
        first = s.int_token()
        attachments = []
        while s.peek() == "/":
            s.take("/")
            parent = s.int_token()
            s.take(".")
            edge = s.int_token()
            s.take(".")
            length = s.int_token()
            attachments.append((parent, edge, length))
        return TreeOfCycles(first, tuple(attachments))
    raise FamilySpecError(f"unknown family name {name!r}")


def parse_family(text: str) -> FamilySpec:
    s = _Scanner(text.strip().lower())
    spec = _parse_spec(s, greedy=True)
    if s.pos != len(s.text):
        raise FamilySpecError(
            f"trailing text {s.text[s.pos:]!r} after family spec")
    return spec


def format_family(spec: FamilySpec) -> str:
    if isinstance(spec, Path):
        return f"path:{spec.n}"
    if isinstance(spec, Cycle):
        return f"cycle:{spec.n}"
    if isinstance(spec, Complete):
        return f"complete:{spec.n}"
    if isinstance(spec, CompleteBipartite):
        return f"bipartite:{spec.m},{spec.n}"
    if isinstance(spec, Wheel):
        return f"wheel:{spec.k}"
    if isinstance(spec, BrokenWheel):
        return f"brokenwheel:{spec.k}"
    if isinstance(spec, Theta):
        return "theta:" + ",".join(map(str, spec.parts))
    if isinstance(spec, GeneralizedTheta):
        return "gentheta:" + ",".join(map(str, spec.parts))
    if isinstance(spec, CartesianProduct):
        left = format_family(spec.left)
        if isinstance(spec.left, (GeneralizedTheta, PathOfCycles, TreeOfCycles)):
            left = f"({left})"
        return f"product:{left},{format_family(spec.right)}"
    if isinstance(spec, Power):
        base = format_family(spec.base)
        if isinstance(spec.base, (GeneralizedTheta, PathOfCycles, TreeOfCycles)):
            base = f"({base})"
        return f"power:{base},{spec.k}"
    if isinstance(spec, PathOfCycles):
        return "pathcycles:" + ",".join(map(str, spec.lengths))
    if isinstance(spec, TreeOfCycles):
        parts = [str(spec.first_length)]
        parts += [f"{p}.{e}.{a}" for p, e, a in spec.attachments]
        return "treecycles:" + "/".join(parts)
    raise FamilySpecError(f"unknown family spec {spec!r}")
