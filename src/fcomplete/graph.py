"""Bitset-backed simple graphs, forbidden-pattern detection and edge-list I/O.

Vertices are integers ``0..n-1``.  Vertex sets are plain ``int`` bitmasks
(bit ``v`` set iff vertex ``v`` is in the set), which keeps the inner loops
of the solvers cheap.  Graphs are immutable; edits produce derived graphs.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Iterator, Optional, Sequence


class GraphFormatError(ValueError):
    """Malformed edge-list input.  The message names the offending line."""


class CertificationError(Exception):
    """A solver's answer failed the check that certifies it.

    Deliberately not a ValueError: callers that fall back to another solver
    on ValueError must not hide a wrong answer.
    """


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def set_of(mask: int) -> frozenset[int]:
    return frozenset(bits(mask))


class Pattern(enum.Enum):
    """The fixed forbidden induced subgraphs handled by the solvers."""

    TWO_K2 = "2K2"
    C4 = "C4"
    P4 = "P4"
    C5 = "C5"
    CO_P3 = "coP3"

    @property
    def order(self) -> int:
        return _PATTERN_ORDER[self]

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges of the pattern over role positions 0..order-1."""
        return _PATTERN_EDGES[self]

    @property
    def non_edges(self) -> tuple[tuple[int, int], ...]:
        return _PATTERN_NON_EDGES[self]

    @classmethod
    def from_label(cls, label: str) -> "Pattern":
        key = label.strip().lower().replace("-", "").replace("_", "")
        for p in cls:
            if p.value.lower() == key:
                return p
        aliases = {"2k2": cls.TWO_K2, "cop3": cls.CO_P3, "p3bar": cls.CO_P3,
                   "p3complement": cls.CO_P3}
        if key in aliases:
            return aliases[key]
        raise ValueError(f"unknown pattern {label!r}")


# Role orders: P4 path order, C4/C5 cycle order, 2K2 the two edges,
# coP3 the edge followed by the isolated vertex.
_PATTERN_ORDER = {
    Pattern.TWO_K2: 4,
    Pattern.C4: 4,
    Pattern.P4: 4,
    Pattern.C5: 5,
    Pattern.CO_P3: 3,
}

_PATTERN_EDGES = {
    Pattern.TWO_K2: ((0, 1), (2, 3)),
    Pattern.C4: ((0, 1), (1, 2), (2, 3), (0, 3)),
    Pattern.P4: ((0, 1), (1, 2), (2, 3)),
    Pattern.C5: ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)),
    Pattern.CO_P3: ((0, 1),),
}


def _non_edges(pattern: Pattern) -> tuple[tuple[int, int], ...]:
    r = _PATTERN_ORDER[pattern]
    present = set(_PATTERN_EDGES[pattern])
    return tuple((i, j) for i in range(r) for j in range(i + 1, r)
                 if (i, j) not in present)


_PATTERN_NON_EDGES = {p: _non_edges(p) for p in Pattern}

# Adjacency matrix per pattern: adj[i] = mask of role positions adjacent to i.
_PATTERN_ADJ = {}
for _p in Pattern:
    _rows = [0] * _PATTERN_ORDER[_p]
    for _i, _j in _PATTERN_EDGES[_p]:
        _rows[_i] |= 1 << _j
        _rows[_j] |= 1 << _i
    _PATTERN_ADJ[_p] = tuple(_rows)


class Graph:
    """Immutable simple undirected graph with bitset adjacency."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Sequence[int]):
        self.n = n
        self.adj = tuple(adj)

    @property
    def m(self) -> int:
        """Number of edges, counted on access."""
        return sum(a.bit_count() for a in self.adj) // 2

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"vertex id out of range in edge ({u}, {v})")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, adj)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        full = (1 << n) - 1
        return cls(n, [full ^ (1 << v) for v in range(n)])

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, [0] * n)

    @property
    def vertices(self) -> int:
        """Mask of all vertices."""
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> int:
        return self.adj[v]

    def closed(self, v: int) -> int:
        return self.adj[v] | (1 << v)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def non_edge_pairs(self) -> Iterator[tuple[int, int]]:
        full = self.vertices
        for u in range(self.n):
            rest = full >> (u + 1) << (u + 1)
            for v in bits(rest & ~self.adj[u]):
                yield (u, v)

    def add_edges(self, pairs: Iterable[tuple[int, int]]) -> "Graph":
        adj = list(self.adj)
        for u, v in pairs:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return Graph(self.n, adj)

    def remove_edges(self, pairs: Iterable[tuple[int, int]]) -> "Graph":
        adj = list(self.adj)
        for u, v in pairs:
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
        return Graph(self.n, adj)

    def induced(self, mask: int) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph on ``mask``; returns (subgraph, new-id -> old-id)."""
        ids = tuple(bits(mask))
        pos = {v: i for i, v in enumerate(ids)}
        adj = [0] * len(ids)
        for i, v in enumerate(ids):
            for w in bits(self.adj[v] & mask):
                adj[i] |= 1 << pos[w]
        return Graph(len(ids), adj), ids

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class CompletionSet:
    """A set of vertex pairs to add (mode ``addition``) or delete (``deletion``)."""

    pairs: tuple[tuple[int, int], ...]
    mode: str = "addition"

    def __post_init__(self):
        if self.mode not in ("addition", "deletion"):
            raise ValueError(f"bad mode {self.mode!r}")
        norm = tuple(sorted((u, v) if u < v else (v, u) for u, v in self.pairs))
        if len(set(norm)) != len(norm):
            raise ValueError("duplicate pairs in completion set")
        if any(u == v for u, v in norm):
            raise ValueError("pair endpoints must be distinct")
        object.__setattr__(self, "pairs", norm)

    @property
    def size(self) -> int:
        return len(self.pairs)

    def apply(self, g: Graph) -> Graph:
        if self.mode == "addition":
            return g.add_edges(self.pairs)
        return g.remove_edges(self.pairs)

    def validate_against(self, g: Graph) -> None:
        """Check the mode invariant: additions are non-edges, deletions edges."""
        for u, v in self.pairs:
            if self.mode == "addition" and g.has_edge(u, v):
                raise ValueError(f"pair ({u}, {v}) is already an edge")
            if self.mode == "deletion" and not g.has_edge(u, v):
                raise ValueError(f"pair ({u}, {v}) is not an edge")


def occurrences(g: Graph, pattern: Pattern) -> Iterator[tuple[int, ...]]:
    """Yield induced occurrences of ``pattern`` as role-ordered vertex tuples.

    Tuples come out in lexicographic order, so the first one is the canonical
    occurrence.
    """
    padj = _PATTERN_ADJ[pattern]
    r = _PATTERN_ORDER[pattern]
    gadj = g.adj
    full = g.vertices
    chosen = [0] * r

    def extend(i: int, used: int) -> Iterator[tuple[int, ...]]:
        cand = full & ~used
        for j in range(i):
            if padj[i] >> j & 1:
                cand &= gadj[chosen[j]]
            else:
                cand &= ~gadj[chosen[j]]
        while cand:
            low = cand & -cand
            chosen[i] = low.bit_length() - 1
            if i + 1 == r:
                yield tuple(chosen)
            else:
                yield from extend(i + 1, used | low)
            cand ^= low

    yield from extend(0, 0)


def _symmetry_conditions(pattern: Pattern) -> tuple[tuple[int, int], ...]:
    """Role pairs ``(a, b)`` such that ``chosen[a] < chosen[b]`` keeps exactly
    one role tuple per occurrence: the lexicographically smallest one.

    Orbit-stabilizer chain of the pattern's automorphism group (Grochow and
    Kellis, RECOMB 2007): the first role with a non-trivial orbit gets the
    smallest vertex of its orbit, then the same runs in its stabilizer.
    """
    r = _PATTERN_ORDER[pattern]
    rows = _PATTERN_ADJ[pattern]
    group = [s for s in permutations(range(r))
             if all(rows[s[i]] >> s[j] & 1 == rows[i] >> j & 1
                    for i in range(r) for j in range(r))]
    conds = []
    for role in range(r):
        orbit = sorted({s[role] for s in group})
        conds.extend((role, other) for other in orbit if other != role)
        group = [s for s in group if s[role] == role]
    return tuple(conds)


_SYMMETRY = {p: _symmetry_conditions(p) for p in Pattern}


def _placement_plan(pattern: Pattern, order: Sequence[int]) -> tuple:
    """For each role in placement ``order``: the roles placed before it that
    it must be adjacent / non-adjacent to, and those it must lie above /
    below (from the symmetry conditions)."""
    padj = _PATTERN_ADJ[pattern]
    steps = []
    for t, role in enumerate(order):
        before = order[:t]
        steps.append((tuple(e for e in before if padj[role] >> e & 1),
                      tuple(e for e in before if not padj[role] >> e & 1),
                      tuple(a for a, b in _SYMMETRY[pattern] if b == role and a in before),
                      tuple(b for a, b in _SYMMETRY[pattern] if a == role and b in before)))
    return tuple(order), tuple(steps)


_FULL_PLANS = {p: _placement_plan(p, range(p.order)) for p in Pattern}


@functools.cache
def _anchor_plans(p: Pattern, adjacent: bool, ordered: bool) -> tuple:
    """Plans where the anchor pair (u, v) takes roles (i, j), placed first:
    an edge role if ``adjacent``, else a non-edge role, leaving out the
    placements whose symmetry condition between i and j the pair breaks
    (``ordered`` is u < v)."""
    return tuple(
        _placement_plan(p, (i, j) + tuple(x for x in range(p.order) if x not in (i, j)))
        for i in range(p.order) for j in range(p.order)
        if i != j and bool(_PATTERN_ADJ[p][i] >> j & 1) == adjacent
        and ((j, i) if ordered else (i, j)) not in _SYMMETRY[p])


def _place(gadj, plan, pins, out: list) -> None:
    order, steps = plan
    r = len(order)
    chosen = [0] * r

    def extend(t: int, mask: int) -> None:
        adj_to, apart_from, above, below = steps[t]
        cand = pins[t] & ~mask
        for e in adj_to:
            cand &= gadj[chosen[e]]
        for e in apart_from:
            cand &= ~gadj[chosen[e]]
        for a in above:
            cand &= -(2 << chosen[a])
        for b in below:
            cand &= (1 << chosen[b]) - 1
        role = order[t]
        while cand:
            low = cand & -cand
            chosen[role] = low.bit_length() - 1
            if t + 1 == r:
                out.append(mask | low)
            else:
                extend(t + 1, mask | low)
            cand ^= low

    extend(0, 0)


def occurrence_masks(g: Graph, pattern: Pattern,
                     anchor: Optional[tuple[int, int]] = None) -> list[int]:
    """Vertex sets (masks) that induce ``pattern``, each set once.

    In the order of their first role tuple in :func:`occurrences`.  With
    ``anchor=(u, v)`` only the sets holding both ``u`` and ``v``: the pair sits
    on an edge role of the pattern if uv is an edge of g, else on a non-edge
    role, and the other roles are extended around it.
    """
    out: list[int] = []
    full = g.vertices
    if anchor is None:
        _place(g.adj, _FULL_PLANS[pattern], (full,) * pattern.order, out)
        return out
    u, v = anchor
    pins = (1 << u, 1 << v) + (full,) * (pattern.order - 2)
    for plan in _anchor_plans(pattern, g.has_edge(u, v), u < v):
        _place(g.adj, plan, pins, out)
    return out


def find_induced(g: Graph, pattern: Pattern) -> Optional[tuple[int, ...]]:
    """Canonical (lexicographically smallest, role-ordered) occurrence, or None."""
    return next(occurrences(g, pattern), None)


def is_f_free(g: Graph, patterns: Iterable[Pattern]) -> bool:
    return all(find_induced(g, p) is None for p in patterns)


def complement(g: Graph) -> Graph:
    full = g.vertices
    return Graph(g.n, [full & ~g.adj[v] & ~(1 << v) for v in range(g.n)])


def edges_within(g: Graph, x: int) -> int:
    """Number of edges of g with both endpoints in the set ``x``."""
    return sum((g.adj[v] & x).bit_count() for v in bits(x)) // 2


def non_edges_within(g: Graph, x: int) -> int:
    s = x.bit_count()
    return s * (s - 1) // 2 - edges_within(g, x)


def missing_edges_between(g: Graph, x: int, y: int) -> int:
    if x & y:
        raise ValueError("sets must be disjoint")
    present = sum((g.adj[v] & y).bit_count() for v in bits(x))
    return x.bit_count() * y.bit_count() - present


def edges_between(g: Graph, x: int, y: int) -> int:
    return sum((g.adj[v] & y).bit_count() for v in bits(x))


def components(g: Graph, within: Optional[int] = None) -> list[int]:
    """Connected components (as masks) of the subgraph induced by ``within``."""
    todo = g.vertices if within is None else within
    out = []
    while todo:
        seed = todo & -todo
        comp = seed
        frontier = seed
        while frontier:
            grow = 0
            for v in bits(frontier):
                grow |= g.adj[v]
            grow &= todo & ~comp
            comp |= grow
            frontier = grow
        out.append(comp)
        todo &= ~comp
    return out


def union_neighborhoods(g: Graph, mask: int) -> int:
    out = 0
    for v in bits(mask):
        out |= g.adj[v]
    return out


def parse_graph(text: str | bytes) -> Graph:
    """Parse the edge-list format: header ``n m`` then m lines ``u v``.

    Lines starting with ``#`` and blank lines are ignored.  Malformed input
    raises :class:`GraphFormatError` naming the line number.
    """
    if isinstance(text, bytes):
        text = text.decode()
    header: Optional[tuple[int, int]] = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: header must be 'n m'")
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: header must be 'n m'") from None
            if n < 0 or m < 0:
                raise GraphFormatError(f"line {lineno}: negative counts in header")
            header = (n, m)
            continue
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: expected integer vertex ids") from None
        n = header[0]
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"line {lineno}: vertex id out of range 0..{n - 1}")
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop {u} {v}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphFormatError(f"line {lineno}: duplicate edge {u} {v}")
        seen.add(key)
        edges.append(key)
    if header is None:
        raise GraphFormatError("line 1: missing header")
    if len(edges) != header[1]:
        raise GraphFormatError(
            f"header announced {header[1]} edges but {len(edges)} were given")
    return Graph.from_edges(header[0], edges)


def format_graph(g: Graph, header_comment: Optional[str] = None) -> str:
    lines = []
    if header_comment:
        lines.append(f"# {header_comment}")
    lines.append(f"{g.n} {g.m}")
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def format_solution(solution: Optional[CompletionSet]) -> str:
    """Render the completion-set output format: ``OPT t`` plus pairs, or ``NO``."""
    if solution is None:
        return "NO\n"
    lines = [f"OPT {solution.size}"]
    lines.extend(f"{u} {v}" for u, v in solution.pairs)
    return "\n".join(lines) + "\n"
