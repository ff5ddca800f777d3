"""Recognizers and structural decompositions for the target graph classes.

Covers trivially perfect graphs (with their universal clique decomposition),
split graphs (with split-partition enumeration), threshold graphs, chain
graphs over a fixed bipartition, and pseudosplit graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graph import (
    Graph,
    Pattern,
    bits,
    components,
    find_induced,
    occurrence_masks,
)


class NotTriviallyPerfectError(ValueError):
    """Raised when a decomposition is requested for a non-TP graph.

    Carries a found obstruction (pattern, occurrence tuple) as ``witness``.
    """

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"graph is not trivially perfect; contains {witness}")


class NotSplitError(ValueError):
    pass


def _universal_within(g: Graph, mask: int) -> int:
    """Vertices of ``mask`` adjacent to every other vertex of ``mask``."""
    out = 0
    for v in bits(mask):
        if g.adj[v] & mask == mask & ~(1 << v):
            out |= 1 << v
    return out


def is_trivially_perfect(g: Graph) -> bool:
    """Recognition by universal-vertex peeling, per connected component."""
    stack = components(g)
    while stack:
        comp = stack.pop()
        uni = _universal_within(g, comp)
        if not uni:
            return False
        rest = comp & ~uni
        if rest:
            stack.extend(components(g, rest))
    return True


@dataclass(frozen=True)
class UniversalCliqueDecomposition:
    """Rooted bag forest of a trivially perfect graph.

    ``bags[i]`` is the vertex mask of node ``i``; ``parent[i]`` is the parent
    node index or ``None`` for roots.  Children are ordered by smallest
    contained vertex id, as are the roots, so the structure is canonical.
    """

    bags: tuple[int, ...]
    parent: tuple[Optional[int], ...]

    @property
    def roots(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.parent) if p is None)

    def children(self, node: int) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.parent) if p == node)

    def bag_sets(self) -> set[frozenset[int]]:
        return {frozenset(bits(b)) for b in self.bags}


@dataclass(frozen=True)
class Block:
    """A (bag, subtree) block with its tail, all as vertex masks."""

    bag: int
    subtree: int
    tail: int

    @property
    def is_leaf(self) -> bool:
        return self.bag == self.subtree


def build_ucd(g: Graph) -> UniversalCliqueDecomposition:
    """Peel maximal universal cliques per component into the canonical UCD."""
    bags: list[int] = []
    parent: list[Optional[int]] = []

    def peel(mask: int, par: Optional[int]) -> None:
        uni = _universal_within(g, mask)
        if not uni:
            for pat in (Pattern.C4, Pattern.P4):
                occ = find_induced(g, pat)
                if occ is not None:
                    raise NotTriviallyPerfectError((pat, occ))
            raise NotTriviallyPerfectError(("no universal vertex", mask))
        node = len(bags)
        bags.append(uni)
        parent.append(par)
        rest = mask & ~uni
        for comp in sorted(components(g, rest), key=lambda c: c & -c):
            peel(comp, node)

    for comp in sorted(components(g), key=lambda c: c & -c):
        peel(comp, None)
    return UniversalCliqueDecomposition(tuple(bags), tuple(parent))


def blocks_of(ucd: UniversalCliqueDecomposition) -> list[Block]:
    """One block per UCD node, in node order."""
    n_nodes = len(ucd.bags)
    subtree = list(ucd.bags)
    for i in range(n_nodes - 1, -1, -1):
        p = ucd.parent[i]
        if p is not None:
            subtree[p] |= subtree[i]
    tails = [0] * n_nodes
    for i in range(n_nodes):
        p = ucd.parent[i]
        tails[i] = ucd.bags[i] | (tails[p] if p is not None else 0)
    return [Block(ucd.bags[i], subtree[i], tails[i]) for i in range(n_nodes)]


@dataclass(frozen=True)
class SplitPartition:
    clique: int
    independent: int


def _degree_within(g: Graph, v: int, mask: int) -> int:
    return (g.adj[v] & mask).bit_count()


def _valid_partition(g: Graph, c: int, i: int) -> bool:
    for v in bits(c):
        if c & ~(1 << v) & ~g.adj[v]:
            return False
    for v in bits(i):
        if g.adj[v] & i:
            return False
    return True


def split_partitions_within(g: Graph, mask: int) -> Optional[list[SplitPartition]]:
    """All split partitions of the subgraph induced by ``mask``, or None.

    Starts from the Hammer-Simeone degree-prefix partition and shifts or
    swaps single boundary vertices; any two split partitions differ by at
    most one vertex on each side, so this enumerates all of them.
    """
    verts = sorted(bits(mask), key=lambda v: (-_degree_within(g, v, mask), v))
    degs = [_degree_within(g, v, mask) for v in verts]
    m_size = 0
    for i, d in enumerate(degs):
        if d >= i:
            m_size = i + 1
    c0 = 0
    for v in verts[:m_size]:
        c0 |= 1 << v
    if not _valid_partition(g, c0, mask & ~c0):
        return None
    found = {c0}
    member = list(bits(c0))
    outside = list(bits(mask & ~c0))
    candidates = [c0 & ~(1 << v) for v in member]
    candidates += [c0 | (1 << u) for u in outside]
    candidates += [c0 & ~(1 << v) | (1 << u) for v in member for u in outside]
    for c in candidates:
        if c not in found and _valid_partition(g, c, mask & ~c):
            found.add(c)
    return [SplitPartition(c, mask & ~c) for c in sorted(found)]


def is_split(g: Graph) -> bool:
    return split_partitions_within(g, g.vertices) is not None


def enumerate_split_partitions(g: Graph) -> list[SplitPartition]:
    parts = split_partitions_within(g, g.vertices)
    if parts is None:
        raise NotSplitError("graph is not a split graph")
    return parts


def _nested(g: Graph, independent: int) -> bool:
    order = sorted(bits(independent), key=lambda v: (g.degree(v), v))
    for a, b in zip(order, order[1:]):
        if g.adj[a] & ~g.adj[b]:
            return False
    return True


def is_threshold(g: Graph) -> bool:
    """Split partition with nested independent-side neighborhoods."""
    parts = split_partitions_within(g, g.vertices)
    if parts is None:
        return False
    return any(_nested(g, p.independent) for p in parts)


def is_chain(a_side: int, b_side: int, g: Graph) -> bool:
    """Chain test for a fixed bipartition: A-side neighborhoods nest."""
    if a_side & b_side or (a_side | b_side) != g.vertices:
        raise ValueError("sides must partition the vertex set")
    for v in bits(a_side):
        if g.adj[v] & a_side:
            raise ValueError("A side is not edge-free")
    for v in bits(b_side):
        if g.adj[v] & b_side:
            raise ValueError("B side is not edge-free")
    return _nested(g, a_side)


def is_pseudosplit(g: Graph) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """Pseudosplit test with a witness partition (C, I, X) as masks.

    Split graphs give X = 0; proper pseudosplit graphs give an induced C5 on
    X that is complete to C and anticomplete to I.
    """
    parts = split_partitions_within(g, g.vertices)
    if parts is not None:
        p = parts[0]
        return True, (p.clique, p.independent, 0)
    full = g.vertices
    for x in occurrence_masks(g, Pattern.C5):
        rest = full & ~x
        sub_parts = split_partitions_within(g, rest)
        if sub_parts is None:
            continue
        common = rest
        for v in bits(x):
            common &= g.adj[v]
        touched = 0
        for v in bits(x):
            touched |= g.adj[v] & rest
        for p in sub_parts:
            if p.clique & ~common:
                continue
            if touched & p.independent:
                continue
            return True, (p.clique, p.independent, x)
    return False, None
