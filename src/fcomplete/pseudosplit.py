"""Pseudosplit completion: split-completion attempt, then C5 augmentation.

For each 5-set X whose induced subgraph embeds into a C5, the augmented
instance makes X a clique, adds a forcing set A of budget+2 vertices adjacent
exactly to N[X], and asks for a split completion with budget adjusted by the
edges X is missing from a C5.  A minimal augmented solution converts back by
restoring the C5 edges inside X.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graph import (
    CertificationError,
    CompletionSet,
    Graph,
    bits,
    components,
    edges_within,
)
from .oracles import exact_split_completion
from .recognition import is_pseudosplit, is_split


@dataclass(frozen=True)
class AugmentedInstance:
    graph: Graph
    budget: int
    x_mask: int
    a_mask: int
    base_n: int


def _embeds_in_c5(g: Graph, x_mask: int) -> bool:
    """True when G[X] is a spanning subgraph of some C5 labeling of X."""
    if x_mask.bit_count() != 5:
        return False
    if edges_within(g, x_mask) > 5:
        return False
    for v in bits(x_mask):
        if (g.adj[v] & x_mask).bit_count() > 2:
            return False
    for comp in components(g, x_mask):
        if edges_within(g, comp) >= comp.bit_count():
            # A cycle component embeds only when it is the full C5.
            if comp != x_mask or edges_within(g, comp) != 5:
                return False
    return True


def enumerate_c5_seeds(g: Graph) -> list[int]:
    """All 5-subsets (as masks) embeddable into a C5, in mask order."""
    out = []
    vs = list(range(g.n))
    from itertools import combinations

    for combo in combinations(vs, 5):
        mask = 0
        for v in combo:
            mask |= 1 << v
        if _embeds_in_c5(g, mask):
            out.append(mask)
    return sorted(out)


def c5_supergraph_pairs(g: Graph, x_mask: int) -> list[tuple[int, int]]:
    """A concrete C5 labeling of X extending G[X]; returns its 5 cycle pairs.

    Path components are laid around the cycle in order of smallest endpoint;
    a full C5 component is walked from its smallest vertex.
    """
    if not _embeds_in_c5(g, x_mask):
        raise ValueError("set does not embed into a C5")
    sequences = []
    for comp in sorted(components(g, x_mask), key=lambda c: c & -c):
        inner = edges_within(g, comp)
        verts = list(bits(comp))
        if inner == 0:
            sequences.extend([v] for v in verts)
            continue
        if inner == len(verts):
            start = verts[0]
        else:
            ends = [v for v in verts if (g.adj[v] & comp).bit_count() == 1]
            start = min(ends)
        seq = [start]
        prev = -1
        cur = start
        for _ in range(len(verts) - 1):
            nxt = min(w for w in bits(g.adj[cur] & comp) if w != prev)
            seq.append(nxt)
            prev, cur = cur, nxt
        sequences.append(seq)
    order = [v for seq in sequences for v in seq]
    pairs = []
    for i in range(5):
        u, v = order[i], order[(i + 1) % 5]
        pairs.append((u, v) if u < v else (v, u))
    return sorted(pairs)


def build_augmented_instance(g: Graph, k: int, x_mask: int) -> AugmentedInstance:
    """X made a clique, plus k+2 forcing vertices adjacent exactly to N[X]."""
    if not _embeds_in_c5(g, x_mask):
        raise ValueError("set does not embed into a C5")
    n = g.n
    n2 = n + k + 2
    adj = [g.adj[v] for v in range(n)] + [0] * (k + 2)
    for u in bits(x_mask):
        for v in bits(x_mask & ~((1 << (u + 1)) - 1)):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    closed_x = x_mask
    for v in bits(x_mask):
        closed_x |= g.adj[v]
    a_mask = 0
    for i in range(k + 2):
        w = n + i
        a_mask |= 1 << w
        adj[w] = closed_x
        for v in bits(closed_x):
            adj[v] |= 1 << w
    k2 = k + edges_within(g, x_mask) - 5
    return AugmentedInstance(Graph(n2, adj), k2, x_mask, a_mask, n)


def _minimalize(g: Graph, pairs: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    """Greedy removal to an inclusion-minimal split completion."""
    kept = list(pairs)
    changed = True
    while changed:
        changed = False
        for pair in sorted(kept):
            trial = [p for p in kept if p != pair]
            if is_split(g.add_edges(trial)):
                kept = trial
                changed = True
                break
    return tuple(sorted(kept))


def i_maximal_partitions(g: Graph) -> list[tuple[int, int]]:
    """All I-maximal split partitions of a split graph, as (C, I) masks."""
    from .recognition import enumerate_split_partitions

    out = []
    for p in enumerate_split_partitions(g):
        movable = any((g.adj[v] & p.independent) == 0 for v in bits(p.clique))
        if not movable:
            out.append((p.clique, p.independent))
    return out


def pseudosplit_complete(g: Graph, k: int,
                         trace: Optional[list] = None) -> Optional[CompletionSet]:
    """Minimum pseudosplit completion of size <= k, or None.

    Budgets are tried upward; at each budget the plain split route runs
    first, then the C5 seeds in lexicographic order with early exit.  When
    ``trace`` is given, every minimal augmented solution encountered is
    appended as (instance, minimal pair tuple).
    """
    if k < 0:
        raise ValueError("budget must be non-negative")
    seeds = None
    for budget in range(k + 1):
        direct = exact_split_completion(g, budget)
        if direct is not None:
            if not is_pseudosplit(direct.apply(g))[0]:
                raise CertificationError("split completion is not pseudosplit")
            return direct
        if seeds is None:
            # A seed's C5 deficit is the budget its augmented instance spends
            # up front; seeds it does not fit are skipped before any build.
            seeds = [(x, 5 - edges_within(g, x)) for x in enumerate_c5_seeds(g)]
        for x_mask, deficit in seeds:
            if deficit > budget:
                continue
            aug = build_augmented_instance(g, budget, x_mask)
            sol = exact_split_completion(aug.graph, aug.budget)
            if sol is None:
                continue
            minimal = _minimalize(aug.graph, sol.pairs)
            if trace is not None:
                trace.append((aug, minimal))
            base = g.vertices
            if not all((1 << u) & base and (1 << v) & base for u, v in minimal):
                raise CertificationError(
                    "minimal augmented solution touches a forcing vertex")
            pairs = set(minimal)
            for u, v in c5_supergraph_pairs(g, x_mask):
                if not g.has_edge(u, v):
                    pairs.add((u, v))
            result = CompletionSet(tuple(pairs), "addition")
            if result.size > budget:
                raise CertificationError(
                    f"pseudosplit answer has {result.size} pairs, budget {budget}")
            if not is_pseudosplit(result.apply(g))[0]:
                raise CertificationError("pseudosplit answer is not pseudosplit")
            return result
    return None
