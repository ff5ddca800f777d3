"""Pseudosplit completion: one split-completion call, then C5 augmentation.

A pseudosplit graph is split, or splits into a clique C, an independent set
I and an induced C5 on X, complete to C and anticomplete to I.  So a
minimum completion is the split optimum or, for some 5-set X whose induced
subgraph embeds into a C5 (a *seed*), the edges X misses from a C5 (its
*deficit*) plus the optimum of X's augmented instance: X made a clique, a
forcing set A of budget+2 vertices adjacent exactly to N[X], and a split
completion asked for with budget reduced by the deficit.  A minimal
augmented solution converts back by restoring the C5 edges inside X.

Seeds only have to beat the best answer so far, so each is solved once, at a
cap that only shrinks, and a seed whose cheapest possible completion already
exceeds the cap is never built (:func:`_seed_lower_bound`).
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Optional

from .graph import (
    CertificationError,
    CompletionSet,
    Graph,
    Pattern,
    _place,
    _placement_plan,
    bits,
    components,
    edges_within,
    missing_edges_between,
    non_edges_within,
    union_neighborhoods,
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


@functools.cache
def _seed_plans(deficit: int) -> tuple:
    """One placement plan per isomorphism class of the spanning subgraphs of
    C5 with ``5 - deficit`` edges: C5, P5, P4+K1 and P3+K2, ... down to 5K1."""
    plans = []
    seen = set()
    for kept in combinations(Pattern.C5.edges, 5 - deficit):
        canonical = min(tuple(sorted(tuple(sorted((s[i], s[j]))) for i, j in kept))
                        for s in permutations(range(5)))
        if canonical in seen:
            continue
        seen.add(canonical)
        rows = [0] * 5
        for i, j in kept:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        plans.append(_placement_plan(tuple(rows), range(5)))
    return tuple(plans)


def enumerate_c5_seeds(g: Graph, deficit: Optional[int] = None) -> list[int]:
    """5-subsets (as masks) whose induced subgraph embeds into a C5, in mask order.

    With ``deficit`` only those missing exactly that many C5 edges, i.e. with
    ``5 - deficit`` edges inside.  Each induced pattern is placed role by role
    over bitmasks (as in :func:`~fcomplete.graph.occurrence_masks`), so the
    work follows the sets found, not the ``C(n, 5)`` subsets.
    """
    if deficit is not None and not 0 <= deficit <= 5:
        raise ValueError(f"deficit must be in 0..5, got {deficit}")
    out: list[int] = []
    pins = (g.vertices,) * 5
    for d in range(6) if deficit is None else (deficit,):
        for plan in _seed_plans(d):
            _place(g.adj, plan, pins, out)
    return sorted(out)


def _seed_lower_bound(g: Graph, x_mask: int) -> int:
    """Additions any completion with its C5 on X needs.

    Besides X's deficit, every G-neighbour of X outside X lies in the clique
    side, so it must be made complete to X and to the other such neighbours.
    """
    outside = union_neighborhoods(g, x_mask) & ~x_mask
    return (5 - edges_within(g, x_mask) + missing_edges_between(g, x_mask, outside)
            + non_edges_within(g, outside))


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


def _lift(g: Graph, aug: AugmentedInstance, sol: CompletionSet,
          trace: Optional[list]) -> CompletionSet:
    """Convert an augmented solution back: minimalize it, check it avoids
    the forcing vertices, and add X's missing C5 edges."""
    minimal = _minimalize(aug.graph, sol.pairs)
    if trace is not None:
        trace.append((aug, minimal))
    base = g.vertices
    if not all((1 << u) & base and (1 << v) & base for u, v in minimal):
        raise CertificationError(
            "minimal augmented solution touches a forcing vertex")
    pairs = set(minimal)
    for u, v in c5_supergraph_pairs(g, aug.x_mask):
        if not g.has_edge(u, v):
            pairs.add((u, v))
    return CompletionSet(tuple(pairs), "addition")


def pseudosplit_complete(g: Graph, k: int, trace: Optional[list] = None,
                         stats: Optional[dict] = None) -> Optional[CompletionSet]:
    """Minimum pseudosplit completion of size <= k, or None.

    One split call at budget ``k`` gives the split optimum (the oracle
    deepens).  Then the C5 seeds run by deficit, each at most once: its
    augmented instance is built at ``cap``, one below the best answer so far
    (``k`` while there is none), unless :func:`_seed_lower_bound` exceeds
    ``cap``; every answer it yields is better, and lowers ``cap``.  When
    ``trace`` is given, every minimal augmented solution encountered is
    appended as (instance, minimal pair tuple).  ``stats`` (optional dict)
    receives ``seeds`` (seeds listed), ``bounded_out`` (seeds skipped by the
    bound), ``augmented`` (instances built), ``split_calls`` and ``elapsed``.
    """
    if k < 0:
        raise ValueError("budget must be non-negative")
    t0 = time.perf_counter()
    seeds = bounded_out = augmented = split_calls = 0
    if is_pseudosplit(g)[0]:
        best: Optional[CompletionSet] = CompletionSet((), "addition")
        cap = -1
    else:
        best = exact_split_completion(g, k)
        split_calls = 1
        cap = k if best is None else best.size - 1
    deficit = 0
    while deficit <= min(cap, 5):
        found = enumerate_c5_seeds(g, deficit)
        seeds += len(found)
        for x_mask in found:
            if deficit > cap:
                break
            if _seed_lower_bound(g, x_mask) > cap:
                bounded_out += 1
                continue
            aug = build_augmented_instance(g, cap, x_mask)
            augmented += 1
            split_calls += 1
            sol = exact_split_completion(aug.graph, aug.budget)
            if sol is None:
                continue
            best = _lift(g, aug, sol, trace)
            if best.size > cap:
                raise CertificationError(
                    f"pseudosplit answer has {best.size} pairs, cap {cap}")
            cap = best.size - 1
        deficit += 1
    if best is not None and best.size:
        if best.size > k:
            raise CertificationError(
                f"pseudosplit answer has {best.size} pairs, budget {k}")
        if not is_pseudosplit(best.apply(g))[0]:
            raise CertificationError("pseudosplit answer is not pseudosplit")
    if stats is not None:
        stats.update({"seeds": seeds, "bounded_out": bounded_out,
                      "augmented": augmented, "split_calls": split_calls,
                      "elapsed": time.perf_counter() - t0})
    return best
