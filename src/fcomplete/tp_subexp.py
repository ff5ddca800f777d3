"""Trivially perfect completion via vital-PMC enumeration and block DP.

Pipeline: kernelize (component split), enumerate candidate maximal cliques of
minimal completions (Types 1-4), derive a block family from candidate
triples, then run the block dynamic program and retrace an optimal edge set.

The Type-3/4 enumerators realize their recipes with staged deduplication:
the emitted set only depends on a handful of derived masks, so choices are
grouped by those masks instead of being expanded one by one.  Their raw
choice space is superpolynomial in n at fixed k, so all enumerators carry a
work cap; :func:`tp_complete` falls back to the near-clique superset family
when the cap trips (see :func:`near_clique_family` for why that is safe).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .graph import (
    CertificationError,
    CompletionSet,
    Graph,
    bits,
    components,
    edges_between,
    non_edges_within,
    union_neighborhoods,
)
from .recognition import is_trivially_perfect

DEFAULT_WORK_CAP = 5_000_000


class FamilyLimitError(RuntimeError):
    """A candidate-family enumeration exceeded its configured work cap."""


def sqrt_budgets(k: int) -> tuple[int, int]:
    """Rounded set-size bounds: (ceil(sqrt(k)), 2 ceil(sqrt(k)))."""
    s1 = math.isqrt(k)
    if s1 * s1 < k:
        s1 += 1
    return s1, 2 * s1


@dataclass
class CandidateFamily:
    """Deduplicated vertex-set family with a provenance tag per set."""

    host_n: int
    tags: dict[int, str] = field(default_factory=dict)

    def add(self, mask: int, tag: str) -> None:
        self.tags.setdefault(mask, tag)

    def masks(self) -> list[int]:
        return sorted(self.tags)

    def __contains__(self, mask: int) -> bool:
        return mask in self.tags

    def __len__(self) -> int:
        return len(self.tags)


@dataclass(frozen=True)
class BlockFamily:
    """Deduplicated (X, Y) pairs with X ⊆ Y and G[Y] connected."""

    pairs: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair: tuple[int, int]) -> bool:
        if not hasattr(self, "_index"):
            object.__setattr__(self, "_index", frozenset(self.pairs))
        return pair in self._index


def _subsets_upto(universe: int, max_size: int) -> list[int]:
    """All submasks of ``universe`` with at most ``max_size`` bits."""
    elems = list(bits(universe))
    out = [0]
    frontier = [(0, 0)]
    for _ in range(min(max_size, len(elems))):
        nxt = []
        for mask, start in frontier:
            for i in range(start, len(elems)):
                nm = mask | (1 << elems[i])
                out.append(nm)
                nxt.append((nm, i + 1))
        frontier = nxt
    return out


def enumerate_type1(g: Graph, k: int) -> CandidateFamily:
    """All W with |V \\ W| <= 2 ceil(sqrt(k))."""
    _, s2 = sqrt_budgets(k)
    full = g.vertices
    fam = CandidateFamily(g.n)
    for drop in _subsets_upto(full, s2):
        fam.add(full & ~drop, "Type1")
    return fam


def enumerate_type2(g: Graph, k: int) -> CandidateFamily:
    """Closed neighborhoods N[v] padded by up to ceil(sqrt(k)) vertices."""
    s1, _ = sqrt_budgets(k)
    fam = CandidateFamily(g.n)
    pads = _subsets_upto(g.vertices, s1)
    for v in range(g.n):
        base = g.closed(v)
        for pad in pads:
            fam.add(base | pad, "Type2")
    return fam


def _distinct_nv_masks(g: Graph, s1: int) -> list[int]:
    """Distinct values of N(v) ∪ A over v ∈ V and A ⊆ V \\ {v}, |A| <= s1."""
    seen = set()
    for v in range(g.n):
        base = g.adj[v]
        for a in _subsets_upto(g.vertices & ~(1 << v), s1):
            seen.add(base | a)
    return sorted(seen)


class _WorkMeter:
    __slots__ = ("left",)

    def __init__(self, cap: Optional[int]):
        self.left = cap if cap is not None else float("inf")

    def spend(self, amount: int) -> None:
        self.left -= amount
        if self.left < 0:
            raise FamilyLimitError(
                "candidate enumeration exceeded its work cap; "
                "raise the cap or use the near-clique family")


def _disjoint_w23(g: Graph, s2: int):
    full = g.vertices
    for w2 in _subsets_upto(full, s2):
        for w3 in _subsets_upto(full & ~w2, s2):
            yield w2, w3


def _nw1_values(g: Graph, forbidden: int, s2: int, cache: dict) -> list[int]:
    """Distinct N(W1) over W1 disjoint from ``forbidden``, |W1| <= s2."""
    got = cache.get(forbidden)
    if got is None:
        vals = set()
        for w1 in _subsets_upto(g.vertices & ~forbidden, s2):
            vals.add(union_neighborhoods(g, w1) & ~w1)
        got = sorted(vals)
        cache[forbidden] = got
    return got


def enumerate_type3(g: Graph, k: int, work_cap: Optional[int] = DEFAULT_WORK_CAP) -> CandidateFamily:
    """Emit N(W1) ∪ N(W2) ∪ N(W3 ∪ (N[W2] \\ N_v)) ∪ W3 over all choices.

    Choices: disjoint W1, W2, W3 of size <= 2 ceil(sqrt(k)); a vertex v and a
    pad A of size <= ceil(sqrt(k)) with N_v = N(v) ∪ A.  Enumeration is
    grouped by the derived masks so equal emissions are produced once.
    """
    s1, s2 = sqrt_budgets(k)
    meter = _WorkMeter(work_cap)
    nvs = _distinct_nv_masks(g, s1)
    fam = CandidateFamily(g.n)
    nw1_cache: dict[int, list[int]] = {}
    for w2, w3 in _disjoint_w23(g, s2):
        un2 = union_neighborhoods(g, w2)
        n2 = un2 & ~w2
        nn2 = un2 | w2
        parts = set()
        meter.spend(len(nvs))
        for nv in nvs:
            t = nn2 & ~nv
            u = w3 | t
            parts.add(n2 | (union_neighborhoods(g, u) & ~u) | w3)
        n1s = _nw1_values(g, w2 | w3, s2, nw1_cache)
        meter.spend(len(parts) * len(n1s))
        for part in parts:
            for n1 in n1s:
                fam.add(part | n1, "Type3")
    return fam


def enumerate_type4(g: Graph, k: int, work_cap: Optional[int] = DEFAULT_WORK_CAP) -> CandidateFamily:
    """Type-4 recipe: (N_{v1} ∩ N_{v2}) joined with the Type-3 style terms.

    Iterates (W1, W2, W3, v1, A1, v2, A2); the pair (v2, A2) only enters
    through the intersection N_{v1} ∩ N_{v2}, so those intersections are
    precomputed per distinct N_{v1} mask.
    """
    s1, s2 = sqrt_budgets(k)
    meter = _WorkMeter(work_cap)
    nvs = _distinct_nv_masks(g, s1)
    inter = {nv1: sorted({nv1 & nv2 for nv2 in nvs}) for nv1 in nvs}
    meter.spend(len(nvs) * len(nvs))
    fam = CandidateFamily(g.n)
    nw1_cache: dict[int, list[int]] = {}
    for w2, w3 in _disjoint_w23(g, s2):
        un2 = union_neighborhoods(g, w2)
        n2 = un2 & ~w2
        nn2 = un2 | w2
        parts = set()
        for nv1 in nvs:
            t = nn2 & ~nv1
            u = w3 | t
            mid = n2 | (union_neighborhoods(g, u) & ~u) | w3
            ps = inter[nv1]
            meter.spend(len(ps))
            for p in ps:
                parts.add(mid | p)
        n1s = _nw1_values(g, w2 | w3, s2, nw1_cache)
        meter.spend(len(parts) * len(n1s))
        for part in parts:
            for n1 in n1s:
                fam.add(part | n1, "Type4")
    return fam


def near_clique_family(g: Graph, k: int, prune_dominated: bool = False) -> CandidateFamily:
    """All non-empty vertex sets with at most k internal non-edges.

    Every maximal clique of a completion with <= k added edges has at most k
    internal non-edges, and each pruned Type family is contained in this one,
    so it is a certified superset of the recipe family: the downstream block
    construction and DP stay exact on it.

    With ``prune_dominated``, sets having an outside vertex adjacent to all
    members are dropped; such a set is never maximal in any supergraph.
    """
    fam = CandidateFamily(g.n)
    n = g.n
    adj = g.adj
    full = g.vertices

    def grow(start: int, mask: int, size: int, missing: int) -> None:
        if mask:
            fam.add(mask, "superset")
        for v in range(start, n):
            add_missing = size - (adj[v] & mask).bit_count()
            nm = missing + add_missing
            if nm <= k:
                grow(v + 1, mask | (1 << v), size + 1, nm)

    grow(0, 0, 0, 0)
    if prune_dominated:
        kept = {}
        for mask, tag in fam.tags.items():
            dominated = False
            for v in bits(full & ~mask):
                if adj[v] & mask == mask:
                    dominated = True
                    break
            if not dominated:
                kept[mask] = tag
        fam.tags = kept
    return fam


def enumerate_vital_pmcs(g: Graph, k: int,
                         work_cap: Optional[int] = DEFAULT_WORK_CAP) -> CandidateFamily:
    """Union of Types 1-4, pruned to non-empty sets with <= k non-edges.

    When n <= 2 ceil(sqrt(k)) + 1, Type 1 already contains every non-empty
    vertex set, so the pruned union equals the pruned Type-1 family and the
    Type-2/3/4 sweeps are skipped (the result is identical).
    """
    _, s2 = sqrt_budgets(k)
    fam = CandidateFamily(g.n)
    if g.n <= s2 + 1:
        for mask in near_clique_family(g, k).tags:
            fam.add(mask, "Type1")
        return fam
    merged = CandidateFamily(g.n)
    for sub in (enumerate_type1(g, k), enumerate_type2(g, k),
                enumerate_type3(g, k, work_cap), enumerate_type4(g, k, work_cap)):
        for mask, tag in sub.tags.items():
            merged.add(mask, tag)
    for mask, tag in merged.tags.items():
        if mask and non_edges_within(g, mask) <= k:
            fam.add(mask, tag)
    return fam


def build_blocks(candidates: Iterable[int], g: Graph, k: int,
                 work_cap: Optional[int] = DEFAULT_WORK_CAP) -> BlockFamily:
    """Blocks derivable from candidate triples, filtered to connected G[Y].

    Internal shape: Q = Ω1 ∩ Ω2, B = Q \\ Ω3, Y the component of
    G - (Q \\ B) containing B.  Leaf shape: (Ω1 \\ Ω2, same).  Root shape:
    (Ω1 ∩ Ω2, component of G containing it).
    """
    masks = sorted(set(candidates))
    meter = _WorkMeter(work_cap)
    comps = components(g)

    def component_of(mask: int) -> Optional[int]:
        for c in comps:
            if mask & ~c == 0:
                return c
        return None

    inters = set()
    leaves = set()
    meter.spend(len(masks) * len(masks))
    for m1 in masks:
        for m2 in masks:
            q = m1 & m2
            if q:
                inters.add(q)
            b = m1 & ~m2
            if b:
                leaves.add(b)
    pairs = set()
    for b in leaves:
        if len(components(g, b)) == 1:
            pairs.add((b, b))
    for b in inters:
        comp = component_of(b)
        if comp is not None:
            pairs.add((b, comp))
    seen_bd = set()
    meter.spend(len(inters) * len(masks))
    for q in inters:
        for m3 in masks:
            b = q & ~m3
            if not b:
                continue
            cut = q & m3
            key = (b, cut)
            if key in seen_bd:
                continue
            seen_bd.add(key)
            avail = g.vertices & ~cut
            start = b & -b
            comp = start
            frontier = start
            while frontier:
                grow = 0
                for v in bits(frontier):
                    grow |= g.adj[v]
                grow &= avail & ~comp
                comp |= grow
                frontier = grow
            if b & ~comp == 0:
                pairs.add((b, comp))
    return BlockFamily(tuple(sorted(pairs)))


@dataclass
class DpSolution:
    value: int
    table: dict[tuple[int, int], int]
    completion: CompletionSet


def dp_solve(blocks: BlockFamily, g: Graph, k: int) -> Optional[DpSolution]:
    """Bottom-up block DP; returns the optimum with a retraced edge set.

    Costs saturate at k+1 (standing for +infinity).  A pair (X, Y) costs the
    missing edges inside X, the missing X-to-(Y\\X) edges, and the best
    sub-block per connected component of G[Y \\ X].
    """
    table: dict[tuple[int, int], int] = {}
    best_by_y: dict[int, tuple[int, tuple[int, int]]] = {}
    choice: dict[tuple[int, int], list[tuple[int, int]]] = {}
    ordered = sorted(blocks.pairs, key=lambda p: (p[1].bit_count(), p[1], p[0]))
    for x, y in ordered:
        if x & ~y:
            continue
        cost = non_edges_within(g, x)
        chosen: list[tuple[int, int]] = []
        if x != y:
            rest = y & ~x
            cost += x.bit_count() * rest.bit_count() - edges_between(g, x, rest)
            if cost > k:
                continue
            ok = True
            for comp in components(g, rest):
                got = best_by_y.get(comp)
                if got is None:
                    ok = False
                    break
                cost += got[0]
                chosen.append(got[1])
                if cost > k:
                    ok = False
                    break
            if not ok:
                continue
        if cost > k:
            continue
        table[(x, y)] = cost
        choice[(x, y)] = chosen
        cur = best_by_y.get(y)
        if cur is None or cost < cur[0]:
            best_by_y[y] = (cost, (x, y))
    total = 0
    roots = []
    for comp in components(g):
        got = best_by_y.get(comp)
        if got is None:
            return None
        total += got[0]
        roots.append(got[1])
        if total > k:
            return None
    pairs: list[tuple[int, int]] = []
    stack = list(roots)
    while stack:
        x, y = stack.pop()
        xs = list(bits(x))
        for i, u in enumerate(xs):
            for v in xs[i + 1:]:
                if not g.has_edge(u, v):
                    pairs.append((u, v))
        rest = y & ~x
        for u in bits(x):
            for v in bits(rest & ~g.adj[u]):
                pairs.append((u, v) if u < v else (v, u))
        stack.extend(choice[(x, y)])
    completion = CompletionSet(tuple(pairs), "addition")
    if completion.size != total:
        raise CertificationError(
            f"retraced completion has {completion.size} pairs, DP value {total}")
    return DpSolution(total, table, completion)


@dataclass
class Kernel:
    """Component-split kernel: sub-instances plus identity back-mapping."""

    parts: tuple[tuple[Graph, tuple[int, ...]], ...]
    k: int


def kernelize(g: Graph, k: int) -> Kernel:
    """Split into connected components and drop those already TP."""
    parts = []
    for comp in components(g):
        sub, ids = g.induced(comp)
        if not is_trivially_perfect(sub):
            parts.append((sub, ids))
    return Kernel(tuple(parts), k)


def fill_profile(g: Graph, completion: CompletionSet) -> tuple[int, ...]:
    """Per-vertex count of completion edges incident to each vertex."""
    fills = [0] * g.n
    for u, v in completion.pairs:
        fills[u] += 1
        fills[v] += 1
    return tuple(fills)


def tp_complete(g: Graph, k: int, work_cap: Optional[int] = DEFAULT_WORK_CAP,
                on_cap: str = "fallback",
                stats: Optional[dict] = None) -> Optional[CompletionSet]:
    """Minimum trivially perfect completion of size <= k, or None.

    Runs the kernel / enumerate / DP pipeline per connected component and
    sums the per-component optima.  When the Type-3/4 work cap trips and
    ``on_cap`` is ``"fallback"``, the component is solved over the
    near-clique superset family instead (still exact); with ``"error"`` the
    :class:`FamilyLimitError` propagates.
    """
    if k < 0:
        raise ValueError("budget must be non-negative")
    t0 = time.perf_counter()
    if stats is not None:
        stats.update({"n": g.n, "k": k, "c1": 0, "c2": 0, "c3": 0, "c4": 0,
                      "family": 0, "blocks": 0, "dp_pairs": 0,
                      "fallbacks": 0, "value": None, "elapsed": None})
    kernel = kernelize(g, k)
    total = 0
    all_pairs: list[tuple[int, int]] = []
    for part, ids in kernel.parts:
        try:
            fam = enumerate_vital_pmcs(part, k, work_cap)
        except FamilyLimitError:
            if on_cap != "fallback":
                raise
            fam = near_clique_family(part, k, prune_dominated=True)
            if stats is not None:
                stats["fallbacks"] += 1
        blocks = build_blocks(fam.tags, part, k, work_cap=None)
        sol = dp_solve(blocks, part, k)
        if stats is not None:
            for tag, key in (("Type1", "c1"), ("Type2", "c2"),
                             ("Type3", "c3"), ("Type4", "c4")):
                stats[key] += sum(1 for t in fam.tags.values() if t == tag)
            stats["family"] += len(fam)
            stats["blocks"] += len(blocks)
            stats["dp_pairs"] += len(sol.table) if sol else 0
        if sol is None:
            return None
        total += sol.value
        if total > k:
            return None
        all_pairs.extend((ids[u], ids[v]) for u, v in sol.completion.pairs)
    result = CompletionSet(tuple(all_pairs), "addition")
    if not is_trivially_perfect(result.apply(g)):
        raise CertificationError("tp_complete answer is not trivially perfect")
    if stats is not None:
        stats["value"] = total
        stats["elapsed"] = time.perf_counter() - t0
    return result


def format_stats(stats: dict) -> str:
    """Render a stats dict as the key=value text block used by the CLI."""
    keys = ["n", "k", "c1", "c2", "c3", "c4", "family", "blocks",
            "dp_pairs", "fallbacks", "value", "elapsed"]
    lines = []
    for key in keys:
        if key in stats:
            val = stats[key]
            if isinstance(val, float):
                val = f"{val:.3f}"
            lines.append(f"{key}={val}")
    lines.extend(f"{k}={v}" for k, v in stats.items() if k not in keys)
    return "\n".join(lines) + "\n"
