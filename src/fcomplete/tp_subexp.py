"""Trivially perfect completion: an exact root-choice DP and the paper's pipeline.

:func:`tp_complete_dp` is the solver.  A connected trivially perfect graph
has a universal vertex (Wolk, 1962), so for a connected vertex set S: the
vertices U universal in G[S] are universal in every completion and cost
nothing, and f(S) is the sum of f over the components of G[S \\ U];
otherwise some optimal completion H of G[S] has a universal vertex v, and
dropping the H-edges between different components of G[S - v] keeps H
trivially perfect, a supergraph of G[S] and no larger, so
f(S) = min over v of (|S|-1-deg_S(v)) plus the sum of f over those
components.  This is the paper's block recursion (bag X, connected Y) with
the bag grown one root vertex at a time.

:func:`tp_complete` is the paper's pipeline, kept as the reference path:
kernelize (component split), build the candidate maximal cliques of every
completion within budget, derive a block family from candidate triples,
then run the block dynamic program and retrace an optimal edge set.  It
builds one candidate family per kernel component, the near-clique family
(see :func:`near_clique_family`), which contains every maximal clique of a
completion with at most k added edges.  The paper's Type 1-4 recipes
(:func:`enumerate_vital_pmcs`) stay as the reference family that the
superset tests check against; neither solver runs them.  The Type-3/4
enumerators realize their recipes with staged deduplication: the emitted
set only depends on a handful of derived masks, so choices are grouped by
those masks instead of being expanded one by one.  Their raw choice space
is superpolynomial in n at fixed k, so they carry a work cap.
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
    StateCapError,
    bits,
    components,
    edges_between,
    non_edges_within,
    union_neighborhoods,
)
from .recognition import is_trivially_perfect

DEFAULT_WORK_CAP = 5_000_000
STATE_CAP = 1_000_000


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
    internal non-edges, so this family contains all of them (and each pruned
    Type family): the downstream block construction and DP stay exact on it.

    With ``prune_dominated``, a set that some outside vertex is adjacent to
    in full is skipped as the search meets it; such a set is never maximal
    in any supergraph.  The search carries the members' common neighborhood,
    which is exactly the set of such outside vertices.
    """
    fam = CandidateFamily(g.n)
    n = g.n
    adj = g.adj

    def grow(start: int, mask: int, size: int, missing: int, common: int) -> None:
        if mask and not (prune_dominated and common):
            fam.add(mask, "superset")
        for v in range(start, n):
            add_missing = size - (adj[v] & mask).bit_count()
            nm = missing + add_missing
            if nm <= k:
                grow(v + 1, mask | (1 << v), size + 1, nm, common & adj[v])

    grow(0, 0, 0, 0, g.vertices)
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


def build_blocks(candidates: Iterable[int], g: Graph, k: int) -> BlockFamily:
    """Blocks derivable from candidate triples, filtered to connected G[Y].

    Internal shape: Q = Ω1 ∩ Ω2, B = Q \\ Ω3, Y the component of
    G - (Q \\ B) containing B.  Leaf shape: (Ω1 \\ Ω2, same).  Root shape:
    (Ω1 ∩ Ω2, component of G containing it).
    """
    masks = sorted(set(candidates))
    comps = components(g)

    def component_of(mask: int) -> Optional[int]:
        for c in comps:
            if mask & ~c == 0:
                return c
        return None

    inters = set()
    leaves = set()
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


def tp_complete(g: Graph, k: int,
                stats: Optional[dict] = None) -> Optional[CompletionSet]:
    """Minimum trivially perfect completion of size <= k, or None.

    Runs the kernel / family / block / DP pipeline per connected component
    and sums the per-component optima.  Each component's candidate family is
    ``near_clique_family(part, k, prune_dominated=True)``.  ``stats`` gets
    ``value`` (None when nothing fits) and ``elapsed`` on every return.
    """
    if k < 0:
        raise ValueError("budget must be non-negative")
    t0 = time.perf_counter()
    if stats is not None:
        # "fallbacks" is always 0; the benchmark's tracer still reads it.
        stats.update({"n": g.n, "k": k, "family": 0, "blocks": 0,
                      "dp_pairs": 0, "fallbacks": 0, "value": None,
                      "elapsed": None})
    kernel = kernelize(g, k)
    total = 0
    all_pairs: list[tuple[int, int]] = []
    result: Optional[CompletionSet] = None
    for part, ids in kernel.parts:
        fam = near_clique_family(part, k, prune_dominated=True)
        blocks = build_blocks(fam.tags, part, k)
        sol = dp_solve(blocks, part, k)
        if stats is not None:
            stats["family"] += len(fam)
            stats["blocks"] += len(blocks)
            stats["dp_pairs"] += len(sol.table) if sol else 0
        if sol is None or total + sol.value > k:
            break
        total += sol.value
        all_pairs.extend((ids[u], ids[v]) for u, v in sol.completion.pairs)
    else:
        result = CompletionSet(tuple(all_pairs), "addition")
        if not is_trivially_perfect(result.apply(g)):
            raise CertificationError("tp_complete answer is not trivially perfect")
    if stats is not None:
        stats["value"] = None if result is None else total
        stats["elapsed"] = time.perf_counter() - t0
    return result


def tp_complete_dp(g: Graph, k: int,
                   stats: Optional[dict] = None) -> Optional[CompletionSet]:
    """Minimum trivially perfect completion of size <= k, by the root-choice DP.

    Exact (see the module docstring).  The memo holds connected sets without
    a universal vertex; each paid root costs at least one edge, so the DP
    recurses at most min(n, k + 1) deep, but no subexponential bound on the
    number of sets is proved.  It raises :class:`StateCapError` instead of
    storing more than ``STATE_CAP`` sets (or recursing past the interpreter's
    limit).  ``stats`` receives ``n``, ``k``, ``states``, ``value`` (None when
    nothing fits) and ``elapsed``.
    """
    if k < 0:
        raise ValueError("budget must be non-negative")
    t0 = time.perf_counter()
    adj = g.adj
    memo: dict[int, tuple[int, int]] = {}

    def cost(s: int, cap: int) -> int:
        """f(s) of a part s if at most cap, else a lower bound above cap."""
        hit = memo.get(s)
        if hit is not None and (hit[1] >= 0 or hit[0] > cap):
            return hit[0]
        last = s.bit_count() - 1
        order = sorted((last - (adj[v] & s).bit_count(), v) for v in bits(s))
        value, choice = math.inf, -1
        for c, v in order:
            limit = min(cap, value - 1)
            if c > limit:
                value = min(value, c)
                break
            x = c
            for part in _parts(adj, s ^ (1 << v)):
                x += cost(part, limit - x)
                if x > limit:
                    break
            if x < value:
                value, choice = x, (v if x <= cap else -1)
        if hit is None and len(memo) >= STATE_CAP:
            raise StateCapError(f"TP DP exceeded {STATE_CAP} states at budget {k}")
        memo[s] = (value, choice)
        return value

    value = 0
    roots = _parts(adj, g.vertices)
    try:
        for part in roots:
            value += cost(part, k - value)
            if value > k:
                break
    except RecursionError:
        raise StateCapError(f"TP DP recursed too deep at budget {k}") from None
    best: Optional[CompletionSet] = None
    if value <= k:
        pairs = []
        todo = roots
        while todo:
            s = todo.pop()
            v = memo[s][1]
            pairs.extend((v, u) for u in bits(s & ~adj[v] & ~(1 << v)))
            todo.extend(_parts(adj, s ^ (1 << v)))
        best = CompletionSet(tuple(pairs), "addition")
        if best.size != value:
            raise CertificationError(
                f"retrace gave {best.size} pairs, the DP value is {value}")
        if not is_trivially_perfect(best.apply(g)):
            raise CertificationError("tp_complete_dp answer is not trivially perfect")
    if stats is not None:
        stats.update({"n": g.n, "k": k, "states": len(memo),
                      "value": None if best is None else value,
                      "elapsed": time.perf_counter() - t0})
    return best


def _parts(adj: list[int], s: int) -> list[int]:
    """The connected sets without a universal vertex that ``s`` splits into.

    Splits G[s] into components and drops each component's universal
    vertices until no piece has one; single vertices drop out.  The optimum
    of G[s] is the sum of the optima of the parts.  Inline bit loops: this
    is the DP's inner loop.
    """
    out = []
    todo = [s] if s else []
    while todo:
        rest = todo.pop()
        c = frontier = rest & -rest
        while frontier:
            grow = 0
            while frontier:
                low = frontier & -frontier
                grow |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = grow & rest & ~c
            c |= frontier
        if c != rest:
            todo.append(rest ^ c)
        free = 0
        scan = c
        while scan:
            low = scan & -scan
            scan ^= low
            if (adj[low.bit_length() - 1] | low) & c == c:
                free |= low
        if not free:
            out.append(c)
        elif free != c:
            todo.append(c ^ free)
    return out
