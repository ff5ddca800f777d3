"""Threshold completion: an exact vertex-peeling DP and the paper's coloring path.

``threshold_complete`` is the solver.  It rests on Chvatal and Hammer (1977):
a graph is threshold exactly when every induced subgraph has an isolated or
a dominating vertex.  For a vertex set S, a vertex isolated or universal in
G[S] is peeled at no cost; otherwise every completion of G[S] has a
dominating vertex v, which costs its |S|-1-deg_S(v) missing edges, so
f(S) = min over v of (|S|-1-deg_S(v)) + f(S - v).  The DP memoizes f on the
peeled sets under a budget cap and retraces the paid vertices.

``threshold_complete_coloring`` is the paper's chromatic-coding algorithm,
kept as the reference path.  The colorings are used only through the class
partitions they induce, each taken once.  Per class partition: every class
must induce a split graph; the cross product of per-class split partitions
yields global (C, I) candidates, each finished by making C a clique and
nesting the I-to-C neighborhoods with the exact chain-completion DP.
Exhaustive coloring mode is exact; randomized mode is exact whenever some
sampled coloring properly colors an optimal solution.
"""

from __future__ import annotations

import math
import random
import time
from typing import Iterator, Optional

from .graph import (
    CertificationError,
    CompletionSet,
    Graph,
    bits,
    non_edges_within,
)
from .oracles import exact_chain_completion
from .recognition import SplitPartition, is_threshold, split_partitions_within
from .tp_subexp import sqrt_budgets

EXHAUSTIVE_GUARD = 10 ** 6
ASSEMBLY_CAP = 5_000_000
STATE_CAP = 1_000_000


class ColoringGuardError(ValueError):
    """Exhaustive family would exceed the guard; suggests randomized mode."""


class StateCapError(RuntimeError):
    """The peeling DP would store more than ``STATE_CAP`` vertex sets."""


def threshold_complete(g: Graph, k: int,
                       stats: Optional[dict] = None) -> Optional[CompletionSet]:
    """Minimum threshold completion of size <= k, by the vertex-peeling DP.

    Exact.  Each paid peel costs at least one edge, so the DP visits at most
    min(2^n, sum_{i <= k} C(n, i)) peeled sets and recurses at most
    min(n, k + 1) deep; it raises :class:`StateCapError` instead of storing
    more than ``STATE_CAP`` sets (or recursing past the interpreter's limit).
    ``stats`` receives ``states``, ``exact`` (always true) and ``elapsed``,
    and the coloring engine's counters at 0.
    """
    if k < 0:
        raise ValueError("budget must be non-negative")
    t0 = time.perf_counter()
    adj = g.adj
    memo: dict[int, tuple[int, int]] = {}

    def cost(s: int, cap: int) -> int:
        """f(s) of a peeled s if at most cap, else a lower bound above cap."""
        if not s:
            return 0
        hit = memo.get(s)
        if hit is not None and (hit[1] >= 0 or hit[0] > cap):
            return hit[0]
        last = s.bit_count() - 1
        order = []
        # removing v leaves a vertex free exactly when it was a degree-1
        # neighbour of v or a degree-(|s|-2) non-neighbour of v
        ones = tight = 0
        for v in bits(s):
            d = (adj[v] & s).bit_count()
            order.append((last - d, v))
            if d == 1:
                ones |= 1 << v
            elif d == last - 1:
                tight |= 1 << v
        order.sort()
        value, choice = math.inf, -1
        for c, v in order:
            limit = min(cap, value - 1)
            if c > limit:
                value = min(value, c)
                break
            rest = s ^ (1 << v)
            if ones & adj[v] or tight & rest & ~adj[v]:
                rest = _peel(adj, rest)
            x = c + cost(rest, limit - c)
            if x < value:
                value, choice = x, (v if x <= cap else -1)
        if hit is None and len(memo) >= STATE_CAP:
            raise StateCapError(
                f"threshold DP exceeded {STATE_CAP} states at budget {k}")
        memo[s] = (value, choice)
        return value

    try:
        value = cost(_peel(adj, g.vertices), k)
    except RecursionError:
        raise StateCapError(
            f"threshold DP recursed too deep at budget {k}") from None
    best: Optional[CompletionSet] = None
    if value <= k:
        pairs = []
        s = _peel(adj, g.vertices)
        while s:
            v = memo[s][1]
            pairs.extend((v, u) for u in bits(s & ~adj[v] & ~(1 << v)))
            s = _peel(adj, s & ~(1 << v))
        best = CompletionSet(tuple(pairs), "addition")
        if best.size != value:
            raise CertificationError(
                f"retrace gave {best.size} pairs, the DP value is {value}")
        _certify(g, best, k)
    if stats is not None:
        stats.update({"states": len(memo), "exact": True, "colorings": 0,
                      "assemblies": 0, "pairs_tested": 0,
                      "elapsed": time.perf_counter() - t0})
    return best


def _peel(adj: list[int], s: int) -> int:
    """Drop the vertices isolated or universal in G[s] until none is left.

    With two or more vertices, G[s] cannot have both kinds at once, so each
    round drops all of one kind together.
    """
    while s:
        free, rest = 0, s
        while rest:
            low = rest & -rest
            rest ^= low
            near = adj[low.bit_length() - 1] & s
            if not near or near | low == s:
                free |= low
        if not free:
            break
        s ^= free
    return s


def _certify(g: Graph, best: CompletionSet, k: int) -> None:
    if best.size > k:
        raise CertificationError(
            f"threshold answer has {best.size} pairs, budget {k}")
    if not is_threshold(best.apply(g)):
        raise CertificationError("threshold answer is not threshold")


def default_color_count(k: int, mode: str = "exhaustive") -> int:
    t = max(1, sqrt_budgets(k)[1])
    if mode == "randomized":
        t = max(2, t)
    return t


def default_trials(k: int, t: int) -> int:
    """Trials so a fixed k-edge solution is properly colored w.p. >= 0.99.

    A graph with k edges is d-degenerate for d = floor((sqrt(8k+1)-1)/2);
    coloring vertices in degeneracy order, each of the <= k vertices with a
    colored back-neighbor survives with probability >= 1 - d/t, so one
    uniform coloring is proper with probability >= (1 - d/t)^k.
    """
    if k <= 0:
        return 1
    d = int((math.isqrt(8 * k + 1) - 1) // 2)
    if d >= t:
        raise ValueError("color count too small for the budget")
    p = (1.0 - d / t) ** k
    return max(1, math.ceil(math.log(0.01) / math.log(1.0 - p)))


def class_partitions(n: int, k: int, mode: str = "exhaustive",
                     trials: Optional[int] = None,
                     seed: int = 0) -> Iterator[tuple[int, ...]]:
    """Distinct class partitions of 0..n-1 induced by the coloring family.

    Each partition is a sorted tuple of non-empty class masks and comes out
    once.  The family uses ``default_color_count(k, mode)`` colors t:
    ``exhaustive`` covers all t^n colorings and raises
    :class:`ColoringGuardError` when t^n exceeds ``EXHAUSTIVE_GUARD``;
    ``randomized`` draws ``trials`` seeded uniform colorings (default
    ``default_trials(k, t)``; a given count must be at least 1).  Mode,
    trials and guard are checked here, before the first partition is drawn.
    """
    if mode not in ("exhaustive", "randomized"):
        raise ValueError(f"bad mode {mode!r}")
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    t = default_color_count(k, mode)
    if mode == "exhaustive":
        if t ** n > EXHAUSTIVE_GUARD:
            raise ColoringGuardError(
                f"{t}^{n} colorings exceed the exhaustive guard; "
                "use randomized mode")
        return _set_partitions_upto(n, t)
    if trials is None:
        trials = default_trials(k, t)
    return _random_partitions(n, t, trials, seed)


def _set_partitions_upto(n: int, t: int) -> Iterator[tuple[int, ...]]:
    """Set partitions of 0..n-1 into at most t blocks, as mask tuples.

    These are exactly the class partitions induced by the t^n exhaustive
    colorings, enumerated once each (restricted growth strings).
    """
    if n == 0:
        yield ()
        return
    rgs = [0] * n

    def rec(i: int, used: int):
        if i == n:
            masks = [0] * used
            for v, c in enumerate(rgs):
                masks[c] |= 1 << v
            yield tuple(sorted(masks))
            return
        for c in range(min(used + 1, t)):
            rgs[i] = c
            yield from rec(i + 1, max(used, c + 1))

    yield from rec(1, 1)


def _random_partitions(n: int, t: int, trials: int,
                       seed: int) -> Iterator[tuple[int, ...]]:
    """Class partitions of ``trials`` seeded colorings, first draw only.

    Coloring after coloring, vertex after vertex, each color is one
    ``randrange(t)`` call, so a seed always gives the same sequence.
    """
    rng = random.Random(seed)
    seen = set()
    for _ in range(trials):
        classes = [0] * t
        for v in range(n):
            classes[rng.randrange(t)] |= 1 << v
        key = tuple(sorted(m for m in classes if m))
        if key not in seen:
            seen.add(key)
            yield key


def _clique_sides(g: Graph, per_class: list[list[SplitPartition]],
                  budget: int) -> tuple[list[int], int]:
    """Clique sides of the cross product of per-class split partitions.

    A choice whose joint independent side has an edge is pruned at once.
    Every step spends one unit of ``budget``; returns the clique sides and
    the budget left, or raises :class:`ColoringGuardError` when it runs out.
    """
    sides: list[int] = []

    def expand(i: int, c_acc: int, i_acc: int) -> None:
        nonlocal budget
        if budget <= 0:
            raise ColoringGuardError("assembly cross product exceeded cap")
        if i == len(per_class):
            sides.append(c_acc)
            return
        for p in per_class[i]:
            ni = i_acc | p.independent
            if _has_internal_edge(g, ni):
                continue
            budget -= 1
            expand(i + 1, c_acc | p.clique, ni)

    expand(0, 0, 0)
    return sides, budget


def _has_internal_edge(g: Graph, mask: int) -> bool:
    for v in bits(mask):
        if g.adj[v] & mask:
            return True
    return False


def threshold_complete_coloring(
        g: Graph, k: int, mode: str = "exhaustive",
        trials: Optional[int] = None, seed: int = 0,
        stats: Optional[dict] = None) -> Optional[CompletionSet]:
    """The paper's chromatic-coding algorithm; reference for the DP.

    Minimum threshold completion of size <= k found through the colorings.
    Exact in exhaustive mode; in randomized mode exact when lucky (the
    ``exact`` stats flag records which guarantee applies).  Additions go
    inside C and from I to C only.  The cross product over all class
    partitions is capped at ``ASSEMBLY_CAP`` steps.
    """
    if k < 0:
        raise ValueError("budget must be non-negative")
    t0 = time.perf_counter()
    if stats is not None:
        stats.update({"colorings": 0, "assemblies": 0, "pairs_tested": 0,
                      "exact": mode == "exhaustive", "best_trace": []})
    if is_threshold(g):
        if stats is not None:
            stats["elapsed"] = time.perf_counter() - t0
        return CompletionSet((), "addition")
    partitions = class_partitions(g.n, k, mode, trials, seed)
    best: Optional[CompletionSet] = None
    seen_cliques: set[int] = set()
    split_cache: dict[int, Optional[list[SplitPartition]]] = {}
    budget_left = ASSEMBLY_CAP
    for class_masks in partitions:
        if stats is not None:
            stats["colorings"] += 1
        per_class = []
        for mask in class_masks:
            parts = split_cache.get(mask, False)
            if parts is False:
                parts = split_partitions_within(g, mask)
                split_cache[mask] = parts
            if parts is None:
                break
            per_class.append(parts)
        if len(per_class) < len(class_masks):
            continue
        sides, budget_left = _clique_sides(g, per_class, budget_left - 1)
        for c_mask in sides:
            if stats is not None:
                stats["assemblies"] += 1
            if c_mask in seen_cliques:
                continue
            seen_cliques.add(c_mask)
            clique_cost = non_edges_within(g, c_mask)
            cap = k if best is None else best.size - 1
            if clique_cost > cap:
                continue
            if stats is not None:
                stats["pairs_tested"] += 1
            i_mask = g.vertices & ~c_mask
            chain = exact_chain_completion(i_mask, c_mask,
                                           _cross_subgraph(g, i_mask, c_mask),
                                           cap - clique_cost)
            if chain is None:
                continue
            best = CompletionSet(chain.pairs + tuple(_missing_within(g, c_mask)),
                                 "addition")
            if best.size != clique_cost + chain.size:
                raise CertificationError(
                    f"candidate has {best.size} pairs, expected {clique_cost} "
                    f"inside C plus {chain.size} from I to C")
            if stats is not None:
                stats["best_trace"].append(best.size)
    if best is not None:
        _certify(g, best, k)
    if stats is not None:
        stats["elapsed"] = time.perf_counter() - t0
    return best


def _cross_subgraph(g: Graph, i_mask: int, c_mask: int) -> Graph:
    """Bipartite subgraph keeping only the I-to-C edges."""
    adj = [0] * g.n
    for v in bits(i_mask):
        adj[v] = g.adj[v] & c_mask
    for v in bits(c_mask):
        adj[v] = g.adj[v] & i_mask
    return Graph(g.n, adj)


def _missing_within(g: Graph, mask: int):
    vs = list(bits(mask))
    for i, u in enumerate(vs):
        for v in vs[i + 1:]:
            if not g.has_edge(u, v):
                yield (u, v)
