"""Exact reference solvers.

* :func:`exact_completion` - bounded search tree (Cai-style branching) for any
  finite obstruction family, in addition or deletion mode.
* :func:`exact_chain_completion` - exact chain completion over a fixed
  bipartition by subset dynamic programming.
* :func:`exact_split_completion` - split completion via branching on
  {2K2, C4, C5}.
* :func:`enumerate_minimal_completions` / :func:`minimal_solutions_within` -
  enumerators of inclusion-minimal solutions, used as test harnesses.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Optional

from .graph import (
    CertificationError,
    CompletionSet,
    Graph,
    Pattern,
    bits,
    is_f_free,
    occurrences,
)

# Subset-DP guard: the chain solver is exponential in |A|.
_CHAIN_SIDE_LIMIT = 22

# Guard for the subset-scan enumerator of minimal completions.
_SCAN_NON_EDGE_LIMIT = 24


def _sorted_patterns(patterns: Iterable[Pattern]) -> tuple[Pattern, ...]:
    return tuple(sorted(set(patterns), key=lambda p: (p.order, p.value)))


def _branch_pairs(pattern: Pattern, occ: tuple[int, ...], mode: str):
    """Vertex pairs whose edit destroys this occurrence."""
    roles = pattern.non_edges if mode == "addition" else pattern.edges
    out = []
    for i, j in roles:
        u, v = occ[i], occ[j]
        out.append((u, v) if u < v else (v, u))
    out.sort()
    return out


def _pack_obstructions(g: Graph, patterns, mode: str, stop_above: int):
    """Greedy packing of obstructions with disjoint branch-pair sets.

    Returns ``(branch_pairs, count)``: the canonical obstruction's branch
    pairs ordered most-frequently-hit first (ties lexicographic), or None
    when g is F-free, plus a packing count.  Every solution must edit at
    least one pair of each packed obstruction, so ``count`` lower-bounds the
    remaining edit distance.  Packing stops once it exceeds ``stop_above``.
    """
    first = None
    used: set[tuple[int, int]] = set()
    freq: dict[tuple[int, int], int] = {}
    count = 0
    visits = 40 + 8 * stop_above
    for pattern in patterns:
        for occ in occurrences(g, pattern):
            pairs = _branch_pairs(pattern, occ, mode)
            if first is None:
                first = pairs
                for p in pairs:
                    freq[p] = 0
            for p in pairs:
                if p in freq:
                    freq[p] += 1
            visits -= 1
            if not any(p in used for p in pairs):
                used.update(pairs)
                count += 1
                if count > stop_above:
                    visits = 0
            if visits <= 0:
                break
        if visits <= 0 and first is not None:
            break
    if first is not None:
        first = sorted(first, key=lambda p: (-freq[p], p))
    return first, count


def _pair_bit(n: int, u: int, v: int) -> int:
    return 1 << (u * n + v)


def exact_completion(g: Graph, patterns: Iterable[Pattern], k: int,
                     mode: str = "addition") -> Optional[CompletionSet]:
    """Minimum edit set of size <= k making g F-free, or None.

    Iterative deepening over the budget guarantees the first success is a
    minimum.  Branching always follows the canonical (lexicographically
    smallest) obstruction, so search trees are reproducible.
    """
    pats = _sorted_patterns(patterns)
    if not pats:
        raise ValueError("obstruction family must be non-empty")
    for p in pats:
        if mode == "addition" and not p.non_edges:
            raise ValueError(f"pattern {p.value} has no non-edges")
        if mode == "deletion" and not p.edges:
            raise ValueError(f"pattern {p.value} has no edges")
    if k < 0:
        raise ValueError("budget must be non-negative")
    n = g.n

    def dfs(cur: Graph, rem: int, key: int, seen: set[int]):
        pairs, lower = _pack_obstructions(cur, pats, mode, rem)
        if pairs is None:
            return []
        if lower > rem:
            return None
        for u, v in pairs:
            bit = _pair_bit(n, u, v)
            nkey = key | bit
            if nkey in seen:
                continue
            seen.add(nkey)
            nxt = cur.add_edges([(u, v)]) if mode == "addition" else cur.remove_edges([(u, v)])
            sub = dfs(nxt, rem - 1, nkey, seen)
            if sub is not None:
                return [(u, v)] + sub
        return None

    for budget in range(k + 1):
        res = dfs(g, budget, 0, set())
        if res is not None:
            return CompletionSet(tuple(res), mode)
    return None


def minimal_solutions_within(g: Graph, patterns: Iterable[Pattern], k: int,
                             mode: str = "addition") -> list[CompletionSet]:
    """All inclusion-minimal edit sets of size <= k, via complete branching.

    Unlike :func:`enumerate_minimal_completions` this does not scan subsets,
    so it handles larger graphs (gadget-scale) as long as k stays small.
    """
    pats = _sorted_patterns(patterns)
    n = g.n
    found: set[tuple[tuple[int, int], ...]] = set()
    seen: set[int] = set()

    def dfs(cur: Graph, rem: int, key: int, acc: tuple[tuple[int, int], ...]):
        pairs, lower = _pack_obstructions(cur, pats, mode, rem)
        if pairs is None:
            found.add(tuple(sorted(acc)))
            return
        if lower > rem:
            return
        for u, v in pairs:
            bit = _pair_bit(n, u, v)
            nkey = key | bit
            if nkey in seen:
                continue
            seen.add(nkey)
            nxt = cur.add_edges([(u, v)]) if mode == "addition" else cur.remove_edges([(u, v)])
            dfs(nxt, rem - 1, nkey, acc + ((u, v),))

    dfs(g, k, 0, ())
    minimal = []
    sets = [frozenset(s) for s in found]
    for i, s in enumerate(sets):
        if not any(o < s for o in sets):
            minimal.append(CompletionSet(tuple(sets[i]), mode))
    return sorted(minimal, key=lambda c: (c.size, c.pairs))


def exact_split_completion(g: Graph, k: int) -> Optional[CompletionSet]:
    """Minimum split completion by branching on {2K2, C4, C5}."""
    return exact_completion(g, (Pattern.TWO_K2, Pattern.C4, Pattern.C5), k)


def exact_chain_completion(a_side: int, b_side: int, g: Graph,
                           k: int) -> Optional[CompletionSet]:
    """Minimum additions nesting the A-side neighborhoods, by subset DP.

    Over subsets S of the A side: f(S) = min over a in S of
    f(S - a) + |union of N(b) for b in S| - |N(a)|, with f(empty) = 0.
    The chosen a sits topmost in the nesting order of S and absorbs the
    whole union.  The answer is f(A); None if it exceeds k.
    """
    if a_side & b_side or (a_side | b_side) != g.vertices:
        raise ValueError("sides must partition the vertex set")
    for v in bits(a_side | b_side):
        same = a_side if (a_side >> v) & 1 else b_side
        if g.adj[v] & same:
            raise ValueError("bipartition sides must be edge-free")
    a_list = list(bits(a_side))
    m = len(a_list)
    if m > _CHAIN_SIDE_LIMIT:
        raise ValueError(f"A side larger than {_CHAIN_SIDE_LIMIT} vertices")
    nbr = [g.adj[a] & b_side for a in a_list]
    deg = [x.bit_count() for x in nbr]
    size = 1 << m
    union = [0] * size
    f = [0] * size
    pick = [0] * size
    for s in range(1, size):
        low = s & -s
        i = low.bit_length() - 1
        union[s] = union[s ^ low] | nbr[i]
        u_count = union[s].bit_count()
        best = None
        best_i = -1
        t = s
        while t:
            lb = t & -t
            j = lb.bit_length() - 1
            cand = f[s ^ lb] + u_count - deg[j]
            if best is None or cand < best:
                best, best_i = cand, j
            t ^= lb
        f[s] = best
        pick[s] = best_i
    full = size - 1
    if f[full] > k:
        return None
    pairs = []
    s = full
    while s:
        i = pick[s]
        for v in bits(union[s] & ~nbr[i]):
            a = a_list[i]
            pairs.append((a, v) if a < v else (v, a))
        s ^= 1 << i
    if len(pairs) != f[full]:
        raise CertificationError(
            f"retraced chain completion has {len(pairs)} pairs, DP value {f[full]}")
    return CompletionSet(tuple(pairs), "addition")


def enumerate_minimal_completions(g: Graph, patterns: Iterable[Pattern], k: int,
                                  allow_large: bool = False) -> list[CompletionSet]:
    """Inclusion-minimal F-free completion sets of size <= k, by subset scan.

    Guarded to hosts with at most 24 non-edges unless ``allow_large``.
    """
    pats = _sorted_patterns(patterns)
    non_edges = list(g.non_edge_pairs())
    if len(non_edges) > _SCAN_NON_EDGE_LIMIT and not allow_large:
        raise ValueError(
            f"{len(non_edges)} non-edges exceeds the scan guard "
            f"({_SCAN_NON_EDGE_LIMIT}); pass allow_large=True to override")
    solutions: list[frozenset] = []
    for size in range(min(k, len(non_edges)) + 1):
        for subset in combinations(non_edges, size):
            fs = frozenset(subset)
            if any(other <= fs for other in solutions):
                continue
            if is_f_free(g.add_edges(subset), pats):
                solutions.append(fs)
    return sorted((CompletionSet(tuple(s), "addition") for s in solutions),
                  key=lambda c: (c.size, c.pairs))
