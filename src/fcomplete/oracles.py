"""The branching oracle and other exact solvers.

* :func:`exact_completion` - bounded search tree (Cai-style branching) for any
  finite obstruction family, in addition or deletion mode.  It builds the
  obstruction index of the input once and deepens the budget from 0; every
  level runs the same indexed search, whose packing bound refutes the levels
  below the optimum.
* :func:`exact_chain_completion` - exact chain completion over a fixed
  bipartition by subset dynamic programming.
* :func:`exact_split_completion` - split completion via branching on
  {2K2, C4, C5}.
* :func:`minimal_solutions_within` - every inclusion-minimal solution, by the
  same search without stopping at the first; :func:`enumerate_minimal_completions`
  is the independent subset-scan reference the tests compare it against.
"""

from __future__ import annotations

import time
from itertools import combinations
from typing import Iterable, Optional

from .graph import (
    FAMILIES,
    CertificationError,
    CompletionSet,
    Graph,
    Pattern,
    bits,
    is_f_free,
    occurrence_masks,
)

# Subset-DP guard: the chain solver is exponential in |A|.
_CHAIN_SIDE_LIMIT = 22

# Guard for the subset-scan enumerator of minimal completions.
_SCAN_NON_EDGE_LIMIT = 24


def _sorted_patterns(patterns: Iterable[Pattern]) -> tuple[Pattern, ...]:
    return tuple(sorted(set(patterns), key=lambda p: (p.order, p.value)))


class _Search:
    """Cai's bounded search tree over an incrementally updated obstruction index.

    The index of a graph holds every vertex set that induces a pattern of F,
    once, mapped to its branch pairs (the non-edges inside it in addition
    mode, the edges in deletion mode) as a bitmask with bit ``u * n + v`` for
    the pair ``u < v``.  It is split into slots by branch-pair count, fewest
    first.  An edit of ``uv`` changes only the sets holding both ``u`` and
    ``v``: those are dropped and the ones that induce a pattern after the
    edit are found again by an enumeration anchored at ``uv``.  The search
    updates one index in place on the way down and undoes each update on
    the way back.
    """

    def __init__(self, n: int, patterns: tuple[Pattern, ...], mode: str):
        self.n = n
        self.patterns = patterns
        self.mode = mode
        width = {p: len(p.non_edges if mode == "addition" else p.edges)
                 for p in patterns}
        counts = sorted(set(width.values()))
        self.slot = {p: counts.index(width[p]) for p in patterns}
        self.slots = len(counts)
        self.nodes = 0
        self.prunes = 0

    def _pairs(self, g: Graph, mask: int) -> int:
        n = self.n
        out = 0
        for u in bits(mask):
            above = mask >> (u + 1) << (u + 1)
            inside = above & ~g.adj[u] if self.mode == "addition" else above & g.adj[u]
            for v in bits(inside):
                out |= 1 << (u * n + v)
        return out

    def index(self, g: Graph) -> list[dict[int, int]]:
        index = [{} for _ in range(self.slots)]
        for p in self.patterns:
            slot = index[self.slot[p]]
            for mask in occurrence_masks(g, p):
                slot[mask] = self._pairs(g, mask)
        return index

    def edit(self, index, g: Graph, u: int, v: int):
        """Update ``index`` in place to ``g``, just edited at ``uv``; returns
        what :meth:`undo` needs to restore it."""
        uv = (1 << u) | (1 << v)
        dropped = []
        for slot in index:
            gone = [m for m in slot if m & uv == uv]
            dropped.append([(m, slot.pop(m)) for m in gone])
        added = []
        for p in self.patterns:
            slot = index[self.slot[p]]
            for mask in occurrence_masks(g, p, (u, v)):
                slot[mask] = self._pairs(g, mask)
                added.append((slot, mask))
        return dropped, added

    def undo(self, index, record) -> None:
        dropped, added = record
        for slot, mask in added:
            del slot[mask]
        for slot, gone in zip(index, dropped):
            slot.update(gone)

    def bound(self, index, rem: int):
        """``(branch_pairs, lower)`` at a search node.

        ``lower`` counts a greedy packing of indexed sets with disjoint branch
        pairs, fewest pairs first, stopped once it exceeds ``rem``; every
        solution edits a pair of each packed set.  ``branch_pairs`` are those
        of the set with fewest pairs (ties: smallest mask), most often hit
        across the index first (ties lexicographic), or None when the index is
        empty, i.e. the graph is F-free.
        """
        used = 0
        lower = 0
        for slot in index:
            for pm in slot.values():
                if not pm & used:
                    used |= pm
                    lower += 1
                    if lower > rem:
                        return (), lower
        if not lower:
            return None, 0
        slot = next(s for s in index if s)
        chosen = slot[min(slot)]
        hits = []
        for b in bits(chosen):
            bit = 1 << b
            hits.append((-sum(1 for s in index for pm in s.values() if pm & bit),
                         divmod(b, self.n)))
        hits.sort()
        return [pair for _, pair in hits], lower

    def solutions(self, g: Graph, index, budget: int, first_only: bool):
        """Edit lists that make g F-free, found by branching within ``budget``.

        A per-call ``seen`` set of edit keys (pair-bit masks) visits each edit
        set once.  With ``first_only`` the search stops at the first one.
        """
        found: list[tuple[tuple[int, int], ...]] = []
        seen: set[int] = set()
        n = self.n
        apply = Graph.add_edges if self.mode == "addition" else Graph.remove_edges

        # recursion through an argument: no closure cycle for the collector
        def dfs(dfs, cur: Graph, rem: int, key: int, acc) -> bool:
            pairs, lower = self.bound(index, rem)
            if pairs is None:
                found.append(acc)
                return first_only
            if lower > rem:
                self.prunes += 1
                return False
            for u, v in pairs:
                nkey = key | 1 << (u * n + v)
                if nkey in seen:
                    continue
                seen.add(nkey)
                nxt = apply(cur, [(u, v)])
                self.nodes += 1
                record = self.edit(index, nxt, u, v)
                done = dfs(dfs, nxt, rem - 1, nkey, acc + ((u, v),))
                self.undo(index, record)
                if done:
                    return True
            return False

        dfs(dfs, g, budget, 0, ())
        return found


def exact_completion(g: Graph, patterns: Iterable[Pattern], k: int,
                     mode: str = "addition",
                     stats: Optional[dict] = None) -> Optional[CompletionSet]:
    """Minimum edit set of size <= k making g F-free, or None.

    Iterative deepening over the budget guarantees the first success is a
    minimum.  The obstruction index of g is built once, before level 0, and
    every level searches on it.  Branching is deterministic, so search trees
    are reproducible.  ``stats`` (optional dict) receives ``nodes`` (roots
    plus edited graphs), ``prunes`` (packing-bound cut-offs), ``budgets``
    (levels run), ``index_sets`` (root obstruction sets) and ``elapsed``.
    The answer is certified before it is returned.
    """
    if mode not in ("addition", "deletion"):
        raise ValueError(f"bad mode {mode!r}")
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
    t0 = time.perf_counter()
    search = _Search(g.n, pats, mode)
    index = search.index(g)
    found = None
    budgets = 0
    for budget in range(k + 1):
        budgets += 1
        search.nodes += 1
        hits = search.solutions(g, index, budget, first_only=True)
        if hits:
            found = hits[0]
            break
    result = None if found is None else CompletionSet(found, mode)
    if result is not None:
        try:
            result.validate_against(g)
        except ValueError as exc:
            raise CertificationError(f"oracle answer: {exc}") from exc
        if not is_f_free(result.apply(g), pats):
            raise CertificationError("oracle answer leaves an obstruction")
    if stats is not None:
        stats.update({"nodes": search.nodes, "prunes": search.prunes,
                      "budgets": budgets,
                      "index_sets": sum(map(len, index)),
                      "elapsed": time.perf_counter() - t0})
    return result


def minimal_solutions_within(g: Graph, patterns: Iterable[Pattern], k: int,
                             mode: str = "addition") -> list[CompletionSet]:
    """All inclusion-minimal edit sets of size <= k, via complete branching.

    Unlike :func:`enumerate_minimal_completions` this does not scan subsets,
    so it handles larger graphs (gadget-scale) as long as k stays small.  It
    runs the same search as :func:`exact_completion`, without stopping at
    the first solution.
    """
    search = _Search(g.n, _sorted_patterns(patterns), mode)
    found = search.solutions(g, search.index(g), k, first_only=False)
    sets = {frozenset(acc) for acc in found}
    minimal = [CompletionSet(tuple(s), mode) for s in sets
               if not any(o < s for o in sets)]
    return sorted(minimal, key=lambda c: (c.size, c.pairs))


def exact_split_completion(g: Graph, k: int) -> Optional[CompletionSet]:
    """Minimum split completion by branching on {2K2, C4, C5}."""
    return exact_completion(g, FAMILIES["split"], k)


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
