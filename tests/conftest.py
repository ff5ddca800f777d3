"""Shared helpers for exhaustive sweeps and random instances."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from fcomplete.graph import CompletionSet, Graph, bits


def pair_list(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


@st.composite
def graphs(draw, max_n):
    """Hypothesis strategy: a labeled graph on at most ``max_n`` vertices."""
    n = draw(st.integers(0, max_n))
    pairs = pair_list(n)
    return graph_from_mask(n, draw(st.integers(0, (1 << len(pairs)) - 1)),
                           pairs)


def graph_from_mask(n, emask, pairs=None):
    if pairs is None:
        pairs = pair_list(n)
    adj = [0] * n
    for i, (u, v) in enumerate(pairs):
        if emask >> i & 1:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return Graph(n, adj)


def all_graphs(n):
    """Yield every labeled graph on n vertices."""
    pairs = pair_list(n)
    for emask in range(1 << len(pairs)):
        yield graph_from_mask(n, emask, pairs)


def random_graph(rng, n, p=0.5):
    pairs = [(u, v) for u, v in pair_list(n) if rng.random() < p]
    return Graph.from_edges(n, pairs)


def random_tp_graph(rng, n):
    """Random trivially perfect graph built by union / universal steps."""
    comps = [Graph.from_edges(1, [])]
    while sum(c.n for c in comps) < n:
        if len(comps) > 1 and rng.random() < 0.5:
            a = comps.pop(rng.randrange(len(comps)))
            b = comps.pop(rng.randrange(len(comps)))
            comps.append(disjoint_union(a, b))
        else:
            i = rng.randrange(len(comps))
            comps.append(add_universal(comps.pop(i)))
    g = comps.pop()
    while comps:
        g = disjoint_union(g, comps.pop())
    return g


def random_threshold_graph(rng, n):
    """Random threshold graph: repeated isolated / universal vertex adds."""
    g = Graph.from_edges(1, [])
    for _ in range(n - 1):
        g = add_universal(g) if rng.random() < 0.5 else disjoint_union(
            g, Graph.from_edges(1, []))
    return g


def disjoint_union(a: Graph, b: Graph) -> Graph:
    adj = list(a.adj) + [x << a.n for x in b.adj]
    return Graph(a.n + b.n, adj)


def add_universal(g: Graph) -> Graph:
    full = g.vertices
    adj = [a | (1 << g.n) for a in g.adj] + [full]
    return Graph(g.n + 1, adj)


def maximal_cliques(g: Graph) -> set[int]:
    """Maximal cliques as masks, by scanning all subsets (small n only)."""
    assert g.n <= 16
    cliques = []
    for mask in range(1, 1 << g.n):
        ok = True
        for v in bits(mask):
            if mask & ~(1 << v) & ~g.adj[v]:
                ok = False
                break
        if ok:
            cliques.append(mask)
    out = set()
    for c in cliques:
        if not any(c != d and c & d == c for d in cliques):
            out.add(c)
    return out


def brute_min_completion(g: Graph, patterns, k):
    """Reference optimum by scanning all subsets of non-edges up to size k."""
    from itertools import combinations

    from fcomplete.graph import is_f_free

    non_edges = list(g.non_edge_pairs())
    for size in range(min(k, len(non_edges)) + 1):
        for subset in combinations(non_edges, size):
            if is_f_free(g.add_edges(subset), patterns):
                return size
    return None


def opt_size(solution) -> int | None:
    return None if solution is None else solution.size


@pytest.fixture
def rng():
    return random.Random(20240817)


def fig2_graph() -> Graph:
    """The eight-vertex trivially perfect running example (a..h -> 0..7)."""
    names = "abcdefgh"
    edges = [("a", "b"), ("a", "c"), ("a", "d"), ("a", "e"), ("a", "f"),
             ("a", "g"), ("a", "h"), ("d", "e"), ("d", "f"), ("e", "f"),
             ("d", "g"), ("d", "h"), ("e", "g"), ("e", "h"), ("g", "h")]
    return Graph.from_edges(8, [(names.index(u), names.index(v)) for u, v in edges])


def proper_pseudosplit_graph(rng, clique_size, indep_size) -> Graph:
    """C5 joined to a clique, with an independent set hanging off the clique."""
    n = 5 + clique_size + indep_size
    edges = [(i, (i + 1) % 5) for i in range(5)]
    cliq = range(5, 5 + clique_size)
    for u in cliq:
        edges.extend((x, u) for x in range(5))
        edges.extend((u, w) for w in cliq if w > u)
    for v in range(5 + clique_size, n):
        for u in cliq:
            if rng.random() < 0.6:
                edges.append((u, v))
    return Graph.from_edges(n, edges)


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
