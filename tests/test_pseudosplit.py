import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcomplete import pseudosplit
from fcomplete.graph import FAMILIES, Graph, bits, edges_within, mask_of
from fcomplete.oracles import exact_completion, exact_split_completion
from fcomplete.pseudosplit import (
    _embeds_in_c5,
    build_augmented_instance,
    c5_supergraph_pairs,
    enumerate_c5_seeds,
    i_maximal_partitions,
    pseudosplit_complete,
)
from fcomplete.recognition import is_pseudosplit, is_split

from conftest import (
    cycle_graph,
    graph_from_mask,
    graphs,
    opt_size,
    path_graph,
    proper_pseudosplit_graph,
    random_graph,
)

PSEUDO = FAMILIES["pseudosplit"]


def test_seed_examples():
    c5 = cycle_graph(5)
    assert c5.vertices in enumerate_c5_seeds(c5)
    assert enumerate_c5_seeds(Graph.complete(5)) == []
    empty5 = Graph.empty(5)
    assert enumerate_c5_seeds(empty5) == [empty5.vertices]


def test_seed_rejects_non_embeddable():
    # C4 plus isolated vertex: a 4-cycle is not a subgraph of C5
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert enumerate_c5_seeds(g) == []
    # vertex of degree 3 cannot embed either
    star = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3)])
    assert enumerate_c5_seeds(star) == []


def test_seeds_by_deficit_match_subset_scan():
    rng = random.Random(61)
    for n in range(11):
        for _ in range(12):
            g = random_graph(rng, n, rng.random())
            scan = sorted(mask_of(c) for c in combinations(range(n), 5)
                          if _embeds_in_c5(g, mask_of(c)))
            by_deficit = []
            for d in range(6):
                found = enumerate_c5_seeds(g, d)
                assert all(5 - edges_within(g, x) == d for x in found)
                by_deficit.extend(found)
            assert sorted(by_deficit) == scan
            assert enumerate_c5_seeds(g) == scan
    with pytest.raises(ValueError):
        enumerate_c5_seeds(cycle_graph(5), 6)


def test_c5_supergraph_pairs():
    p3_k1_k1 = Graph.from_edges(5, [(0, 1), (1, 2)])
    pairs = c5_supergraph_pairs(p3_k1_k1, p3_k1_k1.vertices)
    assert len(pairs) == 5
    h = p3_k1_k1.add_edges(p for p in pairs if not p3_k1_k1.has_edge(*p))
    assert h.m == 5 and all(h.degree(v) == 2 for v in range(5))
    c5 = cycle_graph(5)
    assert c5_supergraph_pairs(c5, c5.vertices) == sorted(
        tuple(sorted(e)) for e in c5.edges())


def test_build_augmented_examples():
    c5 = cycle_graph(5)
    aug = build_augmented_instance(c5, 3, c5.vertices)
    assert aug.budget == 3
    assert aug.graph.n == 5 + 3 + 2
    p3 = Graph.from_edges(5, [(0, 1), (1, 2)])
    aug = build_augmented_instance(p3, 4, p3.vertices)
    assert aug.budget == 4 + 2 - 5
    # X is a clique in G', A independent and adjacent exactly to N_G[X]
    for v in bits(aug.x_mask):
        assert aug.graph.adj[v] & aug.x_mask == aug.x_mask & ~(1 << v)
    closed_x = 0b00111  # N_G[X] in the path case: all of X... compute instead
    closed = aug.x_mask
    for v in bits(aug.x_mask):
        closed |= p3.adj[v]
    for a in bits(aug.a_mask):
        assert aug.graph.adj[a] == closed
    with pytest.raises(ValueError):
        build_augmented_instance(Graph.complete(5), 2, (1 << 5) - 1)


def test_pseudosplit_complete_examples():
    assert pseudosplit_complete(cycle_graph(5), 2).size == 0
    assert pseudosplit_complete(path_graph(4), 0).size == 0
    two_k2 = Graph.from_edges(4, [(0, 1), (2, 3)])
    sol = pseudosplit_complete(two_k2, 1)
    assert sol.size == 1 and is_split(sol.apply(two_k2))


def test_matches_oracle_small():
    rng = random.Random(83)
    for _ in range(150):
        n = rng.randrange(2, 7)
        g = graph_from_mask(n, rng.randrange(1 << (n * (n - 1) // 2)))
        k = rng.randrange(0, 5)
        assert opt_size(pseudosplit_complete(g, k)) == \
            opt_size(exact_completion(g, PSEUDO, k))


def test_no_augmented_instance_with_negative_budget(monkeypatch):
    built = []

    def recording_build(g, k, x_mask):
        aug = build_augmented_instance(g, k, x_mask)
        built.append(aug.budget)
        return aug

    monkeypatch.setattr(pseudosplit, "build_augmented_instance", recording_build)
    # 2K2 plus an isolated vertex: its only seed misses 3 of the C5 edges
    two_k2_k1 = Graph.from_edges(5, [(0, 1), (2, 3)])
    assert pseudosplit_complete(two_k2_k1, 3).size == 1
    rng = random.Random(101)
    for _ in range(30):
        g = random_graph(rng, 7, 0.3)
        pseudosplit_complete(g, 3)
    assert built and min(built) >= 0


@pytest.mark.parametrize("drop", [(0, 5), (5, 6)])
def test_seed_bound_met_exactly(drop):
    # C5 joined to the clique {5, 6}, less one join or clique edge: the C5
    # seed's bound is 1, the budget, and the split optimum is larger
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(5, 6)]
    edges += [(x, c) for x in range(5) for c in (5, 6)]
    g = Graph.from_edges(7, [e for e in edges if e != drop])
    assert exact_split_completion(g, 21).size > 1
    assert pseudosplit_complete(g, 1).pairs == (drop,)


def test_optimize_with_large_split_optimum():
    # 5K2: split optimum 10, so the cap leaves every deficit 0..5 open
    matching = Graph.from_edges(10, [(2 * i, 2 * i + 1) for i in range(5)])
    full = 10 * 9 // 2
    assert exact_split_completion(matching, full).size == 10
    stats = {}
    sol = pseudosplit_complete(matching, full, stats=stats)
    assert sol.size == opt_size(exact_completion(matching, PSEUDO, full))
    assert stats["augmented"] > 0
    assert stats["split_calls"] == stats["augmented"] + 1
    assert stats["seeds"] >= stats["bounded_out"] + stats["augmented"]


def test_augmented_budgets_stay_below_split_optimum(monkeypatch):
    budgets = []

    def recording_build(g, k, x_mask):
        budgets.append(k)
        return build_augmented_instance(g, k, x_mask)

    monkeypatch.setattr(pseudosplit, "build_augmented_instance", recording_build)
    rng = random.Random(67)
    graphs_seen = [Graph.from_edges(10, [(2 * i, 2 * i + 1) for i in range(5)])]
    for _ in range(20):
        g = proper_pseudosplit_graph(rng, rng.randrange(1, 4), rng.randrange(0, 3))
        graphs_seen.append(g.remove_edges(rng.sample(list(g.edges()), 2)))
    for g in graphs_seen:
        budgets.clear()
        full = g.n * (g.n - 1) // 2
        split_opt = exact_split_completion(g, full).size
        pseudosplit_complete(g, full)
        assert all(b < split_opt for b in budgets)


def test_stats_on_pseudosplit_input():
    stats = {}
    assert pseudosplit_complete(cycle_graph(5), 3, stats=stats).size == 0
    assert stats["split_calls"] == 0 and stats["augmented"] == 0


def _check_augmented_structure(g, aug, pairs):
    h = aug.graph.add_edges(pairs)
    closed_x = aug.x_mask
    for v in bits(aug.x_mask):
        if v < aug.base_n:
            closed_x |= g.adj[v]
    parts = i_maximal_partitions(h)
    assert parts
    for c, i in parts:
        assert closed_x & ~c == 0
        assert aug.a_mask & ~i == 0
        assert all(not ((1 << u) | (1 << v)) & aug.a_mask for u, v in pairs)
        rest_c = c & ~aug.x_mask
        for v in bits(aug.x_mask):
            assert rest_c & ~h.adj[v] == 0
        for v in bits(i & ~aug.a_mask):
            assert not h.adj[v] & aug.x_mask


def test_augmented_solution_structure_on_traces():
    from conftest import proper_pseudosplit_graph

    rng = random.Random(89)
    seen = 0
    for _ in range(40):
        g = proper_pseudosplit_graph(rng, rng.randrange(1, 3), rng.randrange(0, 3))
        edges = list(g.edges())
        j = rng.randrange(0, 3)
        broken = g.remove_edges(rng.sample(edges, j))
        trace = []
        pseudosplit_complete(broken, j, trace=trace)
        for aug, pairs in trace:
            seen += 1
            _check_augmented_structure(broken, aug, pairs)
    assert seen >= 5


def test_solution_stays_in_host():
    rng = random.Random(97)
    for _ in range(100):
        g = random_graph(rng, 6, 0.45)
        sol = pseudosplit_complete(g, 3)
        if sol is None:
            continue
        assert all(u < g.n and v < g.n for u, v in sol.pairs)
        assert is_pseudosplit(sol.apply(g))[0]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(graphs(8), st.integers(0, 5))
def test_property_agrees_with_oracle(g, k):
    assert opt_size(pseudosplit_complete(g, k)) == \
        opt_size(exact_completion(g, PSEUDO, k))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_property_opt_invariant_under_relabelling(data):
    g = data.draw(graphs(8))
    perm = data.draw(st.permutations(range(g.n)))
    h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    assert opt_size(pseudosplit_complete(h, 5)) == opt_size(pseudosplit_complete(g, 5))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(graphs(8))
def test_property_yes_monotone_in_budget(g):
    answers = [opt_size(pseudosplit_complete(g, k)) for k in range(6)]
    yes = [a is not None for a in answers]
    assert yes == sorted(yes)
    assert len({a for a in answers if a is not None}) <= 1
