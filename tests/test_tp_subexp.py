import inspect
import math
import random
import sys

import pytest

from fcomplete import tp_subexp
from fcomplete.graph import (
    FAMILIES,
    CertificationError,
    Graph,
    StateCapError,
    bits,
    is_f_free,
    mask_of,
    non_edges_within,
)
from fcomplete.oracles import enumerate_minimal_completions, exact_completion
from fcomplete.recognition import blocks_of, build_ucd, is_trivially_perfect
from fcomplete.solve import format_stats
from fcomplete.tp_subexp import (
    FamilyLimitError,
    build_blocks,
    dp_solve,
    enumerate_type1,
    enumerate_type2,
    enumerate_type3,
    enumerate_type4,
    enumerate_vital_pmcs,
    fill_profile,
    kernelize,
    near_clique_family,
    sqrt_budgets,
    tp_complete,
    tp_complete_dp,
)

from conftest import (
    all_graphs,
    cycle_graph,
    disjoint_union,
    fig2_graph,
    graph_from_mask,
    maximal_cliques,
    opt_size,
    path_graph,
    random_graph,
)

TP = FAMILIES["tp"]


def test_sqrt_budgets():
    assert sqrt_budgets(0) == (0, 0)
    assert sqrt_budgets(1) == (1, 2)
    assert sqrt_budgets(2) == (2, 4)
    assert sqrt_budgets(4) == (2, 4)
    assert sqrt_budgets(5) == (3, 6)


def test_type1_counts():
    assert len(enumerate_type1(Graph.empty(3), 1)) == 7
    assert len(enumerate_type1(Graph.empty(4), 1)) == 11
    assert len(enumerate_type1(Graph.empty(3), 4)) == 8  # bound is vacuous


def test_type2_examples():
    k4 = Graph.complete(4)
    assert k4.vertices in enumerate_type2(k4, 1)
    c4 = cycle_graph(4)
    fam = enumerate_type2(c4, 1)
    assert c4.vertices in fam  # N[0] = {0,1,3} plus W2 = {2}
    fam0 = enumerate_type2(c4, 0)
    assert set(fam0.tags) == {c4.closed(v) for v in range(4)}


def test_type3_examples():
    c4 = cycle_graph(4)
    fam = enumerate_type3(c4, 1)
    assert 0 in fam  # all-empty choices emit the empty set
    for x in range(4):
        assert c4.closed(x) in fam  # W3 = {x}, everything else empty
    assert mask_of([0, 1, 2]) in fam  # W3 = {1}: N({1}) | {1}


def test_type4_examples():
    c4 = cycle_graph(4)
    fam = enumerate_type4(c4, 1)
    assert c4.adj[0] in fam  # v1 = v2 = 0 with empty pads
    two_k2 = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert 0 in enumerate_type4(two_k2, 1)  # disjoint neighborhoods


def test_vital_pmcs_examples():
    k4 = Graph.complete(4)
    assert k4.vertices in enumerate_vital_pmcs(k4, 1)
    c4 = cycle_graph(4)
    fam = enumerate_vital_pmcs(c4, 1)
    for triple in ([0, 1, 2], [0, 2, 3], [0, 1, 3], [1, 2, 3]):
        assert mask_of(triple) in fam
    assert all(mask and non_edges_within(c4, mask) <= 1 for mask in fam.tags)


def test_vital_pmcs_shortcut_matches_generic():
    rng = random.Random(51)
    for _ in range(40):
        g = graph_from_mask(5, rng.randrange(1 << 10))
        for k in (2, 3, 4):
            fam = enumerate_vital_pmcs(g, k)
            merged = {}
            for sub in (enumerate_type1(g, k), enumerate_type2(g, k),
                        enumerate_type3(g, k), enumerate_type4(g, k)):
                for mask in sub.tags:
                    merged.setdefault(mask, True)
            pruned = {m for m in merged if m and non_edges_within(g, m) <= k}
            assert set(fam.tags) == pruned


def test_near_clique_family_is_superset():
    rng = random.Random(53)
    for _ in range(30):
        g = random_graph(rng, 6, 0.5)
        k = rng.randrange(1, 4)
        fam = enumerate_vital_pmcs(g, k)
        nc = near_clique_family(g, k)
        assert set(fam.tags) <= set(nc.tags)


def test_near_clique_pruning_drops_exactly_dominated_sets():
    rng = random.Random(54)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(1, 9), rng.random())
        k = rng.randrange(0, 5)
        full = set(near_clique_family(g, k).tags)
        dominated = {m for m in full
                     if any(g.adj[v] & m == m for v in bits(g.vertices & ~m))}
        pruned = near_clique_family(g, k, prune_dominated=True)
        assert set(pruned.tags) == full - dominated


def test_superset_property_small():
    rng = random.Random(57)
    for _ in range(40):
        g = graph_from_mask(5, rng.randrange(1 << 10))
        k = rng.randrange(1, 4)
        fam = enumerate_vital_pmcs(g, k)
        for comp in enumerate_minimal_completions(g, TP, k):
            h = comp.apply(g)
            for clique in maximal_cliques(h):
                assert clique in fam


def test_build_blocks_examples():
    k4 = Graph.complete(4)
    blocks = build_blocks(enumerate_vital_pmcs(k4, 1).tags, k4, 1)
    assert (k4.vertices, k4.vertices) in blocks.pairs
    c4 = cycle_graph(4)
    blocks = build_blocks(enumerate_vital_pmcs(c4, 1).tags, c4, 1)
    assert (mask_of([0, 2]), c4.vertices) in blocks.pairs
    for x, y in blocks.pairs:
        assert x & ~y == 0
        from fcomplete.graph import components
        assert len(components(c4, y)) == 1


def test_build_blocks_covers_fig2():
    g = fig2_graph()
    fam = enumerate_vital_pmcs(g, 2)
    blocks = build_blocks(fam.tags, g, 2)
    expected = {(b.bag, b.subtree) for b in blocks_of(build_ucd(g))}
    assert expected <= set(blocks.pairs)


def test_dp_solve_examples():
    k4 = Graph.complete(4)
    sol = dp_solve(build_blocks(enumerate_vital_pmcs(k4, 2).tags, k4, 2), k4, 2)
    assert sol.value == 0 and sol.completion.size == 0
    c4 = cycle_graph(4)
    sol = dp_solve(build_blocks(enumerate_vital_pmcs(c4, 1).tags, c4, 1), c4, 1)
    assert sol.value == 1
    assert is_trivially_perfect(sol.completion.apply(c4))
    # leaf cost formula: |X| = 3 with 2 internal edges costs 1
    p3 = path_graph(3)
    from fcomplete.tp_subexp import BlockFamily
    sol = dp_solve(BlockFamily(((0b111, 0b111),)), p3, 2)
    assert sol.table[(0b111, 0b111)] == 1


def test_kernelize_examples():
    assert kernelize(fig2_graph(), 3).parts == ()
    c4_k3 = disjoint_union(cycle_graph(4), Graph.complete(3))
    kern = kernelize(c4_k3, 2)
    assert len(kern.parts) == 1 and kern.parts[0][0].n == 4
    assert kern.k == 2
    c4_p4 = disjoint_union(cycle_graph(4), path_graph(4))
    assert len(kernelize(c4_p4, 2).parts) == 2


def test_tp_complete_examples():
    two_k2 = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert tp_complete(two_k2, 0).size == 0
    assert tp_complete(path_graph(4), 1).size == 1
    c4_c4 = disjoint_union(cycle_graph(4), cycle_graph(4))
    assert tp_complete(c4_c4, 2).size == 2
    assert tp_complete(c4_c4, 1) is None


def test_tp_complete_runs_no_type_enumerator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("tp_complete ran a Type enumerator")

    for name in ("enumerate_vital_pmcs", "enumerate_type3", "enumerate_type4"):
        monkeypatch.setattr(tp_subexp, name, refuse)
    rng = random.Random(62)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(6, 11), rng.random())
        k = rng.randrange(0, 5)
        assert opt_size(tp_complete(g, k)) == opt_size(exact_completion(g, TP, k))


def test_tp_complete_matches_oracle_small():
    rng = random.Random(61)
    for _ in range(60):
        n = rng.randrange(2, 7)
        g = random_graph(rng, n, rng.random())
        k = rng.randrange(0, 5)
        assert opt_size(tp_complete(g, k)) == opt_size(exact_completion(g, TP, k))


def test_fill_profile_bound():
    rng = random.Random(67)
    for _ in range(50):
        g = graph_from_mask(5, rng.randrange(1 << 10))
        k = rng.randrange(1, 4)
        s1, s2 = sqrt_budgets(k)
        for comp in enumerate_minimal_completions(g, TP, k):
            fills = fill_profile(g, comp)
            assert sum(fills) == 2 * comp.size
            assert sum(1 for f in fills if f > s1) <= s2


def test_work_cap_and_fallback():
    g = random_graph(random.Random(71), 8, 0.5)
    with pytest.raises(FamilyLimitError):
        enumerate_type4(g, 4, work_cap=1000)
    for k in range(5):
        assert opt_size(tp_complete(g, k)) == opt_size(exact_completion(g, TP, k))


def test_stats_emission():
    stats = {}
    tp_complete(cycle_graph(4), 2, stats=stats)
    text = format_stats(stats)
    assert "family=" in text and "blocks=" in text and "value=1" in text
    assert stats["family"] > 0
    # a NO answer still records its time
    stats = {}
    assert tp_complete(cycle_graph(4), 0, stats=stats) is None
    assert stats["value"] is None and isinstance(stats["elapsed"], float)


def test_dp_matches_oracle_on_every_graph_up_to_five_vertices():
    for n in range(6):
        for g in all_graphs(n):
            opt = exact_completion(g, TP, n * (n - 1) // 2).size
            sol = tp_complete_dp(g, opt)
            assert sol.size == opt and is_trivially_perfect(sol.apply(g))
            if opt:
                assert tp_complete_dp(g, opt - 1) is None


def test_dp_matches_oracle_random():
    rng = random.Random(63)
    for _ in range(150):
        n = rng.randrange(0, 10)
        g = random_graph(rng, n, rng.random())
        k = rng.choice([n * (n - 1) // 2, rng.randrange(0, 8)])
        assert opt_size(tp_complete_dp(g, k)) == opt_size(exact_completion(g, TP, k))


def test_dp_stats_and_state_cap(monkeypatch):
    g = random_graph(random.Random(3), 12, 0.4)
    full = g.n * (g.n - 1) // 2
    stats = {}
    opt = tp_complete_dp(g, full, stats=stats).size
    assert stats["value"] == opt and 1 < stats["states"] <= tp_subexp.STATE_CAP
    assert stats["n"] == 12 and stats["k"] == full and stats["elapsed"] >= 0
    monkeypatch.setattr(tp_subexp, "STATE_CAP", stats["states"] - 1)
    with pytest.raises(StateCapError, match="states"):
        tp_complete_dp(g, full)
    monkeypatch.setattr(tp_subexp, "STATE_CAP", stats["states"])
    assert tp_complete_dp(g, full).size == opt
    stats = {}
    assert tp_complete_dp(g, opt - 1, stats=stats) is None
    assert stats["value"] is None


def test_dp_deep_recursion_is_a_state_cap_error():
    # the cheapest root of a path is its second vertex, which leaves a path
    # two shorter: the first descent is 59 levels deep
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 30)
    try:
        with pytest.raises(StateCapError, match="deep"):
            tp_complete_dp(path_graph(120), 120 * 119 // 2)
    finally:
        sys.setrecursionlimit(old)


def test_dp_failed_certification_is_raised(monkeypatch):
    monkeypatch.setattr(tp_subexp, "is_trivially_perfect", lambda g: False)
    with pytest.raises(CertificationError):
        tp_complete_dp(cycle_graph(4), 1)
