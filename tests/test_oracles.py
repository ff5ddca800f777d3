import random
from itertools import combinations, permutations

import pytest

from fcomplete import oracles
from fcomplete.graph import (
    CertificationError,
    Graph,
    Pattern,
    bits,
    is_f_free,
    mask_of,
    occurrences,
)
from fcomplete.oracles import (
    _Search,
    enumerate_minimal_completions,
    exact_chain_completion,
    exact_completion,
    exact_split_completion,
    minimal_solutions_within,
)
from fcomplete.reductions import reduce_to_c4_deletion, regularize

from conftest import (
    all_graphs,
    brute_min_completion,
    cycle_graph,
    graph_from_mask,
    opt_size,
    path_graph,
    random_graph,
)

TP = (Pattern.C4, Pattern.P4)
THRESHOLD = (Pattern.TWO_K2, Pattern.C4, Pattern.P4)
SPLIT = (Pattern.TWO_K2, Pattern.C4, Pattern.C5)
PSEUDO = (Pattern.TWO_K2, Pattern.C4)
MODES = ("addition", "deletion")


def test_exact_completion_examples():
    c4 = cycle_graph(4)
    sol = exact_completion(c4, TP, 1)
    assert sol.size == 1 and is_f_free(sol.apply(c4), TP)
    p4 = path_graph(4)
    sol = exact_completion(p4, TP, 1)
    assert sol.size == 1 and is_f_free(sol.apply(p4), TP)
    # the end-to-end edge would close a C4, so it is never chosen
    assert sol.pairs != ((0, 3),)
    c5 = cycle_graph(5)
    pats = (Pattern.TWO_K2, Pattern.C4, Pattern.C5)
    assert exact_completion(c5, pats, 1) is None
    sol = exact_completion(c5, pats, 2)
    assert sol.size == 2
    free = path_graph(3)
    assert exact_completion(free, TP, 0).size == 0


def test_exact_completion_contract_violations():
    with pytest.raises(ValueError):
        exact_completion(cycle_graph(4), (), 1)
    with pytest.raises(ValueError):
        exact_completion(Graph.complete(3), TP, -1)
    with pytest.raises(ValueError):
        exact_completion(cycle_graph(4), TP, 1, "edit")


def test_oracle_matches_subset_scan():
    rng = random.Random(17)
    for n in range(1, 5):
        for g in all_graphs(n):
            for pats in (TP, THRESHOLD, SPLIT):
                expect = brute_min_completion(g, pats, 3)
                assert opt_size(exact_completion(g, pats, 3)) == expect
    for _ in range(150):
        g = graph_from_mask(5, rng.randrange(1 << 10))
        for pats in (TP, THRESHOLD):
            expect = brute_min_completion(g, pats, 4)
            assert opt_size(exact_completion(g, pats, 4)) == expect


def test_oracle_deletion_mode():
    rng = random.Random(19)
    for _ in range(80):
        g = graph_from_mask(5, rng.randrange(1 << 10))
        sol = exact_completion(g, (Pattern.C4,), 3, "deletion")
        if sol is not None:
            assert is_f_free(sol.apply(g), (Pattern.C4,))
        # reference: scan subsets of edges
        edges = list(g.edges())
        best = None
        for size in range(min(3, len(edges)) + 1):
            if best is not None:
                break
            for subset in combinations(edges, size):
                if is_f_free(g.remove_edges(subset), (Pattern.C4,)):
                    best = size
                    break
        assert opt_size(sol) == best


def test_yes_monotone_in_budget():
    rng = random.Random(29)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(3, 7))
        sizes = [opt_size(exact_completion(g, TP, k)) for k in range(5)]
        for k in range(4):
            if sizes[k] is not None:
                assert sizes[k + 1] == sizes[k]


def test_optimum_drops_along_optimal_edges():
    rng = random.Random(31)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(3, 7))
        sol = exact_completion(g, TP, 4)
        if sol is None or sol.size == 0:
            continue
        for pair in sol.pairs:
            nxt = exact_completion(g.add_edges([pair]), TP, 4)
            assert nxt is not None and nxt.size <= sol.size - 1


def _chain_cost_by_orders(g, a_side, b_side):
    """Reference optimum: try every nesting order of the A side."""
    a_list = list(bits(a_side))
    best = None
    for order in permutations(a_list):
        union = 0
        cost = 0
        for a in order:
            union |= g.adj[a]
            cost += (union & ~g.adj[a]).bit_count()
        if best is None or cost < best:
            best = cost
    return best or 0


def test_chain_examples():
    two_k2 = Graph.from_edges(4, [(0, 1), (2, 3)])
    sol = exact_chain_completion(mask_of([0, 2]), mask_of([1, 3]), two_k2, 2)
    assert sol.size == 1
    k22 = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert exact_chain_completion(0b0011, 0b1100, k22, 0).size == 0
    star = Graph.from_edges(3, [(2, 0), (2, 1)])
    assert exact_chain_completion(0b011, 0b100, star, 0).size == 0
    with pytest.raises(ValueError):
        exact_chain_completion(0b0011, 0b1100, Graph.from_edges(4, [(0, 1)]), 1)


def test_chain_matches_order_brute():
    rng = random.Random(37)
    for _ in range(300):
        na, nb = rng.randrange(1, 5), rng.randrange(1, 5)
        edges = [(a, na + b) for a in range(na) for b in range(nb)
                 if rng.random() < 0.5]
        g = Graph.from_edges(na + nb, edges)
        a_side = (1 << na) - 1
        b_side = ((1 << nb) - 1) << na
        expect = _chain_cost_by_orders(g, a_side, b_side)
        sol = exact_chain_completion(a_side, b_side, g, na * nb)
        assert sol.size == expect
        assert all((1 << u) & a_side and (1 << v) & b_side or
                   (1 << v) & a_side and (1 << u) & b_side
                   for u, v in sol.pairs)
        from fcomplete.recognition import is_chain
        assert is_chain(a_side, b_side, sol.apply(g))
        if expect > 0:
            assert exact_chain_completion(a_side, b_side, g, expect - 1) is None


def test_split_completion_examples():
    assert exact_split_completion(cycle_graph(5), 2).size == 2
    assert exact_split_completion(cycle_graph(5), 1) is None
    two_k2 = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert exact_split_completion(two_k2, 1).size == 1
    assert exact_split_completion(path_graph(4), 0).size == 0


def test_enumerate_minimal_completions_examples():
    c4 = cycle_graph(4)
    fam = enumerate_minimal_completions(c4, TP, 1)
    assert {c.pairs for c in fam} == {((0, 2),), ((1, 3),)}
    tp_graph = path_graph(3)
    assert [c.pairs for c in enumerate_minimal_completions(tp_graph, TP, 2)] == [()]
    two_k2 = Graph.from_edges(4, [(0, 1), (2, 3)])
    fam = enumerate_minimal_completions(two_k2, THRESHOLD, 2)
    assert all(c.size == 2 for c in fam)
    assert ((0, 2), (0, 3)) in {c.pairs for c in fam}
    big = Graph.empty(9)
    with pytest.raises(ValueError):
        enumerate_minimal_completions(big, TP, 2)
    fam = enumerate_minimal_completions(big, TP, 0, allow_large=True)
    assert [c.pairs for c in fam] == [()]


def test_minimal_enumerators_agree():
    rng = random.Random(41)
    for _ in range(120):
        g = graph_from_mask(5, rng.randrange(1 << 10))
        for pats in (TP, THRESHOLD):
            scan = {c.pairs for c in enumerate_minimal_completions(g, pats, 3)}
            branch = {c.pairs for c in minimal_solutions_within(g, pats, 3)}
            assert scan == branch


def test_solutions_make_graph_free():
    rng = random.Random(43)
    for _ in range(100):
        g = random_graph(rng, rng.randrange(3, 8))
        for pats in (TP, SPLIT):
            sol = exact_completion(g, pats, 4)
            if sol is not None:
                sol.validate_against(g)
                assert is_f_free(sol.apply(g), pats)


def _scratch_masks(g, patterns):
    return {mask_of(occ) for p in patterns for occ in occurrences(g, p)}


def test_index_updates_match_rescan():
    rng = random.Random(53)
    families = [(p,) for p in Pattern] + [TP, THRESHOLD, PSEUDO, SPLIT, tuple(Pattern)]
    for mode in MODES:
        for pats in families:
            for _ in range(10):
                g = random_graph(rng, rng.randrange(4, 9), rng.choice((0.3, 0.5, 0.7)))
                search = _Search(g.n, oracles._sorted_patterns(pats), mode)
                index = search.index(g)
                start = search.index(g)
                records = []
                for _ in range(6):
                    pairs = list(g.non_edge_pairs() if mode == "addition" else g.edges())
                    if not pairs:
                        break
                    u, v = rng.choice(pairs)
                    g = (g.add_edges if mode == "addition" else g.remove_edges)([(u, v)])
                    records.append(search.edit(index, g, u, v))
                    masks = [m for slot in index for m in slot]
                    assert len(masks) == len(set(masks))
                    assert set(masks) == _scratch_masks(g, pats)
                    assert index == search.index(g)
                for record in reversed(records):
                    search.undo(index, record)
                assert index == start


def _brute_min(g, patterns, k, mode):
    """Reference optimum by scanning edit sets of size <= k."""
    pairs = list(g.non_edge_pairs() if mode == "addition" else g.edges())
    edit = g.add_edges if mode == "addition" else g.remove_edges
    for size in range(min(k, len(pairs)) + 1):
        for subset in combinations(pairs, size):
            if is_f_free(edit(subset), patterns):
                return size
    return None


def test_oracle_matches_edit_scan_every_family_both_modes():
    rng = random.Random(59)
    families = [(p,) for p in Pattern] + [TP, THRESHOLD, PSEUDO, SPLIT]
    for _ in range(50):
        g = random_graph(rng, rng.randrange(3, 7), rng.choice((0.3, 0.5, 0.7)))
        for mode in MODES:
            for pats in families:
                sol = exact_completion(g, pats, 3, mode)
                assert opt_size(sol) == _brute_min(g, pats, 3, mode)
                if sol is not None:
                    assert sol.mode == mode
                    sol.validate_against(g)
                    assert is_f_free(sol.apply(g), pats)


def test_own_labelling_gadget_search_stays_small():
    inst = reduce_to_c4_deletion(regularize(5, [(1, -2, 3), (-3, 4, 5)]))
    assert inst.budget == 9
    stats = {}
    sol = exact_completion(inst.graph, inst.targets, inst.budget, "deletion",
                           stats=stats)
    assert sol is not None and sol.size == 9
    assert stats["nodes"] <= 1000


def test_oracle_stats_record():
    stats = {}
    sol = exact_completion(cycle_graph(5), SPLIT, 3, stats=stats)
    assert sol.size == 2
    assert set(stats) == {"nodes", "prunes", "budgets", "index_sets", "elapsed"}
    assert stats["budgets"] == 3 and stats["index_sets"] == 1
    assert stats["nodes"] >= stats["budgets"] and stats["prunes"] >= 2
    # a budget refuted by the cheap root check builds no index
    stats = {}
    assert exact_completion(cycle_graph(5), SPLIT, 0, stats=stats) is None
    assert stats == {"nodes": 1, "prunes": 1, "budgets": 1, "index_sets": 0,
                     "elapsed": stats["elapsed"]}


def test_oracle_certifies_its_answer(monkeypatch):
    monkeypatch.setattr(oracles, "is_f_free", lambda g, pats: False)
    with pytest.raises(CertificationError):
        exact_completion(cycle_graph(4), TP, 1)
    assert exact_completion(cycle_graph(4), TP, 0) is None
