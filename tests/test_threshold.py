import inspect
import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcomplete import threshold_subexp
from fcomplete.cli import main
from fcomplete.graph import CertificationError, Graph, Pattern, bits
from fcomplete.oracles import exact_completion
from fcomplete.recognition import is_threshold, split_partitions_within
from fcomplete.threshold_subexp import (
    STATE_CAP,
    ColoringGuardError,
    StateCapError,
    _clique_sides,
    class_partitions,
    default_color_count,
    default_trials,
    threshold_complete,
    threshold_complete_coloring,
)

from conftest import (
    graph_from_mask,
    graphs,
    opt_size,
    path_graph,
    random_graph,
    random_threshold_graph,
)

THRESHOLD = (Pattern.TWO_K2, Pattern.C4, Pattern.P4)
ENGINES = (threshold_complete, threshold_complete_coloring)


def _reference_partitions(colorings):
    """Distinct class partitions of the given colorings, first seen first."""
    out = {}
    for coloring in colorings:
        classes = {}
        for v, c in enumerate(coloring):
            classes[c] = classes.get(c, 0) | (1 << v)
        out.setdefault(tuple(sorted(classes.values())), None)
    return list(out)


def test_family_exhaustive_counts():
    # k=1 gives t=2: partitions of 3 vertices into at most 2 classes
    assert len(list(class_partitions(3, 1))) == 4
    # k=2 gives t=4: all Bell(4) = 15 partitions of 4 vertices
    assert len(list(class_partitions(4, 2))) == 15
    assert list(class_partitions(0, 2)) == [()]


def test_exhaustive_stream_is_each_coloring_partition_once():
    for k, t in ((0, 1), (1, 2), (2, 4)):
        assert default_color_count(k) == t
        for n in range(7):
            got = list(class_partitions(n, k))
            assert len(got) == len(set(got))
            expect = _reference_partitions(
                itertools.product(range(t), repeat=n))
            assert set(got) == set(expect), (n, t)


def test_family_universal_property_small():
    # any single-edge graph is properly colored by some member
    parts = list(class_partitions(4, 1))
    for u in range(4):
        for v in range(u + 1, 4):
            assert any(not any((m >> u) & (m >> v) & 1 for m in p)
                       for p in parts)


def test_family_randomized_reproducible():
    a = list(class_partitions(5, 2, mode="randomized", trials=40, seed=9))
    b = list(class_partitions(5, 2, mode="randomized", trials=40, seed=9))
    c = list(class_partitions(5, 2, mode="randomized", trials=40, seed=10))
    assert a == b
    assert a != c
    # one randrange(t) per vertex per coloring, in order, first draw kept
    rng = random.Random(9)
    t = default_color_count(2, "randomized")
    drawn = [tuple(rng.randrange(t) for _ in range(5)) for _ in range(40)]
    assert a == _reference_partitions(drawn)


def test_family_guard():
    with pytest.raises(ColoringGuardError):
        class_partitions(30, 4)
    with pytest.raises(ValueError):
        class_partitions(5, 2, mode="bogus")
    two_k2 = Graph.from_edges(10, [(0, 1), (2, 3)])
    with pytest.raises(ColoringGuardError):
        threshold_complete_coloring(two_k2, 2)


def test_nonpositive_trials_raise_up_front():
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials"):
            class_partitions(4, 2, mode="randomized", trials=trials)
        two_k2 = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="trials") as info:
            threshold_complete_coloring(two_k2, 2, mode="randomized",
                                        trials=trials)
        assert not isinstance(info.value, ColoringGuardError)


def test_default_trials_bound():
    # documented bound: (1 - d/t)^k success per trial, 0.99 overall
    assert default_trials(0, 2) == 1
    assert default_trials(1, 2) == 7  # p = 1/2 per trial
    assert default_trials(3, 4) > 10


def test_assemble_monochromatic_k2():
    k2 = Graph.from_edges(2, [(0, 1)])
    per_class = [split_partitions_within(k2, 3)]
    sides, left = _clique_sides(k2, per_class, 4)
    assert sorted(sides) == [1, 2, 3] and left == 1
    with pytest.raises(ColoringGuardError):
        _clique_sides(k2, per_class, 3)


def test_assemble_singleton_classes():
    k2 = Graph.from_edges(2, [(0, 1)])
    per_class = [split_partitions_within(k2, 1), split_partitions_within(k2, 2)]
    # both vertices on the independent side is pruned: they are adjacent
    sides, _ = _clique_sides(k2, per_class, 100)
    assert sorted(sides) == [1, 2, 3]


def test_assemble_skips_non_split_class():
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert split_partitions_within(c4, c4.vertices) is None
    # k=0 gives one color: the single class is not split, nothing assembles
    stats = {}
    assert threshold_complete_coloring(c4, 0, stats=stats) is None
    assert stats["colorings"] == 1 and stats["assemblies"] == 0


def test_threshold_complete_examples():
    for solve in ENGINES:
        assert solve(Graph.complete(5), 0).size == 0
        paw = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        assert solve(paw, 2).size == 0
        two_k2 = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert solve(two_k2, 1) is None
        sol = solve(two_k2, 2)
        assert sol.size == 2 and is_threshold(sol.apply(two_k2))
        sol = solve(path_graph(4), 1)
        assert sol.size == 1


def test_threshold_matches_oracle_small():
    rng = random.Random(73)
    for _ in range(120):
        n = rng.randrange(2, 6)
        g = graph_from_mask(n, rng.randrange(1 << (n * (n - 1) // 2)))
        k = rng.randrange(0, 5)
        expect = opt_size(exact_completion(g, THRESHOLD, k))
        for solve in ENGINES:
            assert opt_size(solve(g, k)) == expect


def test_planted_recovery_randomized():
    rng = random.Random(79)
    for _ in range(25):
        n = rng.randrange(6, 13)
        g = random_threshold_graph(rng, n)
        edges = list(g.edges())
        j = min(len(edges), rng.randrange(1, 4))
        removed = rng.sample(edges, j)
        broken = g.remove_edges(removed)
        sol = threshold_complete_coloring(broken, j, mode="randomized",
                                          trials=150, seed=4242)
        assert sol is not None and sol.size <= j


def test_stats_and_chain_edges_direction():
    stats = {}
    two_k2 = Graph.from_edges(4, [(0, 1), (2, 3)])
    sol = threshold_complete_coloring(two_k2, 2, stats=stats)
    assert stats["exact"] is True
    assert stats["colorings"] >= 1 and stats["assemblies"] >= 1
    h = sol.apply(two_k2)
    assert is_threshold(h)


def test_failed_certification_is_raised_not_swallowed(monkeypatch, tmp_path):
    monkeypatch.setattr(threshold_subexp, "is_threshold", lambda h: False)
    two_k2 = Graph.from_edges(4, [(0, 1), (2, 3)])
    for solve in ENGINES:
        with pytest.raises(CertificationError) as info:
            solve(two_k2, 2)
        assert not isinstance(info.value, ValueError)
    # the CLI turns ValueError into an error exit, never a certification
    p = tmp_path / "two_k2.graph"
    p.write_text("4 2\n0 1\n2 3\n")
    for algo in ("auto", "subexp"):
        with pytest.raises(CertificationError):
            main(["solve", str(p), "--problem", "threshold", "--k", "2",
                  "--algo", algo])


def test_dp_stats_record_and_no_guard():
    # C4 plus six isolated vertices: past the coloring guard (4^10)
    g = Graph.from_edges(10, [(0, 1), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(ColoringGuardError):
        threshold_complete_coloring(g, 2)
    stats = {}
    sol = threshold_complete(g, 2, stats=stats)
    assert sol.size == 1 and is_threshold(sol.apply(g))
    assert stats["exact"] is True and stats["states"] == 1
    assert stats["colorings"] == stats["assemblies"] == stats["pairs_tested"] == 0
    assert stats["elapsed"] >= 0
    stats = {}
    assert threshold_complete(Graph.complete(6), 0, stats=stats).size == 0
    assert stats["states"] == 0


def test_dp_state_cap_raises(monkeypatch):
    g = random_graph(random.Random(3), 12)
    full = g.n * (g.n - 1) // 2
    stats = {}
    opt = threshold_complete(g, full, stats=stats).size
    assert 1 < stats["states"] <= STATE_CAP
    monkeypatch.setattr(threshold_subexp, "STATE_CAP", stats["states"] - 1)
    with pytest.raises(StateCapError, match="states"):
        threshold_complete(g, full)
    # one below the optimum: NO, within the sets the full budget needed
    monkeypatch.setattr(threshold_subexp, "STATE_CAP", stats["states"])
    assert threshold_complete(g, opt - 1) is None


def test_dp_deep_recursion_is_a_state_cap_error():
    # each paid peel of a perfect matching frees the partner: 40 levels
    matching = Graph.from_edges(80, [(2 * i, 2 * i + 1) for i in range(40)])
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 30)
    try:
        with pytest.raises(StateCapError, match="deep"):
            threshold_complete(matching, 80 * 79 // 2)
    finally:
        sys.setrecursionlimit(old)


# k <= 4 keeps the exhaustive coloring family under its guard at n = 8
@settings(max_examples=150, deadline=None, derandomize=True)
@given(graphs(8), st.integers(0, 4))
def test_property_engines_agree_with_oracle(g, k):
    expect = opt_size(exact_completion(g, THRESHOLD, k))
    for solve in ENGINES:
        assert opt_size(solve(g, k)) == expect


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_property_opt_invariant_under_relabelling(data):
    g = data.draw(graphs(11))
    perm = data.draw(st.permutations(range(g.n)))
    h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    full = g.n * (g.n - 1) // 2
    sol = threshold_complete(h, full)
    assert sol.size == threshold_complete(g, full).size
    assert is_threshold(sol.apply(h))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(graphs(9))
def test_property_yes_monotone_in_budget(g):
    opt = threshold_complete(g, g.n * (g.n - 1) // 2).size
    for k in range(opt + 2):
        sol = threshold_complete(g, k)
        assert (sol is not None) == (k >= opt)
        assert sol is None or sol.size == opt
