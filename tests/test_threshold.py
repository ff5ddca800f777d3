import itertools
import random

import pytest

from fcomplete import threshold_subexp
from fcomplete.cli import main
from fcomplete.graph import CertificationError, Graph, Pattern, bits
from fcomplete.oracles import exact_completion
from fcomplete.recognition import is_threshold, split_partitions_within
from fcomplete.threshold_subexp import (
    ColoringGuardError,
    _clique_sides,
    class_partitions,
    default_color_count,
    default_trials,
    threshold_complete,
)

from conftest import (
    graph_from_mask,
    opt_size,
    path_graph,
    random_graph,
    random_threshold_graph,
)

THRESHOLD = (Pattern.TWO_K2, Pattern.C4, Pattern.P4)


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
        threshold_complete(two_k2, 2)


def test_nonpositive_trials_raise_up_front():
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials"):
            class_partitions(4, 2, mode="randomized", trials=trials)
        two_k2 = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="trials") as info:
            threshold_complete(two_k2, 2, mode="randomized", trials=trials)
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
    assert threshold_complete(c4, 0, stats=stats) is None
    assert stats["colorings"] == 1 and stats["assemblies"] == 0


def test_threshold_complete_examples():
    assert threshold_complete(Graph.complete(5), 0).size == 0
    paw = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert threshold_complete(paw, 2).size == 0
    two_k2 = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert threshold_complete(two_k2, 1) is None
    sol = threshold_complete(two_k2, 2)
    assert sol.size == 2 and is_threshold(sol.apply(two_k2))
    sol = threshold_complete(path_graph(4), 1)
    assert sol.size == 1


def test_threshold_matches_oracle_small():
    rng = random.Random(73)
    for _ in range(120):
        n = rng.randrange(2, 6)
        g = graph_from_mask(n, rng.randrange(1 << (n * (n - 1) // 2)))
        k = rng.randrange(0, 5)
        got = opt_size(threshold_complete(g, k))
        expect = opt_size(exact_completion(g, THRESHOLD, k))
        assert got == expect


def test_planted_recovery_randomized():
    rng = random.Random(79)
    for _ in range(25):
        n = rng.randrange(6, 13)
        g = random_threshold_graph(rng, n)
        edges = list(g.edges())
        j = min(len(edges), rng.randrange(1, 4))
        removed = rng.sample(edges, j)
        broken = g.remove_edges(removed)
        sol = threshold_complete(broken, j, mode="randomized", trials=150,
                                 seed=4242)
        assert sol is not None and sol.size <= j


def test_stats_and_chain_edges_direction():
    stats = {}
    two_k2 = Graph.from_edges(4, [(0, 1), (2, 3)])
    sol = threshold_complete(two_k2, 2, stats=stats)
    assert stats["exact"] is True
    assert stats["colorings"] >= 1 and stats["assemblies"] >= 1
    h = sol.apply(two_k2)
    assert is_threshold(h)


def test_failed_certification_is_raised_not_swallowed(monkeypatch, tmp_path):
    monkeypatch.setattr(threshold_subexp, "is_threshold", lambda h: False)
    two_k2 = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(CertificationError) as info:
        threshold_complete(two_k2, 2)
    assert not isinstance(info.value, ValueError)
    # the CLI falls back to branching on ValueError only
    p = tmp_path / "two_k2.graph"
    p.write_text("4 2\n0 1\n2 3\n")
    with pytest.raises(CertificationError):
        main(["solve", str(p), "--problem", "threshold", "--k", "2"])
