import random

import pytest

from fcomplete.graph import (
    CompletionSet,
    Graph,
    GraphFormatError,
    Pattern,
    bits,
    complement,
    edges_within,
    find_induced,
    format_solution,
    is_f_free,
    mask_of,
    missing_edges_between,
    non_edges_within,
    occurrence_masks,
    occurrences,
    parse_graph,
)

from conftest import all_graphs, cycle_graph, fig2_graph, path_graph, random_graph


def test_parse_c4():
    g = parse_graph("4 4\n0 1\n1 2\n2 3\n3 0")
    assert g.n == 4 and g.m == 4
    assert g.has_edge(0, 1) and g.has_edge(3, 0) and not g.has_edge(0, 2)


def test_parse_k1_and_p4():
    assert parse_graph("1 0").n == 1
    g = parse_graph("4 3\n0 1\n1 2\n2 3")
    assert find_induced(g, Pattern.P4) == (0, 1, 2, 3)


def test_parse_comments_ignored():
    g = parse_graph("# header comment\n3 1\n# another\n0 2\n")
    assert g.m == 1 and g.has_edge(0, 2)


@pytest.mark.parametrize("text,needle", [
    ("4\n0 1", "header"),
    ("2 1\n0 5", "range"),
    ("2 1\n1 1", "self-loop"),
    ("3 2\n0 1\n1 0", "duplicate"),
    ("3 2\n0 1", "2 edges"),
])
def test_parse_errors_name_line(text, needle):
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(text)
    assert needle in str(exc.value)


def test_find_induced_examples():
    c4 = cycle_graph(4)
    assert find_induced(c4, Pattern.C4) == (0, 1, 2, 3)
    assert find_induced(Graph.complete(4), Pattern.C4) is None
    assert find_induced(path_graph(4), Pattern.P4) == (0, 1, 2, 3)


def test_find_induced_role_order_is_valid():
    rng = random.Random(7)
    for _ in range(300):
        g = random_graph(rng, rng.randrange(4, 8))
        for pattern in Pattern:
            occ = find_induced(g, pattern)
            if occ is None:
                continue
            assert len(set(occ)) == pattern.order
            present = {frozenset(e) for e in pattern.edges}
            for i in range(pattern.order):
                for j in range(i + 1, pattern.order):
                    expect = frozenset((i, j)) in present
                    assert g.has_edge(occ[i], occ[j]) == expect


def test_occurrence_masks_once_per_set():
    rng = random.Random(11)
    for _ in range(150):
        g = random_graph(rng, rng.randrange(0, 9), rng.choice((0.3, 0.5, 0.7)))
        for pattern in Pattern:
            first_seen = list(dict.fromkeys(mask_of(o) for o in occurrences(g, pattern)))
            assert occurrence_masks(g, pattern) == first_seen
            for u in range(g.n):
                for v in range(g.n):
                    if u == v:
                        continue
                    through = occurrence_masks(g, pattern, (u, v))
                    assert len(through) == len(set(through))
                    assert set(through) == {m for m in first_seen
                                            if m >> u & 1 and m >> v & 1}
    assert occurrence_masks(cycle_graph(5), Pattern.C5) == [0b11111]
    assert occurrence_masks(cycle_graph(4), Pattern.C4, (0, 2)) == [0b1111]
    assert occurrence_masks(cycle_graph(4), Pattern.P4, (0, 2)) == []


def test_is_f_free_examples():
    assert is_f_free(fig2_graph(), (Pattern.C4, Pattern.P4))
    assert not is_f_free(cycle_graph(4), (Pattern.C4, Pattern.P4))
    assert is_f_free(cycle_graph(5), (Pattern.TWO_K2, Pattern.C4))


def test_complement_examples():
    two_k2 = complement(cycle_graph(4))
    assert two_k2.m == 2
    assert find_induced(two_k2, Pattern.TWO_K2) is not None
    assert complement(Graph.complete(3)).m == 0
    co_p4 = complement(path_graph(4))
    assert co_p4.m == 3 and find_induced(co_p4, Pattern.P4) is not None


def test_complement_involution():
    rng = random.Random(11)
    for _ in range(200):
        g = random_graph(rng, rng.randrange(1, 9))
        assert complement(complement(g)) == g


def test_counting_examples():
    assert non_edges_within(Graph.complete(3), 0b111) == 0
    assert non_edges_within(cycle_graph(4), 0b1111) == 2
    fig2 = fig2_graph()
    tail_ade = mask_of([0, 3, 4])
    assert non_edges_within(fig2, tail_ade) == 0
    k4 = Graph.complete(4)
    assert missing_edges_between(k4, mask_of([0, 1]), mask_of([2, 3])) == 0
    two_k2 = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert missing_edges_between(two_k2, mask_of([0, 1]), mask_of([2, 3])) == 4
    assert missing_edges_between(fig2, mask_of([0]), mask_of([3, 4])) == 0
    with pytest.raises(ValueError):
        missing_edges_between(k4, 0b11, 0b110)


def test_non_edges_identity_random():
    rng = random.Random(3)
    for _ in range(1000):
        n = rng.randrange(1, 9)
        g = random_graph(rng, n, rng.random())
        x = rng.randrange(1 << n)
        s = x.bit_count()
        assert non_edges_within(g, x) + edges_within(g, x) == s * (s - 1) // 2


def test_free_agrees_with_peeling_small():
    from fcomplete.recognition import is_trivially_perfect

    for n in range(1, 5):
        for g in all_graphs(n):
            assert is_f_free(g, (Pattern.C4, Pattern.P4)) == is_trivially_perfect(g)


def test_completion_set_normalization_and_apply():
    cs = CompletionSet(((2, 0), (3, 1)), "addition")
    assert cs.pairs == ((0, 2), (1, 3))
    g = cycle_graph(4)
    h = cs.apply(g)
    assert h.m == 6
    with pytest.raises(ValueError):
        CompletionSet(((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        CompletionSet(((1, 1),))
    cs.validate_against(g)
    with pytest.raises(ValueError):
        CompletionSet(((0, 1),), "addition").validate_against(g)
    deletion = CompletionSet(((0, 1),), "deletion")
    deletion.validate_against(g)
    assert deletion.apply(g).m == 3


def test_format_solution():
    assert format_solution(None) == "NO\n"
    out = format_solution(CompletionSet(((1, 3), (0, 2))))
    assert out == "OPT 2\n0 2\n1 3\n"
