import random

import pytest

from fcomplete.graph import FAMILIES, Graph, Pattern, bits, is_f_free, mask_of, set_of
from fcomplete.recognition import (
    NotSplitError,
    NotTriviallyPerfectError,
    blocks_of,
    build_ucd,
    enumerate_split_partitions,
    is_chain,
    is_pseudosplit,
    is_split,
    is_threshold,
    is_trivially_perfect,
)

from conftest import (
    all_graphs,
    cycle_graph,
    fig2_graph,
    maximal_cliques,
    path_graph,
    random_tp_graph,
)


def names(mask, alphabet="abcdefgh"):
    return frozenset(alphabet[v] for v in bits(mask))


def test_is_tp_examples():
    assert is_trivially_perfect(fig2_graph())
    assert not is_trivially_perfect(cycle_graph(4))
    assert is_trivially_perfect(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_build_ucd_fig2():
    ucd = build_ucd(fig2_graph())
    assert {names(b) for b in ucd.bags} == {
        frozenset("a"), frozenset("b"), frozenset("c"),
        frozenset("de"), frozenset("f"), frozenset("gh")}
    root = ucd.roots
    assert len(root) == 1 and names(ucd.bags[root[0]]) == frozenset("a")
    kids = [names(ucd.bags[c]) for c in ucd.children(root[0])]
    assert kids == [frozenset("b"), frozenset("c"), frozenset("de")]
    de = next(i for i, b in enumerate(ucd.bags) if names(b) == frozenset("de"))
    assert [names(ucd.bags[c]) for c in ucd.children(de)] == [
        frozenset("f"), frozenset("gh")]


def test_build_ucd_k3_and_p3():
    ucd = build_ucd(Graph.complete(3))
    assert len(ucd.bags) == 1 and ucd.bags[0] == 0b111
    p3 = path_graph(3)
    ucd = build_ucd(p3)
    assert ucd.bags[ucd.roots[0]] == 0b010
    assert sorted(ucd.bags[c] for c in ucd.children(ucd.roots[0])) == [0b001, 0b100]


def test_build_ucd_refuses_with_witness():
    with pytest.raises(NotTriviallyPerfectError) as exc:
        build_ucd(cycle_graph(4))
    pattern, occ = exc.value.witness
    assert pattern is Pattern.C4 and len(occ) == 4


def test_blocks_fig2_rows():
    blocks = {(names(b.bag), names(b.subtree), names(b.tail))
              for b in blocks_of(build_ucd(fig2_graph()))}
    assert (frozenset("de"), frozenset("defgh"), frozenset("ade")) in blocks
    assert (frozenset("a"), frozenset("abcdefgh"), frozenset("a")) in blocks
    assert (frozenset("gh"), frozenset("gh"), frozenset("adegh")) in blocks


def test_ucd_structure_random():
    rng = random.Random(5)
    for _ in range(150):
        g = random_tp_graph(rng, rng.randrange(2, 11))
        ucd = build_ucd(g)
        assert sum(b.bit_count() for b in ucd.bags) == g.n
        for i, bag in enumerate(ucd.bags):
            kids = ucd.children(i)
            assert len(kids) != 1
        for block in blocks_of(ucd):
            # tails are cliques, universal to the rest of the subtree
            from fcomplete.graph import non_edges_within
            assert non_edges_within(g, block.tail) == 0
            rest = block.subtree & ~block.bag
            for v in bits(block.tail):
                assert rest & ~g.adj[v] == 0


def test_leaf_tails_are_maximal_cliques():
    rng = random.Random(9)
    count = 0
    for _ in range(150):
        g = random_tp_graph(rng, rng.randrange(2, 7))
        leaf_tails = {b.tail for b in blocks_of(build_ucd(g)) if b.is_leaf}
        assert leaf_tails == maximal_cliques(g)
        count += 1
    assert count == 150


def test_split_partition_examples():
    k1 = Graph.from_edges(1, [])
    parts = enumerate_split_partitions(k1)
    assert {(p.clique, p.independent) for p in parts} == {(1, 0), (0, 1)}
    p3 = path_graph(3)
    got = {(p.clique, p.independent) for p in enumerate_split_partitions(p3)}
    assert got == {(0b010, 0b101), (0b011, 0b100), (0b110, 0b001)}
    assert len(enumerate_split_partitions(Graph.complete(3))) == 4
    with pytest.raises(NotSplitError):
        enumerate_split_partitions(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_split_partitions_match_exhaustive():
    from conftest import random_graph

    rng = random.Random(13)
    for _ in range(400):
        n = rng.randrange(1, 9)
        g = random_graph(rng, n, rng.random())
        brute = set()
        for c in range(1 << n):
            i = g.vertices & ~c
            if _valid(g, c, i):
                brute.add(c)
        if is_split(g):
            got = {p.clique for p in enumerate_split_partitions(g)}
            assert got == brute
            assert len(got) <= n + 1
        else:
            assert not brute


def _valid(g, c, i):
    for v in bits(c):
        if c & ~(1 << v) & ~g.adj[v]:
            return False
    for v in bits(i):
        if g.adj[v] & i:
            return False
    return True


def test_is_threshold_examples():
    paw = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert is_threshold(paw)
    assert not is_threshold(Graph.from_edges(4, [(0, 1), (2, 3)]))
    assert is_threshold(Graph.complete(5))


def test_is_pseudosplit_examples():
    ok, wit = is_pseudosplit(cycle_graph(5))
    assert ok and wit == (0, 0, 0b11111)
    ok, wit = is_pseudosplit(path_graph(3))
    assert ok and wit[2] == 0
    ok, wit = is_pseudosplit(Graph.from_edges(4, [(0, 1), (2, 3)]))
    assert not ok and wit is None


def test_pseudosplit_witness_conditions():
    from conftest import proper_pseudosplit_graph

    rng = random.Random(23)
    for _ in range(60):
        g = proper_pseudosplit_graph(rng, rng.randrange(1, 4), rng.randrange(0, 4))
        ok, wit = is_pseudosplit(g)
        assert ok and wit[2] != 0
        c, i, x = wit
        sub, _ = g.induced(x)
        assert sub.n == 5 and sub.m == 5
        assert all(sub.degree(v) == 2 for v in range(5))
        for v in bits(x):
            assert g.adj[v] & c == c
            assert not g.adj[v] & i


def test_recognition_matches_obstructions_all_n_le_6():
    # the recognizers are independent of the obstruction table they check
    threshold_pats = FAMILIES["threshold"]
    pseudo_pats = FAMILIES["pseudosplit"]
    for n in range(1, 6):
        for g in all_graphs(n):
            assert is_threshold(g) == is_f_free(g, threshold_pats)
            assert is_pseudosplit(g)[0] == is_f_free(g, pseudo_pats)
            assert is_trivially_perfect(g) == is_f_free(g, FAMILIES["tp"])
            assert is_split(g) == is_f_free(g, FAMILIES["split"])
    rng = random.Random(31)
    from conftest import graph_from_mask
    for _ in range(4000):
        g = graph_from_mask(6, rng.randrange(1 << 15))
        assert is_threshold(g) == is_f_free(g, threshold_pats)
        assert is_pseudosplit(g)[0] == is_f_free(g, pseudo_pats)


def test_is_chain_examples():
    k22 = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert is_chain(0b0011, 0b1100, k22)
    two_k2 = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not is_chain(mask_of([0, 2]), mask_of([1, 3]), two_k2)
    star = Graph.from_edges(4, [(3, 0), (3, 1), (3, 2)])
    assert is_chain(0b0111, 0b1000, star)
    with pytest.raises(ValueError):
        is_chain(0b0011, 0b1100, Graph.from_edges(4, [(0, 1)]))
