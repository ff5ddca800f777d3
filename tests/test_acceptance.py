"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavy sweeps are
exhaustive where stated (all labeled graphs of the given sizes); randomized
parts use fixed seeds so the suite is deterministic.
"""

import random
import time
from itertools import combinations, permutations, product

from fcomplete.graph import (
    FAMILIES,
    Graph,
    Pattern,
    bits,
    is_f_free,
    mask_of,
    occurrences,
)
from fcomplete.oracles import (
    enumerate_minimal_completions,
    exact_chain_completion,
    exact_completion,
    minimal_solutions_within,
)
from fcomplete.pseudosplit import i_maximal_partitions, pseudosplit_complete
from fcomplete.recognition import (
    blocks_of,
    build_ucd,
    enumerate_split_partitions,
    is_split,
)
from fcomplete.reductions import (
    CnfFormula,
    ensure_min_occurrences,
    is_satisfiable,
    reduce_to_c4_completion,
    reduce_to_c4_deletion,
    reduce_to_p4_deletion,
    regularize,
    satisfying_assignments,
    solution_from_assignment,
)
from fcomplete.threshold_subexp import (
    threshold_complete,
    threshold_complete_coloring,
)
from fcomplete.tp_subexp import (
    build_blocks,
    dp_solve,
    enumerate_vital_pmcs,
    kernelize,
    tp_complete,
)

from conftest import (
    fig2_graph,
    graph_from_mask,
    maximal_cliques,
    opt_size,
    pair_list,
    proper_pseudosplit_graph,
    random_graph,
    random_threshold_graph,
)

TP = FAMILIES["tp"]
THRESHOLD = FAMILIES["threshold"]
THRESHOLD_ENGINES = (threshold_complete, threshold_complete_coloring)
PSEUDO = FAMILIES["pseudosplit"]


def _passed(num, name):
    print(f"ACCEPTANCE {num} ({name}): PASS")


def test_criterion_1_fig2_reproduction():
    t0 = time.perf_counter()
    g = fig2_graph()
    names = "abcdefgh"

    def lbl(mask):
        return frozenset(names[v] for v in bits(mask))

    ucd = build_ucd(g)
    assert {lbl(b) for b in ucd.bags} == {
        frozenset("a"), frozenset("b"), frozenset("c"),
        frozenset("de"), frozenset("f"), frozenset("gh")}
    rows = {(lbl(b.bag), lbl(b.subtree), lbl(b.tail))
            for b in blocks_of(ucd)}
    assert rows == {
        (frozenset("a"), frozenset("abcdefgh"), frozenset("a")),
        (frozenset("b"), frozenset("b"), frozenset("ab")),
        (frozenset("c"), frozenset("c"), frozenset("ac")),
        (frozenset("de"), frozenset("defgh"), frozenset("ade")),
        (frozenset("f"), frozenset("f"), frozenset("adef")),
        (frozenset("gh"), frozenset("gh"), frozenset("adegh")),
    }
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passed(1, "Fig. 2 reproduction")


def test_criterion_2_tp_exactness():
    t0 = time.perf_counter()
    mismatches = 0
    for n in range(1, 6):
        pairs = pair_list(n)
        for emask in range(1 << len(pairs)):
            g = graph_from_mask(n, emask, pairs)
            oracle4 = opt_size(exact_completion(g, TP, 4))
            for k in range(5):
                expect = oracle4 if oracle4 is not None and oracle4 <= k else None
                if opt_size(tp_complete(g, k)) != expect:
                    mismatches += 1
    rng = random.Random(24101)
    densities = (0.2, 0.35, 0.5, 0.65, 0.8)
    for i in range(500):
        n = 4 + i % 7
        g = random_graph(rng, n, densities[i % 5])
        k = i % 5
        if opt_size(tp_complete(g, k)) != opt_size(exact_completion(g, TP, k)):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    assert mismatches == 0
    assert elapsed < 600.0, f"criterion 2 took {elapsed:.0f}s"
    _passed(2, f"TP exactness, {elapsed:.0f}s")


def test_criterion_3_candidate_superset():
    violations = 0
    for n in range(1, 6):
        pairs = pair_list(n)
        for emask in range(1 << len(pairs)):
            g = graph_from_mask(n, emask, pairs)
            for k in range(4):
                fam = enumerate_vital_pmcs(g, k)
                blocks = None
                for comp in enumerate_minimal_completions(g, TP, k):
                    h = comp.apply(g)
                    for clique in maximal_cliques(h):
                        if clique not in fam:
                            violations += 1
                    if blocks is None:
                        blocks = set(build_blocks(fam.tags, g, k).pairs)
                    for blk in blocks_of(build_ucd(h)):
                        if (blk.bag, blk.subtree) not in blocks:
                            violations += 1
    assert violations == 0
    _passed(3, "candidate-family superset + block coverage")


def test_criterion_4_threshold_exactness():
    t0 = time.perf_counter()
    mismatches = 0
    # full budget grid up to n = 5, both engines
    for n in range(1, 6):
        pairs = pair_list(n)
        for emask in range(1 << len(pairs)):
            g = graph_from_mask(n, emask, pairs)
            oracle4 = opt_size(exact_completion(g, THRESHOLD, 4))
            for k in range(5):
                expect = oracle4 if oracle4 is not None and oracle4 <= k else None
                for solve in THRESHOLD_ENGINES:
                    if opt_size(solve(g, k)) != expect:
                        mismatches += 1
    # n = 6: every labeled graph at the top budget, sampled smaller budgets
    pairs = pair_list(6)
    for emask in range(1 << 15):
        g = graph_from_mask(6, emask, pairs)
        expect = opt_size(exact_completion(g, THRESHOLD, 4))
        for solve in THRESHOLD_ENGINES:
            if opt_size(solve(g, 4)) != expect:
                mismatches += 1
    rng = random.Random(777)
    for _ in range(300):
        g = graph_from_mask(6, rng.randrange(1 << 15), pairs)
        k = rng.randrange(4)
        expect = opt_size(exact_completion(g, THRESHOLD, k))
        for solve in THRESHOLD_ENGINES:
            if opt_size(solve(g, k)) != expect:
                mismatches += 1
    assert mismatches == 0
    # planted recovery: delete j <= 3 edges from random threshold graphs
    rng = random.Random(424242)
    failures = 0
    for _ in range(200):
        n = rng.randrange(5, 13)
        g = random_threshold_graph(rng, n)
        edges = list(g.edges())
        if not edges:
            continue
        j = min(len(edges), rng.randrange(1, 4))
        broken = g.remove_edges(rng.sample(edges, j))
        sol = threshold_complete_coloring(broken, j, mode="randomized",
                                          trials=160,
                                          seed=rng.randrange(1 << 30))
        if sol is None or sol.size > j:
            failures += 1
    assert failures == 0
    _passed(4, f"threshold exactness + planting, {time.perf_counter() - t0:.0f}s")


def _augmented_structure_holds(g, aug, pairs):
    h = aug.graph.add_edges(pairs)
    closed_x = aug.x_mask
    for v in bits(aug.x_mask):
        closed_x |= g.adj[v]
    parts = i_maximal_partitions(h)
    if not parts:
        return False
    for c, i in parts:
        if closed_x & ~c:
            return False
        if aug.a_mask & ~i:
            return False
        if any(((1 << u) | (1 << v)) & aug.a_mask for u, v in pairs):
            return False
        rest_c = c & ~aug.x_mask
        for v in bits(aug.x_mask):
            if rest_c & ~h.adj[v]:
                return False
        for v in bits(i & ~aug.a_mask):
            if h.adj[v] & aug.x_mask:
                return False
    return True


def test_criterion_5_pseudosplit_exactness():
    t0 = time.perf_counter()
    mismatches = 0
    clause_failures = 0
    traces_checked = 0
    for n in range(1, 6):
        pairs = pair_list(n)
        for emask in range(1 << len(pairs)):
            g = graph_from_mask(n, emask, pairs)
            oracle4 = opt_size(exact_completion(g, PSEUDO, 4))
            for k in range(5):
                expect = oracle4 if oracle4 is not None and oracle4 <= k else None
                trace = []
                if opt_size(pseudosplit_complete(g, k, trace=trace)) != expect:
                    mismatches += 1
                for aug, sol_pairs in trace:
                    traces_checked += 1
                    if not _augmented_structure_holds(g, aug, sol_pairs):
                        clause_failures += 1
    pairs = pair_list(6)
    for emask in range(1 << 15):
        g = graph_from_mask(6, emask, pairs)
        trace = []
        if opt_size(pseudosplit_complete(g, 4, trace=trace)) != \
                opt_size(exact_completion(g, PSEUDO, 4)):
            mismatches += 1
        for aug, sol_pairs in trace:
            traces_checked += 1
            if not _augmented_structure_holds(g, aug, sol_pairs):
                clause_failures += 1
    # planted proper pseudosplit graphs exercise the augmentation route
    rng = random.Random(515)
    for _ in range(60):
        g = proper_pseudosplit_graph(rng, rng.randrange(1, 4), rng.randrange(0, 3))
        edges = list(g.edges())
        j = rng.randrange(0, 3)
        broken = g.remove_edges(rng.sample(edges, j))
        trace = []
        sol = pseudosplit_complete(broken, j, trace=trace)
        if sol is None or sol.size > j:
            mismatches += 1
        for aug, sol_pairs in trace:
            traces_checked += 1
            if not _augmented_structure_holds(broken, aug, sol_pairs):
                clause_failures += 1
    assert mismatches == 0
    assert clause_failures == 0
    assert traces_checked >= 20
    _passed(5, f"pseudosplit exactness + augmented structure "
               f"({traces_checked} augmented solutions), "
               f"{time.perf_counter() - t0:.0f}s")


def _chain_cost_by_orders(adj_b, a_count):
    best = None
    for order in permutations(range(a_count)):
        union = 0
        cost = 0
        for a in order:
            union |= adj_b[a]
            cost += (union & ~adj_b[a]).bit_count()
        if best is None or cost < best:
            best = cost
    return best if best is not None else 0


def test_criterion_6_chain_dp():
    mismatches = 0
    rng = random.Random(6001)
    subset_checked = 0
    for na in range(1, 5):
        for nb in range(1, 5):
            cross = [(a, na + b) for a in range(na) for b in range(nb)]
            a_side = (1 << na) - 1
            b_side = ((1 << nb) - 1) << na
            for emask in range(1 << len(cross)):
                edges = [cross[i] for i in range(len(cross))
                         if emask >> i & 1]
                g = Graph.from_edges(na + nb, edges)
                adj_b = [g.adj[a] for a in range(na)]
                expect = _chain_cost_by_orders(adj_b, na)
                sol = exact_chain_completion(a_side, b_side, g, na * nb)
                if sol.size != expect:
                    mismatches += 1
                # spot check against the full subset scan
                if rng.random() < 0.003 and expect <= 3:
                    subset_checked += 1
                    missing = [p for p in cross if not g.has_edge(*p)]
                    brute = None
                    for size in range(len(missing) + 1):
                        if brute is not None:
                            break
                        for subset in combinations(missing, size):
                            h = g.add_edges(subset)
                            from fcomplete.recognition import is_chain
                            if is_chain(a_side, b_side, h):
                                brute = size
                                break
                    if brute != expect:
                        mismatches += 1
    assert mismatches == 0
    assert subset_checked >= 50
    _passed(6, f"chain DP vs brute ({subset_checked} subset-scanned)")


def _random_two_clause(rng, num_vars):
    while True:
        vs = rng.sample(range(1, num_vars + 1), 3)
        ws = rng.sample(range(1, num_vars + 1), 3)
        raw = [tuple(v * rng.choice((1, -1)) for v in vs),
               tuple(w * rng.choice((1, -1)) for w in ws)]
        f = regularize(num_vars, raw)
        if f.num_clauses == 2 and f.num_vars == num_vars:
            return f


def test_criterion_7_c4_deletion_soundness():
    t0 = time.perf_counter()
    checked = 0
    # all eight sign patterns of the single-clause formula: budget five is
    # sufficient and necessary
    for signs in product((1, -1), repeat=3):
        f = regularize(3, [tuple(s * v for s, v in zip(signs, (1, 2, 3)))])
        inst = reduce_to_c4_deletion(f)
        assert inst.budget == 5
        assert is_satisfiable(f)
        sol = exact_completion(inst.graph, inst.targets, inst.budget, "deletion")
        assert (sol is not None) == is_satisfiable(f)
        assert exact_completion(inst.graph, inst.targets, inst.budget - 1,
                                "deletion") is None
        checked += 1
    rng = random.Random(7007)
    necessity_budget = 10
    plan = [3] * 120 + [4] * 56 + [5] * 12 + [6] * 4
    for idx, nv in enumerate(plan):
        f = _random_two_clause(rng, nv)
        inst = reduce_to_c4_deletion(f)
        assert inst.budget == f.num_vars + 2 * f.num_clauses
        sat = is_satisfiable(f)
        sol = exact_completion(inst.graph, inst.targets, inst.budget, "deletion")
        assert (sol is not None) == sat
        if sat and nv == 3 and necessity_budget > 0:
            necessity_budget -= 1
            assert exact_completion(inst.graph, inst.targets,
                                    inst.budget - 1, "deletion") is None
        checked += 1
    assert checked >= 200
    _passed(7, f"C4-deletion reduction soundness ({checked} formulas), "
               f"{time.perf_counter() - t0:.0f}s")


def test_criterion_8_forward_verification():
    t0 = time.perf_counter()
    rng = random.Random(8008)
    sizes = [1, 1, 2, 2, 3, 4]
    done = 0
    for i in range(100):
        m = sizes[i % len(sizes)]
        nv = rng.randrange(3, min(3 * m, 8) + 1)
        raw = []
        for _ in range(m):
            vs = rng.sample(range(1, nv + 1), 3)
            raw.append(tuple(v * rng.choice((1, -1)) for v in vs))
        try:
            f = regularize(nv, raw)
        except ValueError:
            continue
        alpha = next(satisfying_assignments(f), None)
        if alpha is None:
            continue
        f2 = ensure_min_occurrences(f)
        alpha2 = next(satisfying_assignments(f2))
        inst2 = reduce_to_c4_completion(f2)
        sol2 = solution_from_assignment(f2, alpha2, "c4compl")
        assert sol2.size == 14 * f2.num_clauses == inst2.budget
        sol2.validate_against(inst2.graph)
        assert is_f_free(sol2.apply(inst2.graph), (Pattern.C4,))
        # tape-gadget census for the first variable of every instance
        px = f2.occurrences(1)
        tape_mask = mask_of(v for v, r in inst2.roles.items()
                            if r.startswith("x1."))
        assert tape_mask.bit_count() == 16 * px
        tape, _ = inst2.graph.induced(tape_mask)
        assert len({frozenset(o) for o in occurrences(tape, Pattern.C4)}) == 4 * px
        inst3 = reduce_to_p4_deletion(f)
        sol3 = solution_from_assignment(f, alpha, "p4del")
        assert sol3.size == 16 * f.num_clauses == inst3.budget
        sol3.validate_against(inst3.graph)
        assert is_f_free(sol3.apply(inst3.graph), (Pattern.P4,))
        done += 1
    assert done >= 60
    _gadget_claims_52()
    _gadget_claims_53()
    _passed(8, f"forward verification ({done} formulas) + gadget claims, "
               f"{time.perf_counter() - t0:.0f}s")


def _gadget_claims_52():
    """Tape gadget C4 census and the clause gadget's three 2-edge fixes."""
    f = ensure_min_occurrences(regularize(3, [(1, 2, 3)]))
    inst = reduce_to_c4_completion(f)
    px = f.occurrences(1)
    tape_mask = mask_of(v for v, r in inst.roles.items() if r.startswith("x1."))
    tape, _ = inst.graph.induced(tape_mask)
    tape_c4s = {frozenset(o) for o in occurrences(tape, Pattern.C4)}
    assert len(tape_c4s) == 4 * px
    # minimum completion of the isolated tape is 4 p_x, realized exactly by
    # the two same-orientation diagonal sets
    sols = minimal_solutions_within(tape, (Pattern.C4,), 4 * px)
    optima = [s for s in sols if s.size == 4 * px]
    assert sols and min(s.size for s in sols) == 4 * px
    assert len(optima) == 2
    clause_mask = mask_of(v for v, r in inst.roles.items() if r.startswith("c1."))
    gadget, ids = inst.graph.induced(clause_mask)
    non_edges = list(gadget.non_edge_pairs())
    # any fix must add a diagonal of the core 4-cycle
    role = {i: inst.roles[ids[i]] for i in range(gadget.n)}
    core = {r: i for i, r in role.items() if "guard" not in r}
    diag = [(core["c1.v1"], core["c1.v2"]), (core["c1.v3"], core["c1.v4"])]
    diag = [tuple(sorted(p)) for p in diag]
    two_edge = set()
    for d in diag:
        for other in non_edges:
            pair = frozenset((d, other))
            if len(pair) == 1:
                continue
            edges = sorted(pair)
            h = gadget.add_edges(edges)
            if is_f_free(h, (Pattern.C4,)):
                two_edge.add(frozenset(edges))
    assert len(two_edge) == 3
    expect = {
        frozenset({diag[0], tuple(sorted((core["c1.v1"], core["c1.u1"])))}),
        frozenset({diag[0], tuple(sorted((core["c1.v2"], core["c1.u2"])))}),
        frozenset({diag[1], tuple(sorted((core["c1.v3"], core["c1.u3"])))}),
    }
    assert two_edge == expect
    # no single addition works
    assert all(not is_f_free(gadget.add_edges([p]), (Pattern.C4,))
               for p in non_edges)


def _gadget_claims_53():
    """Tower-pair minimum of four, realized only by the four eliminations."""
    f = regularize(6, [(1, 2, 3), (1, 4, 5), (2, 4, 6)])
    from fcomplete.reductions import _P4DelLayout

    lay = _P4DelLayout(f)
    inst = reduce_to_p4_deletion(f)
    x = 1
    gadget_mask = mask_of(v for v, r in inst.roles.items()
                          if r.startswith("x1."))
    gadget, ids = inst.graph.induced(gadget_mask)
    back = {old: new for new, old in enumerate(ids)}
    assert lay.p[x] == 2

    def pair(u, v):
        u, v = back[u], back[v]
        return (u, v) if u < v else (v, u)

    def r_edges(i):
        b = [lay.base_v(x, i, j) for j in range(1, 6)]
        t1, t2 = lay.spike(x, i, 1), lay.spike(x, i, 2)
        return [pair(b[0], b[1]), pair(b[0], b[2]), pair(b[1], b[2]),
                pair(b[2], b[3]), pair(b[2], b[4]), pair(b[3], b[4]),
                pair(b[1], t1), pair(b[3], t2)]

    def elimination(i, which):
        b = [lay.base_v(x, i, j) for j in range(1, 6)]
        t1, t2 = lay.spike(x, i, 1), lay.spike(x, i, 2)
        if which == "A":
            return {pair(t2, b[3]), pair(b[0], b[1]), pair(b[0], b[2]),
                    pair(b[1], b[2])}
        if which == "B":
            return {pair(t1, b[1]), pair(b[2], b[3]), pair(b[2], b[4]),
                    pair(b[3], b[4])}
        if which == "C":
            return {pair(t1, b[1]), pair(t2, b[3]), pair(b[0], b[2]),
                    pair(b[1], b[2])}
        return {pair(t1, b[1]), pair(t2, b[3]), pair(b[2], b[3]),
                pair(b[2], b[4])}

    r1 = r_edges(1)
    kill2 = list(elimination(2, "A")) + [p for p in r_edges(2)
                                         if p not in elimination(2, "A")]
    # deleting all of R_2 silences the second pair entirely
    locally_valid = set()
    for quad in combinations(r1, 4):
        h = gadget.remove_edges(list(quad) + kill2)
        if is_f_free(h, (Pattern.P4,)):
            locally_valid.add(frozenset(quad))
    expect = {frozenset(elimination(1, w)) for w in "ABCD"}
    assert locally_valid == expect
    for trio in combinations(r1, 3):
        h = gadget.remove_edges(list(trio) + kill2)
        assert not is_f_free(h, (Pattern.P4,))
    # whole-gadget minimum is 4 p_x, achieved only by uniform A or B
    sols = minimal_solutions_within(gadget, (Pattern.P4,), 8, "deletion")
    optima = {frozenset(s.pairs) for s in sols if s.size == 8}
    assert min(s.size for s in sols) == 8
    assert optima == {
        frozenset(elimination(1, "A") | elimination(2, "A")),
        frozenset(elimination(1, "B") | elimination(2, "B")),
    }
    # clause gadgets need at least four deletions from their edge set
    f1 = regularize(3, [(1, 2, 3)])
    inst1 = reduce_to_p4_deletion(f1)
    alpha = next(satisfying_assignments(f1))
    sol = solution_from_assignment(f1, alpha, "p4del")
    clause_edges = [(u, v) for u, v in inst1.graph.edges()
                    if inst1.roles[u].startswith("c1.")
                    or inst1.roles[v].startswith("c1.")]
    assert len(clause_edges) == 15
    var_part = [p for p in sol.pairs if tuple(sorted(p)) not in
                {tuple(sorted(e)) for e in clause_edges}]
    assert len(var_part) == 12
    stripped = inst1.graph.remove_edges(var_part)
    for trio in combinations(clause_edges, 3):
        assert not is_f_free(stripped.remove_edges(trio), (Pattern.P4,))


def test_criterion_9_split_partition_bound():
    t0 = time.perf_counter()
    # exhaustive over all labeled graphs with n <= 7
    for n in range(1, 8):
        pairs = pair_list(n)
        npairs = len(pairs)
        pairs_within = [0] * (1 << n)
        for mask in range(1 << n):
            low = mask & -mask
            v = low.bit_length() - 1
            rest = mask ^ low
            acc = pairs_within[rest]
            for i, (a, b) in enumerate(pairs):
                if (a == v and (rest >> b) & 1) or (b == v and (rest >> a) & 1):
                    acc |= 1 << i
            pairs_within[mask] = acc
        full = (1 << n) - 1
        for emask in range(1 << npairs):
            brute = [c for c in range(1 << n)
                     if not (pairs_within[c] & ~emask)
                     and not (pairs_within[full & ~c] & emask)]
            g = graph_from_mask(n, emask, pairs)
            if not is_split(g):
                assert not brute
                continue
            got = sorted(p.clique for p in enumerate_split_partitions(g))
            assert got == sorted(brute)
            assert len(got) <= n + 1
        kn = Graph.complete(n)
        assert len(enumerate_split_partitions(kn)) == n + 1
    _passed(9, f"split-partition bound, {time.perf_counter() - t0:.0f}s")


def test_criterion_10_scaling_report():
    rng = random.Random(1001)
    g = random_graph(rng, 8, 0.4)
    print("\nscaling report (n=8, p=0.4, fixed seed; sets are attributed to"
          " the first type that produced them):")
    print("k | |C1| | |C2| | |C3| | |C4| | |C| | |S| | dp")
    rows = []
    # the kernel keeps one component of g, the one that is not TP
    (part, _), = kernelize(g, 1).parts
    for k in range(1, 5):
        fam = enumerate_vital_pmcs(part, k, work_cap=None)
        tags = list(fam.tags.values())
        blocks = build_blocks(fam.tags, part, k)
        sol = dp_solve(blocks, part, k)
        rows.append((k, *(tags.count(f"Type{i}") for i in range(1, 5)),
                     len(fam), len(blocks), len(sol.table) if sol else 0))
        print(" | ".join(str(x) for x in rows[-1]))
    assert all(r[5] > 0 and r[6] > 0 for r in rows)
    # family sizes grow with the budget
    assert rows[-1][5] >= rows[0][5]
    _passed(10, "scaling report (informational)")
