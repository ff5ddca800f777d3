"""Choose the instance pool and compute its reference optima.

    python3 perfbench/make_reference.py

Every optimum is computed by two independent paths: the program's branching
oracle (``exact_completion``) and the benchmark's own obstruction-guided
subset scan (``check.min_edit``).  For the C4-deletion gadgets, where that
scan is too slow, the second path is the reduction's converter applied to a
truth-table assignment, certified by ``check.check_answer``.  If any two
paths disagree, nothing is written.  The pool rules (sizes, draws, optimum
windows) are the constants below; the README explains the choices.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from check import (FAMILIES, adjacency, check_answer, find_obstruction,  # noqa: E402
                   min_edit, satisfiable)
from instances import (GENERATORS, base_graph, c4del_gadget, fingerprint,  # noqa: E402
                       parse_edge_list, pool_rng)

from fcomplete import Graph, Pattern, exact_completion, reductions  # noqa: E402

MAX_DRAWS = 400

# (generator, n, k): the first draw that is not already in the class.
TP_SLOTS = [("planted_tp", n, k) for n, k in ((8, 5), (10, 3), (11, 2), (12, 5),
                                              (14, 6), (15, 2), (20, 4))]
COLORING_SLOTS = (
    [("planted_threshold", n, k, "threshold")
     for n, k in ((7, 2), (7, 3), (8, 2), (8, 4), (9, 3), (9, 4))]
    + [("planted_pseudosplit", n, k, "pseudosplit")
       for n, k in ((10, 2), (12, 3), (14, 2), (16, 3), (18, 2), (20, 3),
                    (22, 2), (22, 4))])
# (family or problem, n, p, lowest optimum, highest optimum, how many)
ORACLE_GNP = [("tp", 10, 0.7, 3, 6, 10), ("threshold", 9, 0.6, 3, 6, 10),
              ("pseudosplit", 11, 0.5, 3, 6, 10), ("split", 11, 0.7, 3, 6, 10),
              ("c4", 12, 0.3, 3, 6, 10)]
GADGET_VARS = [3, 3, 4, 4, 5, 5]
CLI_PROBLEMS = ("tp", "threshold", "pseudosplit", "split")
CLI_CORPUS_MAX_OPT = 6
CLI_GNP = [("tp", 9, 0.5, 1, 36, 3),
           ("threshold", 9, 0.5, 3, 7, 2), ("threshold", 10, 0.6, 3, 7, 1),
           ("threshold", 11, 0.7, 3, 7, 1),
           ("pseudosplit", 9, 0.5, 2, 4, 2), ("pseudosplit", 10, 0.5, 2, 4, 1),
           ("pseudosplit", 11, 0.5, 2, 4, 1),
           ("split", 10, 0.6, 3, 7, 2), ("split", 11, 0.7, 3, 7, 2)]

PATTERNS = {name: tuple(Pattern.from_label(p) for p in pats)
            for name, pats in FAMILIES.items()}


def oracle_opt(n, edges, family, limit, mode="addition"):
    sol = exact_completion(Graph.from_edges(n, edges), PATTERNS[family], limit,
                           mode)
    if sol is None:
        return None
    if check_answer(n, edges, sol.pairs, family, mode, limit):
        sys.exit(f"oracle answer fails the checker on {n}, {edges}")
    return sol.size


def two_path_opt(n, edges, family, limit, first=None):
    """Optimum by the oracle and by the subset scan; None above ``limit``."""
    if first is None:
        first = oracle_opt(n, edges, family, limit)
    second = min_edit(n, edges, family, "addition", limit)
    if first != second:
        sys.exit(f"optima disagree ({first} against {second}) on "
                 f"n={n} edges={edges} family={family}; nothing written")
    return first


def first_outside_class(gen, n, k, family):
    for draw in range(MAX_DRAWS):
        g_n, edges = GENERATORS[gen](pool_rng(gen, n, k, draw), n, k)
        if find_obstruction(adjacency(g_n, edges), family) is not None:
            return draw, g_n, edges
    sys.exit(f"no draw of {gen}{(n, k)} leaves the class")


def gnp_window(family, n, p, lo, hi, count):
    got = []
    for draw in range(MAX_DRAWS):
        g_n, edges = GENERATORS["gnp"](pool_rng("gnp", n, p, draw), n, p)
        opt = oracle_opt(g_n, edges, family, hi)
        if opt is None or opt < lo:
            continue
        got.append((draw, g_n, edges, two_path_opt(g_n, edges, family, hi, opt)))
        if len(got) == count:
            return got
    sys.exit(f"too few G({n}, {p}) draws with {family} optimum in [{lo}, {hi}]")


def build() -> list[dict]:
    out: list[dict] = []

    def add(workload, gen, args, draw, solver, family, n, edges, budget, opt,
            mode="addition", **extra):
        e = dict(id=f"{workload}/{sum(x['workload'] == workload for x in out)}",
                 workload=workload, gen=gen, args=list(args), draw=draw,
                 solver=solver, family=family, mode=mode, budget=budget,
                 opt=opt, fp=fingerprint(n, edges), **extra)
        out.append(e)
        print(f"{e['id']}: {e['gen']}{tuple(e['args'])} draw {e['draw']} "
              f"{e['family']} opt {e['opt']}", file=sys.stderr, flush=True)

    for gen, n, k in TP_SLOTS:
        draw, g_n, edges = first_outside_class(gen, n, k, "tp")
        add("tp-planted", gen, (n, k), draw, "tp_complete", "tp", g_n, edges,
            k, two_path_opt(g_n, edges, "tp", k))

    for family, n, p, lo, hi, count in ORACLE_GNP:
        for draw, g_n, edges, opt in gnp_window(family, n, p, lo, hi, count):
            add("oracle-branch", "gnp", (n, p), draw, "exact_completion",
                family, g_n, edges, opt, opt)
    seen_draws: dict[int, int] = {}
    for nv in GADGET_VARS:
        draw = seen_draws[nv] = seen_draws.get(nv, -1) + 1
        g_n, edges, budget, clauses, _ = c4del_gadget(reductions, nv, draw)
        sat = satisfiable(nv, clauses)
        opt = oracle_opt(g_n, edges, "c4", budget, "deletion")
        f = reductions.CnfFormula(nv, tuple(tuple(c) for c in clauses))
        alpha = next(reductions.satisfying_assignments(f))
        conv = reductions.solution_from_assignment(f, alpha, "c4del").pairs
        if (not sat or opt != len(conv)
                or check_answer(g_n, edges, conv, "c4", "deletion", budget)):
            sys.exit(f"gadget c4del({nv}) draw {draw}: oracle {opt}, "
                     f"converter {len(conv)}, satisfiable {sat}")
        add("oracle-branch", "c4del", (nv,), draw, "exact_completion", "c4",
            g_n, edges, budget, opt, mode="deletion")

    for gen, n, k, family in COLORING_SLOTS:
        draw, g_n, edges = first_outside_class(gen, n, k, family)
        solver = f"{family}_complete"
        add("coloring", gen, (n, k), draw, solver, family, g_n, edges, k,
            two_path_opt(g_n, edges, family, k))

    corpus = os.path.join(ROOT, "corpus")
    for name in sorted(os.listdir(corpus)):
        with open(os.path.join(corpus, name)) as fh:
            g_n, edges = parse_edge_list(fh.read())
        for problem in CLI_PROBLEMS:
            opt = oracle_opt(g_n, edges, problem, CLI_CORPUS_MAX_OPT)
            if opt is None:
                continue
            add("cli-optimize", "corpus", (), 0, "cli", problem, g_n, edges,
                g_n * (g_n - 1) // 2,
                two_path_opt(g_n, edges, problem, CLI_CORPUS_MAX_OPT, opt),
                file=f"corpus/{name}")
    for problem, n, p, lo, hi, count in CLI_GNP:
        for draw, g_n, edges, opt in gnp_window(problem, n, p, lo, hi, count):
            add("cli-optimize", "gnp", (n, p), draw, "cli", problem, g_n,
                edges, n * (n - 1) // 2, opt)

    for e in out:  # the stored pool must regenerate bit for bit
        g_n, edges, _ = base_graph(e, ROOT, reductions)
        if fingerprint(g_n, edges) != e["fp"]:
            sys.exit(f"{e['id']} does not regenerate the same graph")
    return out


def main() -> int:
    pool = build()
    path = os.path.join(HERE, "reference.json")
    with open(path, "w") as fh:
        json.dump({"pool_seed_note": "see instances.POOL_SEED",
                   "instances": pool}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(pool)} instances to {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
