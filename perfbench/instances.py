"""Seeded instance generators and the workload definitions.

The instance pool is fixed: ``reference.json`` lists each instance by the
generator, its arguments and a draw index, together with its optimum.  A run
regenerates every pool instance of its workload, checks it against the
stored fingerprint, and then relabels its vertices with a permutation drawn
from the run's ``--seed``.  The optimum is invariant under relabelling, so
the stored optima hold for every seed, while the program sees different
inputs (and the branching oracle, which follows the lexicographically first
obstruction, takes different paths).

Generators return ``(n, edges)`` with ``edges`` a sorted list of pairs and
use nothing from ``fcomplete`` except the ``c4del`` gadgets, which come from
the program's own reduction (their generation counts as set-up).
"""

from __future__ import annotations

import hashlib
import random

POOL_SEED = "fcomplete-perfbench-1"

# Workload -> relabelled copies of each pool instance solved per round.  The
# oracle branches on the lexicographically first obstruction, so its time
# depends on the labels (up to 3x on one instance), and so, less, does that of
# threshold_complete and pseudosplit_complete (about 10% per instance); more
# copies average that out.  tp_complete's work does not depend on the labels.
RELABELINGS = {"tp-planted": 1, "oracle-branch": 16, "coloring": 8,
               "cli-optimize": 2}
WORKLOADS = tuple(RELABELINGS)


def pool_rng(*parts) -> random.Random:
    return random.Random("/".join(str(p) for p in (POOL_SEED,) + parts))


def _canonical(n: int, edges) -> tuple[int, list[tuple[int, int]]]:
    return n, sorted((min(u, v), max(u, v)) for u, v in edges)


def _planted(rng: random.Random, n: int, edges: list, k: int):
    """Remove k random edges and relabel the vertices."""
    edges = sorted(edges)
    rng.shuffle(edges)
    perm = list(range(n))
    rng.shuffle(perm)
    return _canonical(n, [(perm[u], perm[v]) for u, v in edges[k:]])


def planted_tp(rng: random.Random, n: int, k: int):
    """A random rooted forest's ancestor/descendant graph minus k edges."""
    parent = [None] * n
    for v in range(1, n):
        parent[v] = rng.randrange(v) if rng.random() < 0.85 else None
    edges = []
    for v in range(n):
        a = parent[v]
        while a is not None:
            edges.append((a, v))
            a = parent[a]
    return _planted(rng, n, edges, k)


def planted_threshold(rng: random.Random, n: int, k: int):
    """Vertices added one by one as isolated or dominating, minus k edges."""
    edges = []
    for v in range(1, n):
        if rng.random() < 0.5:
            edges += [(u, v) for u in range(v)]
    return _planted(rng, n, edges, k)


def planted_pseudosplit(rng: random.Random, n: int, k: int):
    """A C5 joined to the clique of a random split graph, minus k edges."""
    c = (n - 5) // 2 + rng.randrange(2)
    clique = range(5, 5 + c)
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(x, y) for x in range(5) for y in clique]
    edges += [(a, b) for a in clique for b in clique if a < b]
    edges += [(a, b) for a in clique for b in range(5 + c, n)
              if rng.random() < 0.5]
    return _planted(rng, n, edges, k)


def gnp(rng: random.Random, n: int, p: float):
    return _canonical(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < p])


def two_clause_formula(rng: random.Random, num_vars: int):
    """Two random 3-literal clauses over ``num_vars`` variables."""
    return [tuple(v * rng.choice((1, -1))
                  for v in rng.sample(range(1, num_vars + 1), 3))
            for _ in range(2)]


GENERATORS = {
    "planted_tp": planted_tp,
    "planted_threshold": planted_threshold,
    "planted_pseudosplit": planted_pseudosplit,
    "gnp": gnp,
}


def c4del_gadget(reductions, num_vars: int, draw: int):
    """The program's C4-deletion gadget for a seeded two-clause formula.

    Redraws until regularisation keeps exactly two clauses over all
    ``num_vars`` variables.  Returns ``(n, edges, budget, clauses, num_vars)``.
    """
    rng = pool_rng("c4del", num_vars, draw)
    while True:
        f = reductions.regularize(num_vars, two_clause_formula(rng, num_vars))
        if f.num_clauses == 2 and f.num_vars == num_vars:
            break
    inst = reductions.reduce_to_c4_deletion(f)
    n, edges = _canonical(inst.graph.n, inst.graph.edges())
    return n, edges, inst.budget, [list(c) for c in f.clauses], f.num_vars


def parse_edge_list(text: str):
    """Minimal reader for the corpus format: ``n m`` then ``u v`` lines."""
    rows = [line.split() for line in text.splitlines()
            if line.strip() and not line.lstrip().startswith("#")]
    n, m = int(rows[0][0]), int(rows[0][1])
    edges = [(int(u), int(v)) for u, v in rows[1:]]
    if len(edges) != m:
        raise ValueError("edge count does not match the header")
    return _canonical(n, edges)


def format_edge_list(n: int, edges) -> str:
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def fingerprint(n: int, edges) -> str:
    return hashlib.sha256(repr(_canonical(n, edges)).encode()).hexdigest()[:16]


def base_graph(entry: dict, root: str, reductions):
    """Regenerate a pool entry: ``(n, edges, extra)`` before relabelling."""
    gen = entry["gen"]
    if gen == "corpus":
        with open(f"{root}/{entry['file']}") as fh:
            n, edges = parse_edge_list(fh.read())
        return n, edges, {}
    if gen == "c4del":
        n, edges, budget, clauses, nv = c4del_gadget(
            reductions, entry["args"][0], entry["draw"])
        return n, edges, {"budget": budget, "clauses": clauses, "num_vars": nv}
    rng = pool_rng(gen, *entry["args"], entry["draw"])
    n, edges = GENERATORS[gen](rng, *entry["args"])
    return n, edges, {}


def relabel(n: int, edges, seed: int, key: str):
    perm = list(range(n))
    random.Random(f"{seed}/{key}").shuffle(perm)
    return _canonical(n, [(perm[u], perm[v]) for u, v in edges])
