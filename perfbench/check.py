"""Independent answer checker for the benchmark.

Everything here is brute force over 4- and 5-vertex subsets against the
pattern table below.  It imports nothing from ``fcomplete``, so a fault in
the solvers' own obstruction search cannot hide a wrong answer.

Graphs are ``(n, edges)`` with ``edges`` a list of vertex pairs.
"""

from __future__ import annotations

from itertools import combinations, product

# An induced subgraph on 4 or 5 vertices is the named pattern exactly when
# its edge count and sorted degree sequence match the row.
PATTERNS = {
    "2K2": (4, 2, (1, 1, 1, 1)),
    "P4": (4, 3, (1, 1, 2, 2)),
    "C4": (4, 4, (2, 2, 2, 2)),
    "C5": (5, 5, (2, 2, 2, 2, 2)),
}

FAMILIES = {
    "tp": ("C4", "P4"),
    "threshold": ("2K2", "C4", "P4"),
    "pseudosplit": ("2K2", "C4"),
    "split": ("2K2", "C4", "C5"),
    "c4": ("C4",),
}


def adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _shape(adj: list[int], verts) -> tuple[int, int, tuple[int, ...]]:
    mask = 0
    for v in verts:
        mask |= 1 << v
    degs = tuple(sorted((adj[v] & mask).bit_count() for v in verts))
    return len(verts), sum(degs) // 2, degs


def find_obstruction(adj: list[int], family: str):
    """First vertex subset inducing a member of ``family``, or None."""
    rows = {PATTERNS[name] for name in FAMILIES[family]}
    for order in sorted({row[0] for row in rows}):
        for verts in combinations(range(len(adj)), order):
            if _shape(adj, verts) in rows:
                return verts
    return None


def check_answer(n: int, edges, pairs, family: str, mode: str,
                 budget: int) -> list[str]:
    """Problems with ``pairs`` as an answer; an empty list means it is valid."""
    problems = []
    present = {(min(u, v), max(u, v)) for u, v in edges}
    norm = [(min(u, v), max(u, v)) for u, v in pairs]
    if len(set(norm)) != len(norm):
        problems.append("duplicate pairs")
    for u, v in norm:
        if u == v or not (0 <= u < n and 0 <= v < n):
            problems.append(f"bad pair ({u}, {v})")
        elif mode == "addition" and (u, v) in present:
            problems.append(f"added pair ({u}, {v}) is already an edge")
        elif mode == "deletion" and (u, v) not in present:
            problems.append(f"deleted pair ({u}, {v}) is not an edge")
    if len(norm) > budget:
        problems.append(f"size {len(norm)} exceeds the budget {budget}")
    if problems:
        return problems
    result = present | set(norm) if mode == "addition" else present - set(norm)
    occ = find_obstruction(adjacency(n, result), family)
    if occ is not None:
        problems.append(f"answer leaves an obstruction of {family} on {occ}")
    return problems


def satisfiable(num_vars: int, clauses) -> bool:
    """Truth-table satisfiability of a CNF given as signed-literal tuples."""
    for values in product((False, True), repeat=num_vars):
        if all(any((lit > 0) == values[abs(lit) - 1] for lit in cl)
               for cl in clauses):
            return True
    return False


def min_edit(n: int, edges, family: str, mode: str, limit: int):
    """Minimum edit count making the graph ``family``-free, or None past limit.

    Iterative deepening over the budget; each level branches on the pairs
    inside the first obstruction found, since every solution edits one of
    them.  This is the subset scan pruned to subsets that hit every
    obstruction, used as the second path for the reference optima.
    """
    adj = adjacency(n, edges)

    def solvable(budget: int) -> bool:
        occ = find_obstruction(adj, family)
        if occ is None:
            return True
        if budget == 0:
            return False
        for u, v in combinations(occ, 2):
            if (adj[u] >> v & 1) != (mode == "deletion"):
                continue
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
            ok = solvable(budget - 1)
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
            if ok:
                return True
        return False

    for budget in range(limit + 1):
        if solvable(budget):
            return budget
    return None
