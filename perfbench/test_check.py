"""The checker must be able to fail: run ``python3 perfbench/test_check.py``
(or ``pytest perfbench/test_check.py``)."""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from check import check_answer, min_edit, satisfiable  # noqa: E402

C4 = (4, [(0, 1), (1, 2), (2, 3), (0, 3)])
P4 = (4, [(0, 1), (1, 2), (2, 3)])
TWO_K2 = (4, [(0, 1), (2, 3)])
C5 = (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])

# (graph, family, a correct minimum answer)
CASES = [
    (C4, "tp", [(0, 2)]),
    (C4, "c4", [(0, 2)]),
    (P4, "tp", [(0, 2)]),
    (P4, "threshold", [(0, 2)]),
    (TWO_K2, "threshold", [(0, 2), (0, 3)]),
    (TWO_K2, "pseudosplit", [(0, 2)]),
    (C5, "split", [(0, 2), (0, 3)]),
]


def test_rejects_each_obstruction():
    for (n, edges), family, _ in CASES:
        assert check_answer(n, edges, [], family, "addition", 5), (family, edges)


def test_accepts_correct_answers():
    for (n, edges), family, answer in CASES:
        assert check_answer(n, edges, answer, family, "addition", 5) == []


def test_rejects_correct_answer_with_one_pair_removed():
    for (n, edges), family, answer in CASES:
        for drop in range(len(answer)):
            partial = answer[:drop] + answer[drop + 1:]
            assert check_answer(n, edges, partial, family, "addition", 5), \
                (family, partial)


def test_rejects_mode_and_budget_violations():
    n, edges = C4
    assert check_answer(n, edges, [(0, 1)], "tp", "addition", 5)
    assert check_answer(n, edges, [(0, 2)], "c4", "deletion", 5)
    assert check_answer(n, edges, [(0, 1)], "c4", "deletion", 5) == []
    assert check_answer(n, edges, [(0, 2), (1, 3)], "tp", "addition", 1)
    assert check_answer(n, edges, [(0, 2), (2, 0)], "tp", "addition", 5)


def test_min_edit_matches_known_optima():
    for (n, edges), family, answer in CASES:
        assert min_edit(n, edges, family, "addition", 5) == len(answer)
    assert min_edit(*C5, "split", "addition", 1) is None


def test_truth_table():
    assert satisfiable(1, [(1,)])
    assert not satisfiable(1, [(1,), (-1,)])


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
    print("checker tests passed")
