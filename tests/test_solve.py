import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcomplete import FAMILIES, Graph, Pattern, problem_family, solve
from fcomplete.oracles import exact_completion
from fcomplete.recognition import is_trivially_perfect
from fcomplete.solve import ALGOS
from fcomplete.tp_subexp import tp_complete, tp_complete_dp

from conftest import cycle_graph, disjoint_union, graphs, opt_size

PROBLEMS = (*FAMILIES, "ffree:C4,P4", "ffree:C5")
TP_ENGINES = pytest.mark.parametrize("tp", [tp_complete, tp_complete_dp],
                                     ids=lambda f: f.__name__)


def test_problem_labels():
    assert problem_family("ffree:C4,P4") == FAMILIES["tp"]
    assert problem_family("ffree:2K2,,C5") == (Pattern.TWO_K2, Pattern.C5)
    for label in ("nope", "ffree:", "ffree:C6"):
        with pytest.raises(ValueError):
            problem_family(label)
    g = cycle_graph(4)
    with pytest.raises(ValueError, match="unknown problem"):
        solve(g, "TP", 1)
    with pytest.raises(ValueError, match="unknown algo"):
        solve(g, "tp", 1, "fast")
    with pytest.raises(ValueError, match="trials"):
        solve(g, "split", 1, trials=0)


# k <= 4 keeps the exhaustive coloring family under its guard at n = 8
@settings(max_examples=200, deadline=None, derandomize=True)
@given(graphs(8), st.integers(0, 4))
def test_property_every_engine_agrees_with_oracle(g, k):
    for problem in PROBLEMS:
        expect = opt_size(exact_completion(g, problem_family(problem), k))
        for algo in ALGOS:
            assert opt_size(solve(g, problem, k, algo)) == expect, (problem, algo)


def _full(g: Graph) -> int:
    return g.n * (g.n - 1) // 2


@TP_ENGINES
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_property_tp_opt_invariant_under_relabelling(tp, data):
    g = data.draw(graphs(8))
    perm = data.draw(st.permutations(range(g.n)))
    h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    sol = tp(h, _full(h))
    assert sol.size == tp(g, _full(g)).size
    assert is_trivially_perfect(sol.apply(h))


@TP_ENGINES
@settings(max_examples=100, deadline=None, derandomize=True)
@given(g=graphs(8))
def test_property_tp_yes_monotone_in_budget(tp, g):
    opt = tp(g, _full(g)).size
    for k in range(opt + 2):
        sol = tp(g, k)
        assert (sol is not None) == (k >= opt)
        assert sol is None or sol.size == opt


@TP_ENGINES
@settings(max_examples=100, deadline=None, derandomize=True)
@given(a=graphs(6), b=graphs(6))
def test_property_tp_opt_adds_over_disjoint_union(tp, a, b):
    both = disjoint_union(a, b)
    opt = tp(a, _full(a)).size + tp(b, _full(b)).size
    assert tp(both, _full(both)).size == opt
    assert tp(both, opt).size == opt
    if opt:
        assert tp(both, opt - 1) is None
