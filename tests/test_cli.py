import glob
import os
import random
import re

import pytest

from fcomplete.cli import main
from fcomplete.graph import parse_graph

CORPUS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..",
                                       "corpus", "*.graph")))

C4_TEXT = "4 4\n0 1\n1 2\n2 3\n3 0\n"
FIG2_TEXT = (
    "8 15\n0 1\n0 2\n0 3\n0 4\n0 5\n0 6\n0 7\n"
    "3 4\n3 5\n4 5\n3 6\n3 7\n4 6\n4 7\n6 7\n")


@pytest.fixture
def c4_file(tmp_path):
    p = tmp_path / "c4.graph"
    p.write_text(C4_TEXT)
    return str(p)


def test_solve_tp_yes(c4_file, capsys):
    assert main(["solve", c4_file, "--problem", "tp", "--k", "1", "--verify"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("OPT 1\n")
    u, v = map(int, out.splitlines()[1].split())
    assert (u, v) in ((0, 2), (1, 3))


def test_solve_tp_no(c4_file, capsys):
    assert main(["solve", c4_file, "--problem", "tp", "--k", "0"]) == 1
    assert capsys.readouterr().out == "NO\n"


def test_solve_ffree_optimize(tmp_path, capsys):
    p = tmp_path / "tp.graph"
    p.write_text(FIG2_TEXT)
    code = main(["solve", str(p), "--problem", "ffree:C4,P4", "--optimize"])
    assert code == 0
    assert capsys.readouterr().out == "OPT 0\n"


def test_solve_threshold_and_pseudosplit(tmp_path, capsys):
    p = tmp_path / "two_k2.graph"
    p.write_text("4 2\n0 1\n2 3\n")
    assert main(["solve", str(p), "--problem", "threshold", "--k", "2"]) == 0
    assert capsys.readouterr().out.startswith("OPT 2")
    assert main(["solve", str(p), "--problem", "pseudosplit", "--k", "1",
                 "--verify"]) == 0
    assert capsys.readouterr().out.startswith("OPT 1")
    assert main(["solve", str(p), "--problem", "split", "--k", "1"]) == 0


def test_solve_algo_agreement(c4_file, capsys):
    for algo in ("auto", "subexp", "branch"):
        assert main(["solve", c4_file, "--problem", "tp", "--k", "2",
                     "--algo", algo]) == 0
        assert capsys.readouterr().out.startswith("OPT 1")


def test_solve_stats_flag(c4_file, capsys):
    assert main(["solve", c4_file, "--problem", "tp", "--k", "1", "--stats"]) == 0
    err = capsys.readouterr().err
    assert "family=" in err


@pytest.mark.parametrize("argv", [
    ["--problem", "split", "--k", "1"],
    ["--problem", "ffree:C4", "--k", "1"],
    ["--problem", "tp", "--k", "1", "--algo", "branch"],
])
def test_solve_stats_from_oracle(c4_file, capsys, argv):
    assert main(["solve", c4_file, *argv, "--stats"]) == 0
    err = capsys.readouterr().err
    for key in ("nodes=", "prunes=", "budgets=", "index_sets=", "elapsed="):
        assert key in err


def test_solve_stats_on_threshold_fallback(tmp_path, capsys):
    p = tmp_path / "c4_plus.graph"
    p.write_text("10 4\n0 1\n1 2\n2 3\n3 0\n")
    assert main(["solve", str(p), "--problem", "threshold", "--k", "2",
                 "--stats"]) == 0
    err = capsys.readouterr().err
    assert "falling back to branching" in err
    assert "budgets=2" in err and "colorings=" not in err


def test_solve_threshold_nonpositive_trials_is_an_error(tmp_path, capsys):
    p = tmp_path / "two_k2.graph"
    p.write_text("4 2\n0 1\n2 3\n")
    for trials in ("0", "-3"):
        assert main(["solve", str(p), "--problem", "threshold", "--k", "2",
                     "--coloring-mode", "randomized", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "trials" in captured.err and "falling back" not in captured.err


def test_bad_inputs(tmp_path, capsys):
    missing = str(tmp_path / "nope.graph")
    assert main(["solve", missing, "--problem", "tp", "--k", "1"]) == 2
    bad = tmp_path / "bad.graph"
    bad.write_text("2 1\n0 0\n")
    assert main(["solve", str(bad), "--problem", "tp", "--k", "1"]) == 2
    good = tmp_path / "ok.graph"
    good.write_text("2 0\n")
    assert main(["solve", str(good), "--problem", "ffree:", "--k", "1"]) == 2
    assert main(["solve", str(good), "--problem", "tp"]) == 2
    capsys.readouterr()


def test_generate_and_reparse(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 1\n1 2 3 0\n")
    prefix = str(tmp_path / "inst")
    assert main(["generate", cnf.as_posix(), "--reduction", "c4del",
                 "--out", prefix]) == 0
    text = (tmp_path / "inst.graph").read_text()
    assert text.splitlines()[0].startswith("# reduction=c4del k=5 mode=deletion")
    g = parse_graph(text)
    assert g.n == 24 and g.m == 48
    roles = (tmp_path / "inst.roles").read_text().splitlines()
    assert len(roles) == 24 and roles[0].split()[1].startswith("x1.")
    capsys.readouterr()


def test_generate_duplicates_single_occurrence(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 1\n1 2 3 0\n")
    prefix = str(tmp_path / "inst")
    assert main(["generate", cnf.as_posix(), "--reduction", "c4compl",
                 "--out", prefix]) == 0
    head = (tmp_path / "inst.graph").read_text().splitlines()[0]
    assert "k=28" in head  # clause list duplicated, 14 * 2 clauses
    capsys.readouterr()


def test_generate_p4del_header(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 1\n1 -2 3 0\n")
    prefix = str(tmp_path / "p4")
    assert main(["generate", cnf.as_posix(), "--reduction", "p4del",
                 "--out", prefix]) == 0
    head = (tmp_path / "p4.graph").read_text().splitlines()[0]
    assert "k=16" in head and "mode=deletion" in head and "targets=P4" in head
    capsys.readouterr()


def test_check_two_k2(tmp_path, capsys):
    p = tmp_path / "two_k2.graph"
    p.write_text("4 2\n0 1\n2 3\n")
    assert main(["check", str(p)]) == 0
    out = capsys.readouterr().out
    assert "trivially-perfect=yes" in out and "threshold=no" in out


def test_check_fig2(tmp_path, capsys):
    p = tmp_path / "fig2.graph"
    p.write_text(FIG2_TEXT)
    assert main(["check", str(p)]) == 0
    out = capsys.readouterr().out
    assert "trivially-perfect=yes" in out
    assert "bag | block | tail" in out
    assert "{3,4} | ({3,4}, {3,4,5,6,7}) | {0,3,4}" in out


def test_check_c5(tmp_path, capsys):
    p = tmp_path / "c5.graph"
    p.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
    assert main(["check", str(p)]) == 0
    out = capsys.readouterr().out
    assert "pseudosplit=yes" in out and "split=no" in out


def test_oracle_subcommand(c4_file, capsys):
    assert main(["oracle", c4_file, "--patterns", "C4", "--k", "1",
                 "--mode", "deletion"]) == 0
    assert capsys.readouterr().out.startswith("OPT 1")


def test_corpus_algo_agreement(capsys):
    assert CORPUS, "corpus files missing"
    for path in CORPUS:
        for k in (2, 4):
            results = {}
            for algo in ("subexp", "branch"):
                code = main(["solve", path, "--problem", "tp", "--k", str(k),
                             "--algo", algo, "--verify"])
                out = capsys.readouterr().out
                results[algo] = (code, out.splitlines()[0])
            assert results["subexp"] == results["branch"], (path, k, results)


_OUT_RE = re.compile(r"\AOPT \d+\n(\d+ \d+\n)*\Z|\ANO\n\Z")


def test_exit_codes_and_grammar_random_invocations(tmp_path, capsys):
    rng = random.Random(99)
    problems = ["tp", "threshold", "pseudosplit", "split", "ffree:C4,P4"]
    for i in range(120):
        n = rng.randrange(2, 7)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.5]
        path = tmp_path / f"g{i}.graph"
        path.write_text(f"{n} {len(pairs)}\n" +
                        "".join(f"{u} {v}\n" for u, v in pairs))
        problem = problems[i % len(problems)]
        k = rng.randrange(0, 4)
        code = main(["solve", str(path), "--problem", problem, "--k", str(k)])
        out = capsys.readouterr().out
        assert _OUT_RE.match(out), out
        assert code == (0 if out.startswith("OPT") else 1)


def test_seed_env_override(tmp_path, capsys, monkeypatch):
    p = tmp_path / "two_k2.graph"
    p.write_text("4 2\n0 1\n2 3\n")
    monkeypatch.setenv("FCOMPLETE_SEED", "not-an-int")
    assert main(["solve", str(p), "--problem", "threshold", "--k", "2",
                 "--coloring-mode", "randomized"]) == 2
    monkeypatch.setenv("FCOMPLETE_SEED", "7")
    assert main(["solve", str(p), "--problem", "threshold", "--k", "2",
                 "--coloring-mode", "randomized", "--trials", "60"]) == 0
    capsys.readouterr()
