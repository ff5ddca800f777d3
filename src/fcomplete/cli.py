"""Command-line front end: solve, generate, check, oracle subcommands."""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from . import reductions
from .graph import (
    CompletionSet,
    Graph,
    GraphFormatError,
    Pattern,
    bits,
    format_graph,
    format_solution,
    is_f_free,
    parse_graph,
)
from .oracles import exact_completion
from .pseudosplit import pseudosplit_complete
from .recognition import (
    blocks_of,
    build_ucd,
    is_pseudosplit,
    is_split,
    is_threshold,
    is_trivially_perfect,
)
from .threshold_subexp import (
    StateCapError,
    threshold_complete,
    threshold_complete_coloring,
)
from .tp_subexp import format_stats, tp_complete

EXIT_YES, EXIT_NO, EXIT_ERROR = 0, 1, 2

_PROBLEM_PATTERNS = {
    "tp": (Pattern.C4, Pattern.P4),
    "threshold": (Pattern.TWO_K2, Pattern.C4, Pattern.P4),
    "pseudosplit": (Pattern.TWO_K2, Pattern.C4),
    "split": (Pattern.TWO_K2, Pattern.C4, Pattern.C5),
}


class CliError(Exception):
    pass


def _read_graph(path: str) -> Graph:
    try:
        with open(path) as fh:
            return parse_graph(fh.read())
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    except GraphFormatError as exc:
        raise CliError(f"{path}: {exc}")


def _parse_problem(label: str):
    if label in _PROBLEM_PATTERNS:
        return label, _PROBLEM_PATTERNS[label]
    if label.startswith("ffree:"):
        labels = [s for s in label[len("ffree:"):].split(",") if s]
        if not labels:
            raise CliError("ffree requires an explicit pattern list")
        try:
            return "ffree", tuple(Pattern.from_label(s) for s in labels)
        except ValueError as exc:
            raise CliError(str(exc))
    raise CliError(f"unknown problem {label!r}")


def _budget(args, g: Graph) -> int:
    if args.optimize:
        return g.n * (g.n - 1) // 2
    if args.k is None:
        raise CliError("either --k or --optimize is required")
    if args.k < 0:
        raise CliError("budget must be non-negative")
    return args.k


def _seed(args) -> int:
    env = os.environ.get("FCOMPLETE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CliError("FCOMPLETE_SEED must be an integer")
    return args.seed


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run_solve(args) -> int:
    g = _read_graph(args.input)
    problem, patterns = _parse_problem(args.problem)
    k = _budget(args, g)
    seed = _seed(args)
    if args.trials is not None and args.trials < 1:
        raise CliError(f"--trials must be at least 1, got {args.trials}")
    stats: Optional[dict] = {} if args.stats else None
    algo = args.algo
    solution: Optional[CompletionSet]
    if problem == "ffree" or algo == "branch" or problem == "split":
        solution = exact_completion(g, patterns, k, stats=stats)
    elif problem == "tp":
        solution = tp_complete(g, k, stats=stats)
    elif problem == "threshold":
        try:
            if algo == "subexp":
                solution = threshold_complete_coloring(
                    g, k, mode=args.coloring_mode, trials=args.trials,
                    seed=seed, stats=stats)
            else:
                solution = threshold_complete(g, k, stats=stats)
        except (ValueError, StateCapError) as exc:
            raise CliError(str(exc))
    elif problem == "pseudosplit":
        solution = pseudosplit_complete(g, k, stats=stats)
    else:  # pragma: no cover
        raise CliError(f"unhandled problem {problem}")
    if args.verify and solution is not None:
        solution.validate_against(g)
        if not is_f_free(solution.apply(g), patterns):
            raise CliError("internal error: solution failed verification")
    if stats is not None:
        sys.stderr.write(format_stats(stats))
    _emit(args, format_solution(solution))
    return EXIT_YES if solution is not None else EXIT_NO


def run_generate(args) -> int:
    try:
        with open(args.input) as fh:
            num_vars, raw = reductions.parse_dimacs(fh.read())
        f = reductions.regularize(num_vars, raw)
        if args.reduction == "c4del":
            inst = reductions.reduce_to_c4_deletion(f)
        elif args.reduction == "c4compl":
            inst = reductions.reduce_to_c4_completion(
                reductions.ensure_min_occurrences(f))
        elif args.reduction == "p4del":
            inst = reductions.reduce_to_p4_deletion(f)
        else:
            raise CliError(f"unknown reduction {args.reduction!r}")
    except (OSError, ValueError) as exc:
        raise CliError(str(exc))
    targets = ",".join(p.value for p in inst.targets)
    header = (f"reduction={inst.name} k={inst.budget} mode={inst.mode} "
              f"targets={targets}")
    prefix = args.out
    with open(prefix + ".graph", "w") as fh:
        fh.write(format_graph(inst.graph, header))
    with open(prefix + ".roles", "w") as fh:
        for v in range(inst.graph.n):
            fh.write(f"{v} {inst.roles[v]}\n")
    print(f"wrote {prefix}.graph and {prefix}.roles ({header})")
    return EXIT_YES


def _fmt_set(mask: int) -> str:
    return "{" + ",".join(str(v) for v in bits(mask)) + "}"


def run_check(args) -> int:
    g = _read_graph(args.input)
    tp = is_trivially_perfect(g)
    print(f"trivially-perfect={'yes' if tp else 'no'}")
    print(f"split={'yes' if is_split(g) else 'no'}")
    print(f"threshold={'yes' if is_threshold(g) else 'no'}")
    ps, _ = is_pseudosplit(g)
    print(f"pseudosplit={'yes' if ps else 'no'}")
    if tp:
        ucd = build_ucd(g)
        print("bag | block | tail")
        for block in blocks_of(ucd):
            print(f"{_fmt_set(block.bag)} | ({_fmt_set(block.bag)}, "
                  f"{_fmt_set(block.subtree)}) | {_fmt_set(block.tail)}")
    return EXIT_YES


def run_oracle(args) -> int:
    g = _read_graph(args.input)
    try:
        patterns = tuple(Pattern.from_label(s)
                         for s in args.patterns.split(",") if s)
    except ValueError as exc:
        raise CliError(str(exc))
    if not patterns:
        raise CliError("--patterns requires at least one pattern")
    k = _budget(args, g)
    solution = exact_completion(g, patterns, k, args.mode)
    _emit(args, format_solution(solution))
    return EXIT_YES if solution is not None else EXIT_NO


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fcomplete",
        description="Exact solvers and instance generators for F-Completion "
                    "graph modification problems.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a completion problem")
    solve.add_argument("input", help="graph file (edge-list format)")
    solve.add_argument("--problem", required=True,
                       help="tp | threshold | pseudosplit | split | ffree:<patterns>")
    solve.add_argument("--k", type=int, default=None)
    solve.add_argument("--optimize", action="store_true",
                       help="ignore --k and find the optimum")
    solve.add_argument("--algo", choices=("auto", "subexp", "branch"),
                       default="auto")
    solve.add_argument("--coloring-mode", choices=("exhaustive", "randomized"),
                       default="exhaustive")
    solve.add_argument("--trials", type=int, default=None)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--stats", action="store_true")
    solve.add_argument("--verify", action="store_true")
    solve.add_argument("-o", "--output", default=None)
    solve.set_defaults(func=run_solve)

    gen = sub.add_parser("generate", help="generate a hardness instance from CNF")
    gen.add_argument("input", help="DIMACS CNF file")
    gen.add_argument("--reduction", required=True,
                     choices=("c4del", "c4compl", "p4del"))
    gen.add_argument("--out", required=True, help="output path prefix")
    gen.set_defaults(func=run_generate)

    chk = sub.add_parser("check", help="report graph class membership")
    chk.add_argument("input")
    chk.set_defaults(func=run_check)

    orc = sub.add_parser("oracle", help="run the branching oracle directly")
    orc.add_argument("input")
    orc.add_argument("--patterns", required=True, help="comma-separated list")
    orc.add_argument("--k", type=int, default=None)
    orc.add_argument("--optimize", action="store_true")
    orc.add_argument("--mode", choices=("addition", "deletion"),
                     default="addition")
    orc.add_argument("-o", "--output", default=None)
    orc.set_defaults(func=run_oracle)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
