"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload tp-planted --seed 1 --seconds 30 --trace 0

The workload's instances are solved in whole rounds until the next round
would pass ``--seconds``; every answer is checked by ``check.py`` against the
family, the budget and the reference optimum.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` wraps the program's layers (``layers.py``)
and reports the per-layer metrics of one round, writing the spans to
``perfbench/.work/``.  See README.md.
"""

import time

T0 = time.perf_counter()
STARTUP_CPU_S = time.process_time()  # interpreter start-up, before T0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
sys.path.insert(0, HERE)

from check import FAMILIES, check_answer, min_edit, satisfiable  # noqa: E402
from instances import (RELABELINGS, WORKLOADS, base_graph, fingerprint,  # noqa: E402
                       format_edge_list, gnp, pool_rng, relabel)

FALLBACK_WARNING = "falling back to branching"

# The speed probe's time on the machine of README.md's figures when it is
# not slowed down; solve times are reported at that speed.
PROBE_REF_S = 0.0057
PROBE_EVERY_S = 0.25


class Speedometer:
    """Tracks how fast this machine runs Python right now.

    A shared host slows every process on it down by up to 2x, for seconds or
    minutes at a time, and CPU time slows down with wall time.  Between
    solves, at most every ``PROBE_EVERY_S`` seconds, this times a fixed job
    from ``check.py`` (``min_edit`` on one seeded ``G(8, 0.5)``; it shares no
    code with the program, so a change to the program does not move it).  A
    solve's time is scaled by ``PROBE_REF_S`` over the median of the probes
    around it, which gives its time at the reference speed.
    """

    def __init__(self):
        self.n, self.edges = gnp(pool_rng("probe", 8, 0.5, 3), 8, 0.5)
        self.times: list[float] = []
        self.last = float("-inf")
        self.probe()  # warm-up, not kept
        self.times.clear()

    def probe(self):
        t = time.perf_counter()
        min_edit(self.n, self.edges, "tp", "addition", 8)
        self.last = time.perf_counter()
        self.times.append(self.last - t)

    def mark(self) -> int:
        """Probe if it is due; the index of the latest probe."""
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.probe()
        return len(self.times) - 1

    def scale(self, mark: int) -> float:
        """Reference speed over the speed around a solve made after ``mark``."""
        return PROBE_REF_S / statistics.median(self.times[max(0, mark - 1):mark + 3])


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import ``fcomplete`` from this checkout's ``src``, nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import fcomplete
    from fcomplete import cli, graph, oracles, pseudosplit, reductions
    from fcomplete import threshold_subexp, tp_subexp
    if not os.path.abspath(fcomplete.__file__).startswith(src + os.sep):
        raise ImportError(f"fcomplete came from {fcomplete.__file__}, not {src}")
    return dict(cli=cli, graph=graph, oracles=oracles, pseudosplit=pseudosplit,
                reductions=reductions, threshold_subexp=threshold_subexp,
                tp_subexp=tp_subexp)


class Instance:
    """One relabelled pool entry and the solver call the workload makes."""

    def __init__(self, entry, seed, copy, prog, graph_dir):
        self.entry = entry
        self.name = f"{entry['id']}#{copy}"
        n, edges, extra = base_graph(entry, ROOT, prog["reductions"])
        if fingerprint(n, edges) != entry["fp"]:
            raise RuntimeError(f"{entry['id']} no longer matches reference.json;"
                               " run perfbench/make_reference.py")
        self.n, self.edges = relabel(n, edges, seed, self.name)
        self.budget = extra.get("budget", entry["budget"])
        self.sat = (satisfiable(extra["num_vars"], extra["clauses"])
                    if "clauses" in extra else None)
        self.graph = prog["graph"].Graph.from_edges(self.n, self.edges)
        self.prog = prog
        self.path = None
        if entry["solver"] == "cli":
            self.path = os.path.join(
                graph_dir, self.name.replace("/", "-").replace("#", "-") + ".graph")
            with open(self.path, "w") as fh:
                fh.write(format_edge_list(self.n, self.edges))
        self.patterns = tuple(prog["graph"].Pattern.from_label(p)
                              for p in FAMILIES[entry["family"]])

    def solve(self):
        """Returns (seconds, answer pairs or None, fallback warnings)."""
        e, p, g, k = self.entry, self.prog, self.graph, self.budget
        solver = e["solver"]
        if solver == "cli":
            out, err = io.StringIO(), io.StringIO()
            argv = ["solve", self.path, "--problem", e["family"], "--optimize"]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t = time.perf_counter()
                rc = p["cli"].main(argv)
                dt = time.perf_counter() - t
            return dt, parse_cli_answer(rc, out.getvalue()), \
                err.getvalue().count(FALLBACK_WARNING)
        t = time.perf_counter()
        if solver == "tp_complete":
            sol = p["tp_subexp"].tp_complete(g, k, stats={})
        elif solver == "exact_completion":
            sol = p["oracles"].exact_completion(g, self.patterns, k, e["mode"])
        elif solver == "threshold_complete":
            sol = p["threshold_subexp"].threshold_complete(g, k, stats={})
        elif solver == "pseudosplit_complete":
            sol = p["pseudosplit"].pseudosplit_complete(g, k, trace=[])
        else:
            raise ValueError(f"unknown solver {solver!r}")
        dt = time.perf_counter() - t
        return dt, None if sol is None else sol.pairs, 0

    def problems(self, pairs) -> list[str]:
        e = self.entry
        if self.sat is not None and (pairs is not None) != self.sat:
            return [f"answer {'missing' if pairs is None else 'exists'} but the formula "
                    f"is {'satisfiable' if self.sat else 'unsatisfiable'}"]
        if pairs is None:
            return [f"no answer, but the optimum is {e['opt']}"]
        found = check_answer(self.n, self.edges, pairs, e["family"], e["mode"],
                             self.budget)
        if not found and len(pairs) != e["opt"]:
            found.append(f"size {len(pairs)}, reference optimum {e['opt']}")
        return found


def parse_cli_answer(rc, text):
    lines = text.split("\n")
    if rc != 0 or not lines[0].startswith("OPT "):
        return None
    size = int(lines[0].split()[1])
    return tuple(tuple(int(x) for x in line.split()) for line in lines[1:1 + size])


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit so the clean-up in ``finally`` runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        prog = import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from layers import Tracer
        tracer = Tracer()
        tracer.install()
    with open(os.path.join(HERE, "reference.json")) as fh:
        pool = [e for e in json.load(fh)["instances"]
                if e["workload"] == args.workload]
    graph_dir = os.path.join(WORK, f"graphs-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(graph_dir, exist_ok=True)
    try:
        instances = [Instance(e, args.seed, copy, prog, graph_dir) for e in pool
                     for copy in range(RELABELINGS[args.workload])]
        random.Random(args.seed).shuffle(instances)
        setup_s = STARTUP_CPU_S + time.perf_counter() - T0
        return measure(args, instances, setup_s, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(graph_dir, ignore_errors=True)


def measure(args, instances, setup_s, tracer) -> int:
    """Solve whole rounds until the next one would pass ``args.seconds``."""
    first_span = len(tracer.spans) if tracer else 0
    if tracer:
        tracer.counts.clear()
    round_one_end = None
    checked: dict = {}
    speed = Speedometer()
    times: list[list[tuple[float, int]]] = [[] for _ in instances]
    attempted = failed = fallbacks = rounds = 0
    wrong = []
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        check_s = 0.0
        for inst, inst_times in zip(instances, times):
            attempted += 1
            mark = speed.mark()
            try:
                dt, pairs, warned = inst.solve()
            except Exception as exc:  # a failed solve is counted, not fatal
                failed += 1
                print(f"{inst.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            inst_times.append((dt, mark))
            fallbacks += warned
            key = (inst.name, pairs)
            if key not in checked:
                c0 = time.perf_counter()
                checked[key] = inst.problems(pairs)
                check_s += time.perf_counter() - c0
                wrong += [f"{inst.name}: {p}" for p in checked[key]]
        rounds += 1
        if tracer and round_one_end is None:
            round_one_end = len(tracer.spans)
        now = time.perf_counter()
        # The next round repeats these solves; their answers are checked already.
        if now - start + (now - r0 - check_s) > args.seconds:
            break
    speed.probe()  # the last solves' probes after them
    # Each solve of a round at the reference speed, its median over the
    # rounds.  (The fastest round would pick the round whose probes read
    # slowest against the solve, which biases it low by the probe's noise.)
    per_solve: list[float] = []
    raw_s = 0.0
    for inst_times in times:
        if inst_times:
            per_solve.append(statistics.median(
                dt * speed.scale(mark) for dt, mark in inst_times))
            raw_s += min(dt for dt, _ in inst_times)
    solve_s = sum(per_solve)
    if tracer is None:
        metrics = {
            "solve_s": (solve_s, "s"),
            "solve_ms_p50": (1000 * statistics.median(per_solve)
                             if per_solve else 0.0, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
            "setup_s": (setup_s, "s"),
        }
    else:
        from layers import consistency_problems, layer_metrics
        metrics = layer_metrics(tracer, first_span, rounds,
                                {"branch_fallbacks": fallbacks, "solve_s": solve_s})
        wrong += consistency_problems(tracer, first_span)
        os.makedirs(WORK, exist_ok=True)
        tracer.dump(os.path.join(WORK, f"trace-{args.workload}-{args.seed}.jsonl"),
                    T0, round_one_end)
    for line in wrong:
        print(f"WRONG {line}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {rounds} rounds of "
          f"{len(instances)} solves, solve_s {solve_s:.4f} at the reference "
          f"speed, {raw_s:.4f} as timed (fastest rounds); speed probe median "
          f"{1000 * statistics.median(speed.times):.3f} ms")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
