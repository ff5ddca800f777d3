"""Outside-in tracing of the program's layers.

The tracer replaces public functions of ``fcomplete`` modules with wrappers
and puts the originals back on :meth:`Tracer.restore`.  A function that a
module imports by name is wrapped in that module's namespace too, since the
caller looks it up there: every binding of the same function object in any
``fcomplete`` module gets the same wrapper.  Spans live in memory as
``[name, start, end, parent, info]`` and are written out by :meth:`dump`.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

perf = time.perf_counter

# (module, function, summary of the result kept in the span's info)
SPANNED = [
    ("tp_subexp", "tp_complete",
     lambda a, kw, r: _stats(kw, "family", "blocks", "fallbacks")),
    ("tp_subexp", "kernelize", None),
    ("tp_subexp", "enumerate_vital_pmcs", lambda a, kw, r: len(r)),
    ("tp_subexp", "near_clique_family", lambda a, kw, r: len(r)),
    ("tp_subexp", "build_blocks", lambda a, kw, r: len(r)),
    ("tp_subexp", "dp_solve", lambda a, kw, r: len(r.table) if r else 0),
    ("oracles", "exact_completion", None),
    ("oracles", "exact_split_completion",
     lambda a, kw, r: (a[0].n, r is not None)),
    ("oracles", "exact_chain_completion", None),
    ("recognition", "split_partitions_within", None),
    ("recognition", "is_split", None),
    ("recognition", "is_trivially_perfect", None),
    ("threshold_subexp", "threshold_complete",
     lambda a, kw, r: _stats(kw, "colorings", "assemblies", "pairs_tested")),
    ("pseudosplit", "pseudosplit_complete",
     lambda a, kw, r: (a[0].n, None if kw.get("trace") is None
                       else len(kw["trace"]))),
    ("pseudosplit", "enumerate_c5_seeds", lambda a, kw, r: len(r)),
    ("pseudosplit", "build_augmented_instance", None),
    ("reductions", "regularize", None),
    ("reductions", "reduce_to_c4_deletion", None),
    ("cli", "main", None),
]


def _stats(kw, *keys):
    stats = kw.get("stats")
    return None if stats is None else {k: stats[k] for k in keys}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._oracle_depth = 0
        self._patched: list[tuple[object, str, object]] = []

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        mods = [m for name, m in sys.modules.items()
                if name == "fcomplete" or name.startswith("fcomplete.")]
        for mod, name, summary in SPANNED:
            orig = getattr(sys.modules[f"fcomplete.{mod}"], name)
            self._rebind(mods, orig, self._span(f"{mod}.{name}", orig, summary))
        graph = sys.modules["fcomplete.graph"]
        self._rebind(mods, graph.occurrences, self._count_scans(graph.occurrences))
        self._rebind(mods, graph.is_f_free,
                     self._count("graph.is_f_free.calls", graph.is_f_free))
        for name in ("add_edges", "remove_edges"):
            orig = getattr(graph.Graph, name)
            self._patched.append((graph.Graph, name, orig))
            setattr(graph.Graph, name, self._count_nodes(orig))

    def restore(self) -> None:
        while self._patched:
            owner, name, orig = self._patched.pop()
            setattr(owner, name, orig)

    def _rebind(self, mods, orig, wrapper) -> None:
        for mod in mods:
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self._patched.append((mod, name, orig))
                    setattr(mod, name, wrapper)

    # --- wrappers -----------------------------------------------------------

    def _span(self, name, fn, summary):
        spans, stack = self.spans, self._stack
        oracle = name == "oracles.exact_completion"

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            if oracle:
                self._oracle_depth += 1
            rec[1] = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[2] = perf()
                rec[4] = ("raised", type(exc).__name__)
                raise
            else:
                rec[2] = perf()
                if summary is not None:
                    rec[4] = summary(args, kwargs, result)
                return result
            finally:
                stack.pop()
                if oracle:
                    self._oracle_depth -= 1

        return wrapper

    def _count(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_scans(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts["graph.occurrences.scans"] += 1
            if self._oracle_depth:
                counts["oracles.exact_completion.occurrence_scans"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_nodes(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self._oracle_depth:
                counts["oracles.exact_completion.nodes"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- output -------------------------------------------------------------

    def dump(self, path: str, t0: float, stop: int) -> None:
        """Write the spans before index ``stop``, one JSON list per line."""
        with open(path, "w") as fh:
            for name, start, end, parent, info in self.spans[:stop]:
                fh.write(json.dumps([name, round(start - t0, 7),
                                     round(end - t0, 7), parent,
                                     info if not isinstance(info, tuple)
                                     else list(info)]) + "\n")


class SpanIndex:
    """Derived views over a slice of spans: totals, self times, children."""

    def __init__(self, spans: list[list], first: int):
        self.spans = spans
        self.first = first
        self.children: dict[int, list[int]] = {}
        for i in range(first, len(spans)):
            self.children.setdefault(spans[i][3], []).append(i)

    def of(self, name: str) -> list[int]:
        return [i for i in range(self.first, len(self.spans))
                if self.spans[i][0] == name]

    def dur(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def total_s(self, name: str) -> float:
        """Time in outermost spans of ``name`` (a nested call counts once)."""
        total = 0.0
        for i in self.of(name):
            p = self.spans[i][3]
            while p >= self.first and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < self.first:
                total += self.dur(i)
        return total

    def self_s(self, name: str) -> float:
        return sum(self.dur(i) - sum(self.dur(c) for c in self.children.get(i, ()))
                   for i in self.of(name))

    def kids(self, i: int, name: str) -> list[int]:
        return [c for c in self.children.get(i, ()) if self.spans[c][0] == name]

    def info(self, i: int):
        return self.spans[i][4]


def _raised(info) -> bool:
    return isinstance(info, tuple) and info[:1] == ("raised",)


def layer_metrics(tracer: Tracer, first: int, rounds: int,
                  extra: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics for one round, from the spans made after ``first``."""
    ix = SpanIndex(tracer.spans, first)
    c = tracer.counts
    out: dict[str, tuple[float, str]] = {}

    def per_round(name, value, unit):
        out[name] = (value / rounds, unit)

    def ratio(name, num, den):
        out[name] = (num / den if den else 0.0, "ratio")

    evp = ix.of("tp_subexp.enumerate_vital_pmcs")
    capped = [i for i in evp if _raised(ix.info(i))]
    per_round("tp_subexp.enumerate_vital_pmcs.s",
              ix.total_s("tp_subexp.enumerate_vital_pmcs"), "s")
    per_round("tp_subexp.enumerate_vital_pmcs.capped_s",
              sum(ix.dur(i) for i in capped), "s")
    ratio("tp_subexp.enumerate_vital_pmcs.completed_ratio",
          len(evp) - len(capped), len(evp))
    for name, key, unit in (("near_clique_family", "sets", "count"),
                            ("build_blocks", "blocks", "count"),
                            ("dp_solve", "entries", "count")):
        full = f"tp_subexp.{name}"
        per_round(f"{full}.s", ix.total_s(full), "s")
        per_round(f"{full}.{key}", sum(ix.info(i) for i in ix.of(full)), unit)
    per_round("tp_subexp.kernelize.s", ix.total_s("tp_subexp.kernelize"), "s")
    per_round("tp_subexp.tp_complete.self_s",
              ix.self_s("tp_subexp.tp_complete"), "s")

    for name in ("oracles.exact_completion", "oracles.exact_split_completion",
                 "oracles.exact_chain_completion"):
        per_round(f"{name}.calls", len(ix.of(name)), "count")
        per_round(f"{name}.s", ix.total_s(name), "s")
    per_round("oracles.exact_completion.nodes",
              c["oracles.exact_completion.nodes"], "count")
    per_round("oracles.exact_completion.occurrence_scans",
              c["oracles.exact_completion.occurrence_scans"], "count")
    per_round("graph.occurrences.scans", c["graph.occurrences.scans"], "count")
    per_round("graph.is_f_free.calls", c["graph.is_f_free.calls"], "count")

    for name in ("recognition.split_partitions_within", "recognition.is_split",
                 "recognition.is_trivially_perfect"):
        per_round(f"{name}.calls", len(ix.of(name)), "count")
        per_round(f"{name}.s", ix.total_s(name), "s")

    thr = [ix.info(i) for i in ix.of("threshold_subexp.threshold_complete")]
    thr = [s for s in thr if isinstance(s, dict)]
    assemblies = sum(s["assemblies"] for s in thr)
    pairs_tested = sum(s["pairs_tested"] for s in thr)
    per_round("threshold_subexp.threshold_complete.self_s",
              ix.self_s("threshold_subexp.threshold_complete"), "s")
    per_round("threshold_subexp.threshold_complete.class_partitions",
              sum(s["colorings"] for s in thr), "count")
    per_round("threshold_subexp.threshold_complete.assemblies", assemblies, "count")
    per_round("threshold_subexp.threshold_complete.pairs_tested",
              pairs_tested, "count")
    ratio("threshold_subexp.threshold_complete.useful_ratio",
          pairs_tested, assemblies)

    seeds = ix.of("pseudosplit.enumerate_c5_seeds")
    built = len(ix.of("pseudosplit.build_augmented_instance"))
    solved = sum(ix.info(i)[1] or 0 for i in ix.of("pseudosplit.pseudosplit_complete"))
    per_round("pseudosplit.enumerate_c5_seeds.s",
              ix.total_s("pseudosplit.enumerate_c5_seeds"), "s")
    per_round("pseudosplit.enumerate_c5_seeds.seeds",
              sum(ix.info(i) for i in seeds), "count")
    per_round("pseudosplit.build_augmented_instance.calls", built, "count")
    per_round("pseudosplit.augmented_solved", solved, "count")
    ratio("pseudosplit.useful_ratio", solved, built)
    per_round("pseudosplit.pseudosplit_complete.self_s",
              ix.self_s("pseudosplit.pseudosplit_complete"), "s")

    setup = SpanIndex(tracer.spans[:first], 0)
    out["reductions.generate.s"] = (
        setup.total_s("reductions.regularize")
        + setup.total_s("reductions.reduce_to_c4_deletion"), "s")
    per_round("cli.main.self_s", ix.self_s("cli.main"), "s")
    per_round("cli.branch_fallbacks", extra["branch_fallbacks"], "count")
    out["solve_s_traced"] = (extra["solve_s"], "s")
    return out


def consistency_problems(tracer: Tracer, first: int) -> list[str]:
    """Totals reached by two independent paths that must agree."""
    ix = SpanIndex(tracer.spans, first)
    problems = []
    for i in ix.of("tp_subexp.tp_complete"):
        stats = ix.info(i)
        if not isinstance(stats, dict):
            continue
        evp = ix.kids(i, "tp_subexp.enumerate_vital_pmcs")
        family = sum(ix.info(c) for c in evp if not _raised(ix.info(c)))
        family += sum(ix.info(c) for c in ix.kids(i, "tp_subexp.near_clique_family"))
        blocks = sum(ix.info(c) for c in ix.kids(i, "tp_subexp.build_blocks"))
        capped = sum(1 for c in evp if _raised(ix.info(c)))
        for key, seen in (("family", family), ("blocks", blocks),
                          ("fallbacks", capped)):
            if stats[key] != seen:
                problems.append(f"tp_complete span {i}: stats[{key!r}] = "
                                f"{stats[key]}, wrappers saw {seen}")
    for i in ix.of("pseudosplit.pseudosplit_complete"):
        base_n, trace_len = ix.info(i)
        if trace_len is None:
            continue
        solved = sum(1 for c in ix.kids(i, "oracles.exact_split_completion")
                     if ix.info(c)[0] > base_n and ix.info(c)[1])
        if solved != trace_len:
            problems.append(f"pseudosplit_complete span {i}: trace holds "
                            f"{trace_len}, augmented solves returned {solved}")
    return problems
