"""One entry point for every F-Completion problem: the engine choice.

Problems are the labels of :data:`graph.FAMILIES` (``tp``, ``threshold``,
``pseudosplit``, ``split``) and ``ffree:<patterns>``.  Engines per ``algo``:

* ``auto``: the root-choice DP ``tp_complete_dp``, the peeling DP
  ``threshold_complete``, and the oracle for ``pseudosplit``, ``split`` and
  ``ffree:``.
* ``subexp``: the paper's pipelines ``tp_complete``,
  ``threshold_complete_coloring`` and ``pseudosplit_complete``; the oracle
  for ``split`` and ``ffree:``.
* ``branch``: the oracle, :func:`exact_completion`.

Engines are module globals looked up at call time, not a table of function
objects, so rebinding a module attribute (a tracer, a monkeypatch) reaches
the calls made here.
"""

from __future__ import annotations

from typing import Optional

from .graph import FAMILIES, CompletionSet, Graph, Pattern
from .oracles import exact_completion
from .pseudosplit import pseudosplit_complete
from .threshold_subexp import threshold_complete, threshold_complete_coloring
from .tp_subexp import tp_complete, tp_complete_dp

ALGOS = ("auto", "subexp", "branch")


def problem_family(problem: str) -> tuple[Pattern, ...]:
    """Obstruction family of a problem label; ValueError when unknown."""
    if problem in FAMILIES:
        return FAMILIES[problem]
    if problem.startswith("ffree:"):
        labels = [s for s in problem[len("ffree:"):].split(",") if s]
        if not labels:
            raise ValueError("ffree requires an explicit pattern list")
        return tuple(Pattern.from_label(s) for s in labels)
    raise ValueError(f"unknown problem {problem!r}")


def solve(g: Graph, problem: str, k: int, algo: str = "auto",
          stats: Optional[dict] = None, *, coloring_mode: str = "exhaustive",
          trials: Optional[int] = None, seed: int = 0) -> Optional[CompletionSet]:
    """Minimum completion of ``g`` for ``problem`` within ``k``, or None.

    ``coloring_mode``, ``trials`` and ``seed`` reach only the coloring
    engine (``threshold`` under ``subexp``); ``trials`` below 1 is a
    ValueError for every engine.  ``stats`` receives the chosen engine's
    record.  Raises ValueError on a bad label, ``algo`` or budget, and
    ``StateCapError`` when the TP or threshold DP exceeds its cap.
    """
    patterns = problem_family(problem)
    if algo not in ALGOS:
        raise ValueError(f"unknown algo {algo!r}; expected one of {ALGOS}")
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if problem == "tp" and algo == "auto":
        return tp_complete_dp(g, k, stats=stats)
    if problem == "tp" and algo == "subexp":
        return tp_complete(g, k, stats=stats)
    if problem == "threshold" and algo == "auto":
        return threshold_complete(g, k, stats=stats)
    if problem == "threshold" and algo == "subexp":
        return threshold_complete_coloring(g, k, mode=coloring_mode,
                                           trials=trials, seed=seed,
                                           stats=stats)
    if problem == "pseudosplit" and algo == "subexp":
        return pseudosplit_complete(g, k, stats=stats)
    return exact_completion(g, patterns, k, stats=stats)


def format_stats(stats: dict) -> str:
    """Render any engine's stats record as the CLI's key=value text block."""
    keys = ["n", "k", "family", "blocks", "dp_pairs", "fallbacks", "value",
            "elapsed"]
    lines = []
    for key in keys:
        if key in stats:
            val = stats[key]
            if isinstance(val, float):
                val = f"{val:.3f}"
            lines.append(f"{key}={val}")
    lines.extend(f"{k}={v}" for k, v in stats.items() if k not in keys)
    return "\n".join(lines) + "\n"
