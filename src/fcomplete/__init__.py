"""Exact solvers for F-Completion graph modification problems."""

from .graph import (
    FAMILIES,
    CertificationError,
    CompletionSet,
    Graph,
    GraphFormatError,
    Pattern,
    StateCapError,
    complement,
    find_induced,
    format_graph,
    format_solution,
    is_f_free,
    missing_edges_between,
    non_edges_within,
    occurrence_masks,
    parse_graph,
)
from .oracles import (
    enumerate_minimal_completions,
    exact_chain_completion,
    exact_completion,
    exact_split_completion,
    minimal_solutions_within,
)
from .pseudosplit import (
    build_augmented_instance,
    enumerate_c5_seeds,
    pseudosplit_complete,
)
from .recognition import (
    Block,
    SplitPartition,
    UniversalCliqueDecomposition,
    blocks_of,
    build_ucd,
    enumerate_split_partitions,
    is_chain,
    is_pseudosplit,
    is_split,
    is_threshold,
    is_trivially_perfect,
)
from .solve import problem_family, solve
from .threshold_subexp import (
    class_partitions,
    threshold_complete,
    threshold_complete_coloring,
)
from .tp_subexp import (
    build_blocks,
    dp_solve,
    enumerate_type1,
    enumerate_type2,
    enumerate_type3,
    enumerate_type4,
    enumerate_vital_pmcs,
    kernelize,
    tp_complete,
    tp_complete_dp,
)

__all__ = [name for name in dir() if not name.startswith("_")]
