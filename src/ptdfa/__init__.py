"""Minimization of DFAs with partial transition functions.

The main entry points are :func:`minimize` (O(m log n) partition
refinement), :func:`oracle_minimize` (quadratic brute-force ground
truth), and :func:`hopcroft_minimize` (the classic algorithm over the
sink-completed automaton).  All three return the same canonical minimal
automaton for any valid input.
"""

from .automaton import (
    AutomatonError, MinimizeStats, ParseError, PtDfa, UnreachableStateError,
    ValidationError, accepts, canonicalize, is_isomorphic, parse, serialize,
    validate,
)
from .hopcroft import CompletedDfa, hopcroft_minimize, sink_complete
from .minimizer import (
    Refinement, final_blocks, minimize, minimize_with_stats,
)
from .oracle import (
    AlphabetMismatchError, language_equal, language_partition, oracle_minimize,
)
from .preprocess import (
    InitialNotRetainedError, empty_dfa, relevant_states, restrict,
)
from .refinable_partition import RefinablePartition
from .splitter_init import init_trp_grouping
from .workload import bench, generate, parse_grid, rows_to_csv

__version__ = "0.1.0"

__all__ = [
    "AutomatonError", "ValidationError", "ParseError", "UnreachableStateError",
    "InitialNotRetainedError", "AlphabetMismatchError",
    "PtDfa", "MinimizeStats", "RefinablePartition", "Refinement",
    "CompletedDfa",
    "validate", "parse", "serialize", "canonicalize", "is_isomorphic",
    "accepts",
    "relevant_states", "restrict", "empty_dfa",
    "init_trp_grouping",
    "minimize", "minimize_with_stats", "final_blocks",
    "oracle_minimize", "language_equal", "language_partition",
    "hopcroft_minimize", "sink_complete",
    "generate", "bench", "rows_to_csv", "parse_grid",
    "__version__",
]
