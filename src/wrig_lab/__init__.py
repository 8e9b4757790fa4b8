"""Weighted random intersection graphs: exact cut/discrepancy evaluators,
randomized max-cut heuristics, weak bipartization, and a Monte Carlo
experiment harness.
"""

from .bipartization import (
    BipartizationOutcome,
    VertexLabelSequence,
    count_sequences_exact,
    expected_sequence_count,
    weak_bipartization,
)
from .core import (
    Coloring,
    InputError,
    RepresentationMatrix,
    cut_weight,
    discrepancy,
    norm_sq,
    row_sums,
)
from .cuts import (
    CutResult,
    beta_lower_bound,
    brute_force_max_cut,
    brute_force_min_discrepancy,
    majority_cut,
    random_cut,
)
from .experiment import (
    ExperimentSpec,
    SummaryStats,
    TrialRecord,
    run_experiment,
    summarize,
)
from .sampling import (
    ModelParams,
    Seed,
    derive_rng,
    sample_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "BipartizationOutcome",
    "Coloring",
    "CutResult",
    "ExperimentSpec",
    "InputError",
    "ModelParams",
    "RepresentationMatrix",
    "Seed",
    "SummaryStats",
    "TrialRecord",
    "VertexLabelSequence",
    "beta_lower_bound",
    "brute_force_max_cut",
    "brute_force_min_discrepancy",
    "count_sequences_exact",
    "cut_weight",
    "derive_rng",
    "discrepancy",
    "expected_sequence_count",
    "majority_cut",
    "norm_sq",
    "random_cut",
    "row_sums",
    "run_experiment",
    "sample_matrix",
    "summarize",
    "weak_bipartization",
]
