"""Tools for deciding when one party of a tripartite quantum state can be
merged into another under PPT-preserving operations.

The package provides validated state containers, entropic measures and
distillability witnesses, the Bloch rank of a state family, named state
families, convex optimisers over the PPT set, and a criterion-based
classifier with a JSON command-line front end.
"""

__version__ = "0.1.0"

from .bloch import rank_of_family
from .classify import (
    INCONCLUSIVE,
    NO_PERFECT_MERGE,
    PERFECT,
    VANISHING,
    VERDICTS,
    ClassificationReport,
    CriterionResult,
    InconsistentCriteriaError,
    check_necessary_ppt,
    check_perfect_sufficient,
    check_sep_family_obstruction,
    check_vanishing_locc_merge,
    check_vanishing_ppt_merge,
    classify,
    fidelity_lower_bound,
    merging_cost_pure,
)
from .core import (
    DIMENSION_CAP,
    Bipartition,
    DensityMatrix,
    PureState,
    SizeLimitError,
    TripartiteState,
    partial_trace,
    partial_transpose,
    tensor,
)
from .families import (
    GenerationError,
    classical_correlated,
    ghz,
    perturb,
    phi_plus,
    product_example,
    product_pure,
    robust_vanishing_family,
    sep_no_merge_family,
)
from .measures import (
    WitnessValue,
    conditional_entropy,
    fidelity,
    hashing_witness,
    is_ppt,
    log_negativity,
    mutual_information,
    negativity_witness,
    trace_distance,
    von_neumann_entropy,
)
from .pptopt import (
    OPT_DIMENSION_CAP,
    GeoDistResult,
    PptOptConfig,
    PptOptResult,
    geometric_distillability_ppt,
    max_overlap_ppt,
    min_trace_distance_ppt,
    project_ppt_state,
)
from .stateio import dumps_state, load_state, loads_state, save_state

__all__ = [
    "__version__",
    # core
    "DIMENSION_CAP",
    "Bipartition",
    "DensityMatrix",
    "PureState",
    "SizeLimitError",
    "TripartiteState",
    "partial_trace",
    "partial_transpose",
    "tensor",
    # measures
    "WitnessValue",
    "conditional_entropy",
    "fidelity",
    "hashing_witness",
    "is_ppt",
    "log_negativity",
    "mutual_information",
    "negativity_witness",
    "trace_distance",
    "von_neumann_entropy",
    # bloch
    "rank_of_family",
    # families
    "GenerationError",
    "classical_correlated",
    "ghz",
    "perturb",
    "phi_plus",
    "product_example",
    "product_pure",
    "robust_vanishing_family",
    "sep_no_merge_family",
    # optimisers
    "OPT_DIMENSION_CAP",
    "GeoDistResult",
    "PptOptConfig",
    "PptOptResult",
    "geometric_distillability_ppt",
    "max_overlap_ppt",
    "min_trace_distance_ppt",
    "project_ppt_state",
    # classification
    "INCONCLUSIVE",
    "NO_PERFECT_MERGE",
    "PERFECT",
    "VANISHING",
    "VERDICTS",
    "ClassificationReport",
    "CriterionResult",
    "InconsistentCriteriaError",
    "check_necessary_ppt",
    "check_perfect_sufficient",
    "check_sep_family_obstruction",
    "check_vanishing_locc_merge",
    "check_vanishing_ppt_merge",
    "classify",
    "fidelity_lower_bound",
    "merging_cost_pure",
    # io
    "dumps_state",
    "load_state",
    "loads_state",
    "save_state",
]
