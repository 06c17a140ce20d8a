"""Two-point concentration toolkit for clique-free subgraphs of dense
random graphs.

The package computes the predicted location (a point or short interval)
of the maximum number of vertices inducing no clique on r+1 vertices in a
uniform random graph, constructs the certificate structures behind the
prediction, and verifies both against exact solvers and seeded Monte
Carlo experiments.
"""

from .census import CensusResult, census, cover_family
from .critical import (
    CriticalWindow,
    chromatic_number,
    concentration_window,
    first_vanishing_size,
    is_color_critical,
    log_expected_partite,
    log_partite_count,
    partite_exponent_residual,
)
from .enumeration import PartiteCensus, partite_census
from .errors import (
    CliquefreeError,
    Graph6Error,
    NodeLimitError,
    ThresholdChainError,
)
from .experiments import (
    ExperimentReport,
    alpha_distribution,
    hitting_times,
    poisson_check,
    tv_to_poisson,
    witness_rate,
)
from .graphs import (
    ExposureStream,
    Graph,
    covers_edge,
    edge_coins,
    graph6_decode,
    graph6_encode,
    mask_to_vertices,
    parse_edge_list,
    read_graph,
    sample_graph,
)
from .logmath import (
    LogValue,
    expected_defect_sets,
    log_binomial,
    poisson_pmf,
    poisson_tail,
    stein_chen_bound,
)
from .profiles import (
    BreakpointProfile,
    breakpoint_profile,
    interval_length_multiset,
    mu_xi,
    mu_xi_table,
)
from .rng import stream_at, stream_block, sub_seed
from .solver import (
    DefectStructure,
    SolveResult,
    build_structure,
    has_clique,
    max_clique_free,
    max_pattern_free,
    verify_structure,
)
from .thresholds import (
    PredictedPmf,
    ThresholdTable,
    level,
    level_threshold,
    predicted_interval,
    predicted_pmf,
    threshold_slack,
    threshold_table,
)

__version__ = "0.1.0"
