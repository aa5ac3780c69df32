"""skyforge: generate skyline datasets from a pool of source tables.

Given source tables, a set of performance measures to minimize, and an
estimator for a model's expected performance, the engine searches the space
of datasets reachable by value-cluster augmentation and reduction for a set
over which the model is expected to be Pareto-optimal, within a configurable
(1+epsilon) factor per measure.
"""

from .errors import (
    ArgumentError,
    EnumerationCapError,
    EstimatorFailure,
    SkyforgeError,
)
from .estimators import LookupEstimator, RidgeEstimator, SubprocessEstimator
from .measures import (
    MeasureSet,
    MeasureSpec,
    TestLog,
    build_correlation_graph,
    estimate_bounds,
    valuate,
)
from .operators import Bitmap, SearchState, StateSpace
from .oracle import (
    check_div_bound,
    check_eps_cover,
    enumerate_all,
    naive_dominates,
    naive_eps_dominates,
    naive_exact_pareto,
)
from .search import (
    RunResult,
    RunningGraph,
    SearchConfig,
    back_st,
    can_prune,
    dis_score,
    diversify_level,
    div_score,
    param_eps_dominates,
    run_algorithm,
)
from .skyline import SkylineGrid
from .tabular import (
    Literal,
    Relation,
    UniversalTable,
    build_universal,
    compress_rows,
    derive_all_literals,
    derive_literals,
    ingest_csv,
    kmeans_1d,
)

__version__ = "0.1.0"
