"""Differentially private release of histograms over unknown domains.

Mechanisms only ever emit labels present in their input; thresholds are
calibrated so that small counts surface with probability at most delta.
Budgets are tracked as approximate zero-concentrated DP and composed in
rho-space.
"""

__version__ = "0.1.0"

from .accountant import (
    CdpBudget,
    DpBudget,
    RenyiOrder,
    cdp_to_dp,
    cdp_to_dp_optimize,
    compose,
    dp_to_cdp,
    expmech_cdp,
    gaussian_cdp,
    laplace_pure_dp,
)
from .core import (
    BOTTOM,
    Histogram,
    IngestionError,
    ParameterError,
    RandomSource,
    SensitivityBound,
    normal_cdf,
    normal_inverse_cdf,
    sample_gaussian,
    sample_gumbel,
    sample_laplace,
)
from .gumbel import RankedList, gumbel_threshold, release_gumbel_topk
from .release import ReleaseReport, release, threshold_gaussian, threshold_laplace
from .stream import (
    Counter,
    CounterConfig,
    StreamEvent,
    active_node_count,
)
from .topk import TruncatedHistogram, release_topk, topk_threshold, truncate_topk
from .validation import (
    DeltaEstimate,
    MechanismConfig,
    NeighborPair,
    estimate_delta_event,
    exact_expmech_topk_distribution,
    estimate_renyi_divergence,
    make_boundary_neighbors,
    sample_gumbel_topk_outcomes,
    tv_distance,
    wilson_upper,
)

__all__ = [
    "__version__",
    "BOTTOM",
    "CdpBudget",
    "Counter",
    "CounterConfig",
    "DeltaEstimate",
    "DpBudget",
    "Histogram",
    "IngestionError",
    "MechanismConfig",
    "NeighborPair",
    "ParameterError",
    "RandomSource",
    "RankedList",
    "ReleaseReport",
    "RenyiOrder",
    "SensitivityBound",
    "StreamEvent",
    "TruncatedHistogram",
    "active_node_count",
    "cdp_to_dp",
    "cdp_to_dp_optimize",
    "compose",
    "dp_to_cdp",
    "estimate_delta_event",
    "estimate_renyi_divergence",
    "exact_expmech_topk_distribution",
    "expmech_cdp",
    "gaussian_cdp",
    "gumbel_threshold",
    "laplace_pure_dp",
    "make_boundary_neighbors",
    "normal_cdf",
    "normal_inverse_cdf",
    "release",
    "release_gumbel_topk",
    "release_topk",
    "sample_gaussian",
    "sample_gumbel",
    "sample_gumbel_topk_outcomes",
    "sample_laplace",
    "threshold_gaussian",
    "threshold_laplace",
    "topk_threshold",
    "truncate_topk",
    "tv_distance",
    "wilson_upper",
]
