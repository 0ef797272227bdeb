"""Entropy and integral-functional estimation from eps-close observation pairs.

The estimators in this package work for stationary sequences with short-range
(m-dependent) dependence, not just iid data: the variance plug-ins include
the lagged-coincidence corrections that dependence requires.  See the module
docstrings for the division of labor:

* ``core``        shared sample type, ball volumes, normal quantile, RNG streams
* ``paircount``   exact close-pair / lagged-triple counting (1-D rank windows,
                  grid or scan for d >= 2)
* ``estimators``  point estimates, variance plug-ins, pivotal residuals
* ``asymptotics`` confidence intervals and the Poisson/window approximations
* ``processes``   reference m-dependent generators with known truths
* ``gof``         maximum-entropy goodness-of-fit ratio
* ``discrete``    coincidence estimates for integer symbol sequences
* ``montecarlo``  replicated studies, KS testing, regime probes
* ``epskeys``     approximate key discovery for numeric tables
* ``cli``         command line front door
"""

from .asymptotics import (
    ConfidenceInterval,
    PoissonApprox,
    exp_pivot_ci,
    normal_ci,
    poisson_p_key,
)
from .core import (
    MAX_DIM,
    RngStream,
    SeriesSample,
    ball_volume,
    normal_cdf,
    normal_quantile,
    read_sample_csv,
    read_symbol_csv,
    standard_normals,
    unit_ball_volume,
    write_sample_csv,
    write_symbol_csv,
)
from .discrete import (
    DiscreteReport,
    DiscreteSample,
    discrete_h2,
    discrete_q2,
    discrete_report,
    discrete_residual,
    discrete_s2,
    discrete_u3,
)
from .epskeys import KeyCandidate, all_subsets, evaluate_subset, rank_candidates
from .estimators import (
    EstimateConfig,
    EstimateReport,
    ResidualKind,
    estimate_h2,
    estimate_h3,
    estimate_q2,
    estimate_report,
    estimate_u,
    estimate_u3,
    estimate_w,
    estimate_zeta,
    residual,
    residual_from_report,
    suggest_eps,
    triple_normalizer,
)
from .gof import GofResult, gof_statistic, k_d, sample_covariance
from .montecarlo import (
    SimulationOutcome,
    SimulationPlan,
    ks_test,
    probe_moments,
    probe_poisson_regime,
    run_residual_study,
    standardize_batch,
)
from .paircount import (
    NeighborCounts,
    PairCountResult,
    close_pairs,
    count_close_pairs,
    count_uh_triples,
    min_interpoint_distance,
    neighbor_counts,
)
from .processes import (
    GeneratedSeries,
    ProcessSpec,
    ProcessTruth,
    cauchy_ratio_process,
    copula_onedep_process,
    gaussian_ma_process,
    generate,
    iid_uniform_process,
    lognormal_ma_process,
    lognormal_onedep_process,
    ma2_normal_process,
    pearson2_max_entropy_constant,
    pearson2_process,
    pearson2_quantile,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_DIM",
    "ConfidenceInterval",
    "DiscreteReport",
    "DiscreteSample",
    "EstimateConfig",
    "EstimateReport",
    "GeneratedSeries",
    "GofResult",
    "KeyCandidate",
    "NeighborCounts",
    "PairCountResult",
    "PoissonApprox",
    "ProcessSpec",
    "ProcessTruth",
    "ResidualKind",
    "RngStream",
    "SeriesSample",
    "SimulationOutcome",
    "SimulationPlan",
    "all_subsets",
    "ball_volume",
    "cauchy_ratio_process",
    "close_pairs",
    "copula_onedep_process",
    "count_close_pairs",
    "count_uh_triples",
    "discrete_h2",
    "discrete_q2",
    "discrete_report",
    "discrete_residual",
    "discrete_s2",
    "discrete_u3",
    "estimate_h2",
    "estimate_h3",
    "estimate_q2",
    "estimate_report",
    "estimate_u",
    "estimate_u3",
    "estimate_w",
    "estimate_zeta",
    "evaluate_subset",
    "exp_pivot_ci",
    "gaussian_ma_process",
    "generate",
    "gof_statistic",
    "iid_uniform_process",
    "k_d",
    "ks_test",
    "lognormal_ma_process",
    "lognormal_onedep_process",
    "ma2_normal_process",
    "min_interpoint_distance",
    "neighbor_counts",
    "normal_cdf",
    "normal_ci",
    "normal_quantile",
    "pearson2_max_entropy_constant",
    "pearson2_process",
    "pearson2_quantile",
    "poisson_p_key",
    "probe_moments",
    "probe_poisson_regime",
    "rank_candidates",
    "read_sample_csv",
    "read_symbol_csv",
    "residual",
    "residual_from_report",
    "run_residual_study",
    "sample_covariance",
    "standard_normals",
    "standardize_batch",
    "suggest_eps",
    "triple_normalizer",
    "unit_ball_volume",
    "write_sample_csv",
    "write_symbol_csv",
]
