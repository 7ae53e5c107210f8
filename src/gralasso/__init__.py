"""Cellwise-robust variable selection for linear regression.

The core estimator plugs a Gaussian-rank correlation matrix and Qn scales
into a covariance-form adaptive Lasso, so individual outlying cells cannot
leverage the fit. The package also ships the nonrobust Pearson baselines,
a cellwise-contamination simulator and a benchmark grid runner, all behind
one CLI (``gralasso``).
"""

from .data import DataMatrix
from .robust_stats import (
    median,
    normal_scores,
    qn_scale,
    ranks,
    std_normal_quantile,
)
from .covariance import (
    CorrelationMatrix,
    CovarianceModel,
    assemble_covariance,
    gaussian_rank_corr_matrix,
    pearson_corr_matrix,
    score_matrix,
    sqrt_factorize,
)
from .regression import (
    AdaptiveWeights,
    CvCurve,
    LassoPath,
    SelectionFit,
    adaptive_weights,
    column_summaries,
    cross_validate,
    destandardize,
    fit_gr_alasso,
    fit_path,
    initial_estimate_direct,
    initial_estimate_ridge,
    lambda_grid,
    marginal_gr_correlations,
    screen_top_k,
)
from .simulation import (
    BenchmarkRecord,
    ContaminationSpec,
    SelectionRates,
    SimDesign,
    aggregate_records,
    cell_seed,
    compute_metrics,
    contaminate_cells,
    gen_design,
    gen_response,
    run_grid,
    selection_stability_study,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DataMatrix",
    "median",
    "normal_scores",
    "qn_scale",
    "ranks",
    "std_normal_quantile",
    "CorrelationMatrix",
    "CovarianceModel",
    "assemble_covariance",
    "gaussian_rank_corr_matrix",
    "pearson_corr_matrix",
    "score_matrix",
    "sqrt_factorize",
    "AdaptiveWeights",
    "CvCurve",
    "LassoPath",
    "SelectionFit",
    "adaptive_weights",
    "column_summaries",
    "cross_validate",
    "destandardize",
    "fit_gr_alasso",
    "fit_path",
    "initial_estimate_direct",
    "initial_estimate_ridge",
    "lambda_grid",
    "marginal_gr_correlations",
    "screen_top_k",
    "BenchmarkRecord",
    "ContaminationSpec",
    "SelectionRates",
    "SimDesign",
    "aggregate_records",
    "cell_seed",
    "compute_metrics",
    "contaminate_cells",
    "gen_design",
    "gen_response",
    "run_grid",
    "selection_stability_study",
]
