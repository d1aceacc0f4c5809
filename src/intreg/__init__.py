"""Interval-valued linear regression by constrained least squares and Lasso.

Intervals are parametrized by midpoint and spread.  The model regresses both
components of the response on the midpoints and spreads of the regressors,
with spread-side coefficients constrained so that interval residuals always
exist.  Estimation is by ordinary least squares plus an exactly solved
complementarity QP, by independently cross-validated Lasso penalties, or by
a budgeted-offset comparison estimator that ties the spread coefficients to
the midpoint coefficients.
"""

from . import errors
from .design import (
    Coefficients,
    DesignSystem,
    VARIANT_FULL,
    VARIANT_MODEL_M,
    build_design,
)
from .intervals import (
    DEFAULT_TAU,
    Interval,
    IntervalSample,
    add_scaled,
    aumann_mean,
    dtau,
    dtau_covariance,
    hukuhara_diff,
    validate_tau,
)
from .io import FORMAT_INFSUP, FORMAT_MIDSPR, ingest, write_sample
from .lasso import (
    LassoPath,
    cross_validate,
    fit_lasso,
    fit_lasso_mid,
    fit_lasso_spr,
    lambda_grid,
)
from .lasso_ir import fit_lasso_ir, select_budget
from .lcp import Lcp, LcpSolution, Qp, lemke_solve, qp_to_lcp, solve_qp
from .least_squares import (
    FitResult,
    estimate_intercept,
    fit_ls,
    mean_squared_unweighted,
)

__version__ = "0.1.0"

__all__ = [
    "Coefficients",
    "DesignSystem",
    "DEFAULT_TAU",
    "FORMAT_INFSUP",
    "FORMAT_MIDSPR",
    "FitResult",
    "Interval",
    "IntervalSample",
    "LassoPath",
    "Lcp",
    "LcpSolution",
    "Qp",
    "VARIANT_FULL",
    "VARIANT_MODEL_M",
    "add_scaled",
    "aumann_mean",
    "build_design",
    "cross_validate",
    "dtau",
    "dtau_covariance",
    "errors",
    "estimate_intercept",
    "fit_lasso",
    "fit_lasso_ir",
    "fit_lasso_mid",
    "fit_lasso_spr",
    "fit_ls",
    "hukuhara_diff",
    "ingest",
    "lambda_grid",
    "lemke_solve",
    "mean_squared_unweighted",
    "qp_to_lcp",
    "select_budget",
    "solve_qp",
    "validate_tau",
    "write_sample",
]
