"""Numerical laboratory for accretive-operator semigroups and their
explicit convergence and metastability rates.

The package solves the second-order flow u'' in Au by finite differences
at r = 0, started for the nonlinear norm family from its closed-form
solution, exposes the resulting square-root semigroup, and
certifies the package's explicit rate functionals against sampled
trajectories and closed-form linear oracles.
"""

from .counterfunctions import (
    Counterfunction,
    MetastabilityRate,
    parse_counterfunction,
    query_budget,
)
from .operators import (
    AccretiveOperator,
    LinearMatrix,
    LinearPSD,
    NormSubdifferential,
    Rotation,
    ScaledIdentity,
    StronglyAccretive,
    verify_accretive,
)
from .rates import (
    ConvergenceModulus,
    ScenarioRateData,
    almost_orbit_cauchy_rate,
    cauchy_metastability_rate,
    closure_cauchy_rate,
    modulus_strongly_accretive,
    projection_residual_rate,
    residual_metastability_rate,
    semigroup_cauchy_rate,
    trunc_sub,
    window_end,
)
from .second_order import (
    AprioriBounds,
    SolverConfig,
    SqrtSemigroup,
    TimeGrid,
    Trajectory,
    check_apriori,
    linear_oracle,
    norm_oracle,
    solve_second_order,
)
from .spaces import SpaceContext
from .verification import (
    AlmostOrbit,
    RateReport,
    ScenarioBundle,
    fejer_report,
    first_order_trajectory,
    integral_liminf_search,
    make_almost_orbit,
    modulus_check,
    sweep_theorem,
)

__version__ = "0.1.0"

__all__ = [
    "AccretiveOperator",
    "AlmostOrbit",
    "AprioriBounds",
    "ConvergenceModulus",
    "Counterfunction",
    "LinearMatrix",
    "LinearPSD",
    "MetastabilityRate",
    "NormSubdifferential",
    "RateReport",
    "Rotation",
    "ScaledIdentity",
    "ScenarioBundle",
    "ScenarioRateData",
    "SolverConfig",
    "SpaceContext",
    "SqrtSemigroup",
    "StronglyAccretive",
    "TimeGrid",
    "Trajectory",
    "almost_orbit_cauchy_rate",
    "cauchy_metastability_rate",
    "check_apriori",
    "closure_cauchy_rate",
    "fejer_report",
    "first_order_trajectory",
    "integral_liminf_search",
    "linear_oracle",
    "make_almost_orbit",
    "modulus_check",
    "modulus_strongly_accretive",
    "norm_oracle",
    "parse_counterfunction",
    "projection_residual_rate",
    "query_budget",
    "residual_metastability_rate",
    "semigroup_cauchy_rate",
    "solve_second_order",
    "sweep_theorem",
    "trunc_sub",
    "verify_accretive",
    "window_end",
]
