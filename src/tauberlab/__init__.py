"""Counterexample constructions for Tauberian remainder questions.

Builds a smoothed growth function W from a decay rate, evaluates the
exponentially weighted oscillatory integrals S and T and the tail
integral tau driven by the phase x*W(x), analytically continues the
associated Laplace transforms by contour bending, and verifies the
advertised oscillation and continuation properties end to end.
"""

from .quadrature import QuadratureConfig, QuadratureError
from .rates import (
    GrowthTarget,
    RateFunction,
    catalog,
    growth_target,
    load_table,
    sup_envelope,
    validate_growth_target,
    validate_rate,
)
from .smoothing import (
    SmoothedGrowth,
    kernel_derivative,
    poisson_kernel,
)
from .contour import (
    ContourPath,
    cauchy_circle,
    contour_F,
    laplace_cos,
    laplace_dS,
    laplace_tau,
)
from .oscillatory import (
    PhasePartition,
    direct_F,
    eval_T_main,
    eval_T_scaled,
    eval_tau,
    panel_contributions,
    phase_panels,
)
from .suite import (
    DEFAULT_CHECKS,
    CheckRecord,
    OscillationWitness,
    SuiteConfig,
    VerificationReport,
    deviation_D,
    eval_S_scaled,
    locate_half_knots,
    omega_pm_witnesses,
    run_suite,
    signs_alternate,
    tau_witnesses,
)

__version__ = "0.1.0"

__all__ = [
    "QuadratureConfig",
    "QuadratureError",
    "RateFunction",
    "GrowthTarget",
    "catalog",
    "growth_target",
    "load_table",
    "sup_envelope",
    "validate_rate",
    "validate_growth_target",
    "SmoothedGrowth",
    "poisson_kernel",
    "kernel_derivative",
    "PhasePartition",
    "phase_panels",
    "panel_contributions",
    "eval_T_scaled",
    "eval_T_main",
    "eval_tau",
    "direct_F",
    "ContourPath",
    "contour_F",
    "laplace_cos",
    "laplace_dS",
    "laplace_tau",
    "cauchy_circle",
    "OscillationWitness",
    "CheckRecord",
    "VerificationReport",
    "SuiteConfig",
    "DEFAULT_CHECKS",
    "eval_S_scaled",
    "deviation_D",
    "locate_half_knots",
    "omega_pm_witnesses",
    "tau_witnesses",
    "signs_alternate",
    "run_suite",
    "__version__",
]
