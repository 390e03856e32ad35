"""Smoluchowski coagulation solver and weak-compactness toolkit."""

__version__ = "0.1.0"

from .errors import (CoagKitError, ConfigError, ConstructionError, DomainError,
                     GridError, UnsupportedFamilyError)
from .kernels import GrowthClass, KernelSpec, RadialRate, classify, omega_r
from .grids import (MomentSeries, SizeDistribution, SizeGrid, init_distribution,
                    moment)
from .solver import (RateSplit, SolverConfig, Trajectory, fast_gain, integrate,
                     rates)
from .compactness import (FunctionFamily, VPFunction, dlvp_construct,
                          eta_limit, eta_modulus, eta_zero_extrapolation,
                          family_tail, phi_integral, synthetic_family, vp_check,
                          vp_eval)
from .diagnostics import (ComparisonReport, GelationReport, MarginReport,
                          UniquenessReport, WeakFormResidual, bound_monitor,
                          c5_constant, comparison_ode, gelation_detect,
                          gelation_functional, power_shifted_ixi,
                          ratio_shifted_ixi, uniqueness_distance,
                          weak_form_residual)
from .reference import OracleResult, exact_solution, moment_oracle

__all__ = [name for name in dir() if not name.startswith("_")]
