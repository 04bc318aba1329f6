"""Exact and asymptotic statistics of point multiplicities in closed walks.

For a closed simple random walk on Z^d, N_{2k}(w) counts the lattice points
the walk visits exactly k times and ran(w) counts all distinct visited
points.  The package computes, in one dimension, the exact joint
distribution of the N_{2k} by truncated-power-series arithmetic, the first
moments in any dimension, and the large-length asymptotics of
distributions and moments; an exhaustive enumeration oracle backs every
formula at small lengths.
"""

from .errors import (BackendMismatch, BudgetExceeded, DivByNonUnit,
                     DomainError, IllConditioned, MarkerOverflow,
                     NonFiniteCoefficient, NonUnit, WalkrangeError)
from .genfun import (Engine, joint_counts, range_distribution, range_moment,
                     vertex_factor)
from .moments import (asymptotic_first_moment, asymptotic_range_moment,
                      first_moment_exact, green, mean_point_count, mean_range)
from .pseries import (EXACT, FLOAT, BaseSeriesCache, TruncatedSeries,
                      choose_backend)
from .walks import (RangeProfile, Walk, multiplicity, oracle_counts, profile,
                    sample_moments)
from .asymptotics import (bernoulli, doublepoint_tail, em_expansion,
                          extrapolate_probability, range_moment_limit,
                          second_moment_limit, second_moment_limits,
                          singlepoint_expansion, tail_rate_fit,
                          tail_rates_limit, zeta)

__version__ = "0.1.0"

__all__ = [
    "BackendMismatch", "BudgetExceeded", "DivByNonUnit", "DomainError",
    "IllConditioned", "MarkerOverflow", "NonFiniteCoefficient", "NonUnit",
    "WalkrangeError",
    "Engine", "joint_counts", "range_distribution", "range_moment",
    "vertex_factor",
    "asymptotic_first_moment", "asymptotic_range_moment",
    "first_moment_exact", "green", "mean_point_count", "mean_range",
    "EXACT", "FLOAT", "BaseSeriesCache", "TruncatedSeries", "choose_backend",
    "RangeProfile", "Walk", "multiplicity", "oracle_counts", "profile",
    "sample_moments",
    "bernoulli", "doublepoint_tail", "em_expansion",
    "extrapolate_probability", "range_moment_limit", "second_moment_limit",
    "second_moment_limits", "singlepoint_expansion", "tail_rate_fit", "tail_rates_limit", "zeta",
    "__version__",
]
