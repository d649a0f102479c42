"""meandense: simulation and mean-density estimation for inhomogeneous
Boolean models with lower-dimensional typical grains.

Three cross-checkable routes to the mean density of the germ-grain union:
exact quadrature of the density formula, Monte Carlo estimation from the
empirical capacity functional of simulated realizations, and the weighted
Minkowski-content limit of sausage integrals.
"""

__version__ = "0.5.0"

from .boolean import Realizations, simulate
from .config import ScenarioConfig, parse_config
from .errors import ConfigurationError, NumericError, QueryError
from .estimate import (
    capacity_estimate,
    contact_derivative,
    convergence_study,
    count_estimate,
    density_estimate,
    empirical_capacity,
    histogram_reduction,
)
from .exact import (
    DensityField,
    analytic_segment_density,
    capacity_probability,
    density_grid,
    exact_density,
    hitting_intensity,
)
from .geometry import Box, ball_volume
from .grains import (
    Grain,
    LengthLaw,
    MarkDistribution,
    OrientationLaw,
    RegularityCertificate,
    hn_measure,
    integrate_along,
)
from .minkowski import MinkowskiRun, bound_check, content_limit, sausage_integral
from .poisson import IntensityField, sample_block
