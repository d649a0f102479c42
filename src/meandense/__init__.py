"""meandense: simulation and mean-density estimation for inhomogeneous
Boolean models with lower-dimensional typical grains.

Three cross-checkable routes to the mean density of the germ-grain union:
exact quadrature of the density formula, Monte Carlo estimation from the
empirical capacity functional of simulated realizations, and the weighted
Minkowski-content limit of sausage integrals.
"""

__version__ = "0.6.2"

from .boolean import measure_in_region
from .config import ScenarioConfig, parse_config
from .errors import ConfigurationError, NumericError, QueryError
from .estimate import (
    accumulate_hits,
    capacity_estimate,
    contact_derivative,
    convergence_study,
    count_estimate,
)
from .exact import capacity_grid, density_grid, hitting_grid
from .geometry import Box, ball_volume
from .grains import Grain, LengthLaw, MarkDistribution, OrientationLaw
from .minkowski import MinkowskiRun, content_limit
from .poisson import IntensityField, sample_block
