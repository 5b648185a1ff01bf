"""pathheat: a desk-scale numerical laboratory for the path-dependent heat
equation on continuous paths.

The package covers the four pillars the problem rests on: pathwise
(horizontal/vertical) derivatives with a numerically verified change-of-
variable formula along semimartingales; the forward-integral calculus that
makes cylinder functionals exact grid computations; a smooth gauge on the
path space with uniformly bounded derivatives, feeding a constructive
variational principle; and the Feynman-Kac Monte-Carlo solution with its
finite-dimensional cross-check for cylinder terminal conditions.
"""

from .errors import (ContractError, ConvergenceError, DomainError, InputError,
                     NumericError)
from .grids import (GridPath, PathPoint, SemimartingaleSpec, TimeGrid,
                    brownian_increments, euler_paths, extend_with_increments,
                    path_distance, read_path_csv)
from .regularization import forward_integral
from .cylinders import (CylinderSpec, PathwiseDerivs, cylinder_approx,
                        fejer_coefficient)
from .quadrature import QuadratureConfig
from .gauge import (horizontal_kernel, horizontal_smoothed_distance,
                    mean_gaussian_norm, perturbation_sum, smooth_gauge,
                    vertical_smoothed_distance)
from .audit import GaugeDiagnostics, calibrate_alpha
from .varprinciple import SearchSpace, VPResult, smooth_variational_principle
from .solver import (FiniteDimSolution, MCConfig, MCEstimate,
                     TerminalFunctional, build_terminal, candidate_solution,
                     cylinder_pathwise_derivs, finite_dim_solution,
                     pde_residual, sample_increments)
from .ito import ito_verify

__version__ = "0.1.0"
