"""Numerical checks for mixed-norm Fourier inequalities.

The package verifies sharp Hausdorff-Young bounds on product domains:
exact exponent arithmetic, Gaussian test families on centered grids,
continuum-normalized DFTs, mixed Lebesgue norms, ratio harnesses for
each inequality, and parameter sweeps reproducing the scaling laws of
the counterexample regime.
"""

from . import exponents, gaussians, grids, inequalities, mixed_norms, sampling, sweeps, transform
from .exponents import *
from .gaussians import *
from .grids import *
from .inequalities import *
from .mixed_norms import *
from .sampling import *
from .sweeps import *
from .transform import *

__version__ = "0.1.0"

#: The library modules whose public names the package re-exports; ``cli``
#: stays out so that ``import mixnorm`` does not load the command line.
_LIBRARY = (exponents, gaussians, grids, inequalities, mixed_norms, sampling, sweeps, transform)

__all__ = [name for module in _LIBRARY for name in module.__all__]
