"""Numerical Selberg/Ruelle zeta machinery for cofinite hyperbolic surfaces.

The package realizes the closed-form side of the theory: special
functions (log-gamma, Riemann zeta, the double gamma function),
surface constants and integer order tables, scattering-determinant
models, the determinant/functional-equation factors, an enumerated
geodesic length spectrum for the modular group, and truncated Euler
products with error estimates. The `hypzeta` CLI exposes each operation
plus a reproducible `verify` identity suite.

The namespace is the union of the library modules' `__all__` lists.
"""

from . import (errors, euler_product, length_spectrum, scattering, special_functions, surface,
               zeta_factors)
from .errors import *
from .euler_product import *
from .length_spectrum import *
from .scattering import *
from .special_functions import *
from .surface import *
from .zeta_factors import *

__version__ = "0.1.0"

__all__ = [name for module in (errors, euler_product, length_spectrum, scattering,
                               special_functions, surface, zeta_factors)
           for name in module.__all__] + ["__version__"]
