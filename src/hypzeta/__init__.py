"""Numerical Selberg/Ruelle zeta machinery for cofinite hyperbolic surfaces.

The package realizes the closed-form side of the theory: special
functions (log-gamma, Riemann zeta, the double gamma function),
surface constants and integer order tables, scattering-determinant
models, the determinant/functional-equation factors, an enumerated
geodesic length spectrum for the modular group, and truncated Euler
products with error estimates. The `hypzeta` CLI exposes each operation
plus a reproducible `verify` identity suite.
"""

from .errors import (
    CapacityError,
    DomainError,
    DomainWarning,
    EmptySpectrumError,
    FitError,
    HypzetaError,
    MismatchError,
    PoleError,
    SingularFactorError,
)
from .euler_product import TruncatedValue, ruelle_R, selberg_Z
from .length_spectrum import (
    LengthSpectrum,
    TraceShell,
    enumerate_spectrum,
    read_cache,
    write_cache,
)
from .scattering import (
    ScatteringModel,
    builtin_model,
    modular_model,
    modular_phi,
    phi_leading_at_zero,
    trivial_model,
)
from .special_functions import log_barnes_gamma2, log_gamma, riemann_zeta
from .surface import (
    Signature,
    SurfaceConstants,
    area,
    constants,
    geometric_constants,
    order_R,
    order_Z,
    parse_signature,
)
from .zeta_factors import (
    FactorValue,
    c0,
    c1,
    det_laplacian,
    kappa,
    ruelle_fe_rhs,
    ruelle_leading_at_zero,
    z_ell,
    z_infty,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError", "DomainError", "DomainWarning",
    "EmptySpectrumError", "FitError", "HypzetaError", "MismatchError",
    "PoleError", "SingularFactorError",
    "TruncatedValue", "ruelle_R", "selberg_Z",
    "LengthSpectrum", "TraceShell",
    "enumerate_spectrum", "read_cache", "write_cache",
    "ScatteringModel", "builtin_model", "modular_model", "modular_phi",
    "phi_leading_at_zero", "trivial_model",
    "log_barnes_gamma2", "log_gamma", "riemann_zeta",
    "Signature", "SurfaceConstants", "area", "constants", "geometric_constants",
    "order_R", "order_Z", "parse_signature",
    "FactorValue", "c0", "c1", "det_laplacian", "kappa", "ruelle_fe_rhs",
    "ruelle_leading_at_zero", "z_ell", "z_infty",
    "__version__",
]
