"""Scattering-determinant models.

Only determinant-level data is modeled: a callable phi(s) together with
the constants the closed-form theory consumes (order n0 and leading
coefficient of phi at 0, and the even parity constant A, which gives
phi(1/2) = (-1)^(A/2)). Ships the modular-group determinant and the
trivial cusp-free model; custom models can be constructed programmatically.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field
from typing import Callable

from .errors import DomainError, FitError, PoleError
from .special_functions import _ZETA_MAX_IMAG, _finite_complex, log_gamma, riemann_zeta

__all__ = [
    "ScatteringModel",
    "modular_phi",
    "modular_model",
    "trivial_model",
    "builtin_model",
    "phi_leading_at_zero",
]

_SING_TOL = 1e-8
_PHI_MAX_IMAG = _ZETA_MAX_IMAG / 2.0  # phi reads zeta at 2s - 1


@dataclass(frozen=True)
class ScatteringModel:
    """Determinant of a scattering matrix, with its derived constants.

    n0 and phi_tilde_0 (finite, non-zero) are the order and leading
    coefficient of phi at 0 used by the closed-form leading-coefficient
    formulas; A is the even integer in [0, 2n] with (-1)^(A/2) = phi(1/2),
    the sign `parity` derives. n, n0 and A go through `operator.index`.
    """

    n: int
    phi: Callable[[complex], complex] = field(repr=False)
    n0: int
    phi_tilde_0: float
    A: int
    label: str

    def __post_init__(self):
        for name in ("n", "n0", "A"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.n < 0:
            raise ValueError("cusp count must be non-negative")
        if self.A % 2 != 0:
            raise ValueError(f"A={self.A} must be even")
        if not 0 <= self.A <= 2 * self.n:
            raise ValueError(f"A={self.A} outside [0, 2n]")
        if not math.isfinite(self.phi_tilde_0) or self.phi_tilde_0 == 0:
            raise ValueError(f"leading coefficient {self.phi_tilde_0} of phi at 0 "
                             "must be finite and non-zero")

    @property
    def parity(self) -> int:
        """The exact parity sign (-1)^(A/2) of the closed-form factors."""
        return -1 if (self.A // 2) % 2 else 1


def _neville_to_zero(xs, ys):
    """Polynomial extrapolation of (xs, ys) to x = 0."""
    vals = list(ys)
    m = len(vals)
    for level in range(1, m):
        for i in range(m - level):
            x0, x1 = xs[i], xs[i + level]
            vals[i] = (x1 * vals[i] - x0 * vals[i + 1]) / (x1 - x0)
    return vals[0]


def _modular_phi_direct(s: complex) -> complex:
    num = riemann_zeta(2.0 * s - 1.0)
    den = riemann_zeta(2.0 * s)  # 0 only at s = -j, which modular_phi takes as 1/phi(1 - s)
    gamma_ratio = cmath.exp(log_gamma(s - 0.5) - log_gamma(s))
    return math.sqrt(math.pi) * gamma_ratio * num / den


def modular_phi(s: complex) -> complex:
    """Scattering determinant of the modular group.

    phi(s) = sqrt(pi) * Gamma(s - 1/2)/Gamma(s) * zeta(2s - 1)/zeta(2s).
    On the real axis left of 1/2, where 2s is an integer, a pole of
    Gamma(s - 1/2) or Gamma(s) meets a pole or zero of zeta; there phi
    is 1/phi(1 - s), by phi(s) phi(1 - s) = 1, but -1 at s = 1/2 and 0
    at s = 0. s = 1 is a genuine pole. Raises DomainError for
    |Im s| > 5 * 10^5, where zeta(2s - 1) is past its own bound.
    """
    s = _finite_complex(s)
    if abs(s.imag) > _PHI_MAX_IMAG:
        raise DomainError(f"modular_phi takes |Im s| <= 5e5 (got s = {s})")
    if abs(s - 1.0) < _SING_TOL:
        raise PoleError("modular scattering determinant has a pole at s=1")
    half = s.real - math.remainder(s.real, 0.5)  # the nearest multiple of 1/2, exactly
    if half <= 0.5 and abs(s - half) < _SING_TOL:
        if half == 0.5:
            return complex(-1.0)
        if half == 0.0:
            return 0j
        return 1.0 / _modular_phi_direct(1.0 - s)
    return _modular_phi_direct(s)


def modular_model() -> ScatteringModel:
    """Determinant data for the modular surface (signature (0;1;2,3)).

    The stored leading coefficient at 0 is the Taylor coefficient
    sqrt(pi) Gamma(-1/2) zeta(-1) / zeta(0) = -pi/3.
    """
    return ScatteringModel(
        n=1,
        phi=modular_phi,
        n0=1,
        phi_tilde_0=-math.pi / 3.0,
        A=2,
        label="modular",
    )


def _one(s: complex) -> complex:
    return 1.0 + 0.0j


def trivial_model() -> ScatteringModel:
    """Cusp-free model: phi identically 1, no continuous spectrum data."""
    return ScatteringModel(
        n=0,
        phi=_one,
        n0=0,
        phi_tilde_0=1.0,
        A=0,
        label="trivial",
    )


def builtin_model(label: str) -> ScatteringModel:
    if label == "modular":
        return modular_model()
    if label == "trivial":
        return trivial_model()
    raise ValueError(f"unknown model {label!r}; choose 'modular' or 'trivial'")


def phi_leading_at_zero(model: ScatteringModel) -> tuple[int, float]:
    """Order and leading coefficient of phi at 0, fitted from phi alone.

    The order comes from log-log slope fitting of |phi| on the radii
    1e-2, 1e-3, 1e-4; the coefficient from even-part Richardson
    extrapolation of phi(s)/s^order on the same radii. The model's stored
    n0 and phi_tilde_0 are not consulted; verify compares them with the
    fit. Raises FitError only if the fit fails: phi is 0 or not finite at
    a fit radius, the slope does not lock onto an integer within 0.01, or
    the coefficient is not a finite, non-zero real number.
    """
    radii = (1e-2, 1e-3, 1e-4)
    plus = [model.phi(complex(r, 0.0)) for r in radii]
    minus = [model.phi(complex(-r, 0.0)) for r in radii]
    if not all(cmath.isfinite(v) and v != 0 for v in plus + minus):
        raise FitError(f"phi is 0 or not finite at a fit radius: {plus} at +r, {minus} at -r")
    slopes = []
    for i in range(len(radii) - 1):
        num = math.log(abs(plus[i])) - math.log(abs(plus[i + 1]))
        den = math.log(radii[i]) - math.log(radii[i + 1])
        slopes.append(num / den)
    order = round(slopes[-1])
    if any(abs(sl - order) > 0.01 for sl in slopes):
        raise FitError(f"slope fit {slopes} not within 0.01 of an integer")
    try:
        even_parts = [0.5 * (fp / r ** order + fm / (-r) ** order)
                      for r, fp, fm in zip(radii, plus, minus)]
    except (OverflowError, ZeroDivisionError):
        raise FitError(f"r^{order} leaves double range at a fit radius") from None
    coeff_c = _neville_to_zero([r * r for r in radii], even_parts)
    if not cmath.isfinite(coeff_c):
        raise FitError(f"leading coefficient {coeff_c} is not finite")
    if abs(coeff_c.imag) > 1e-8 * max(1.0, abs(coeff_c)):
        raise FitError(f"leading coefficient {coeff_c} is not real")
    if coeff_c.real == 0:
        raise FitError(f"leading coefficient of phi at 0 is 0 at order {order}")
    return order, coeff_c.real
