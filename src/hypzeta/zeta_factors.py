"""Closed-form factors of the determinant identity and functional equations.

Everything here is an explicit product of gamma-type and elementary
factors: the archimedean factor Z_inf, the cone-point factor Z_ell, the
assembled determinant of the shifted Laplacian, the functional-equation
multiplier kappa with Z(1-s) = kappa(s) Z(s), the right side of the
Ruelle functional equation R(s) R(-s), and the constants c1, c0 relating
det'(Laplacian) to Z'(1) and to the renormalized value of Z at 0.
Each function that takes a scattering model raises MismatchError when
its cusp count differs from the signature's.

Products of fractional powers are combined as sums of
exponent * log(base), principal logs but for kappa's, which follow one
branch so that kappa is single-valued; identities of the other
factors hold up to a root of unity.

z_infty, z_ell, kappa, ruelle_fe_rhs and kappa's sine block answer
through special_functions._memoized, keyed by (signature, model, s): at
an s whose Im has its sign bit set, s - 0j included, each is the
conjugate of its value at conj(s), and in a _kernel_memo() scope each
evaluates a conjugate pair once.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass

from .errors import DomainError, DomainWarning, PoleError, SingularFactorError
from .scattering import ScatteringModel
from .special_functions import (
    ZETA_PRIME_MINUS_ONE,
    _finite_complex,
    _is_nonpositive_integer,
    _log_sinpi,
    _memoized,
    _near_integer,
    log_barnes_gamma2,
    log_gamma,
)
from .surface import Signature, check_cusp_count, constants

__all__ = [
    "FactorValue",
    "z_infty",
    "z_ell",
    "det_laplacian",
    "kappa",
    "ruelle_fe_rhs",
    "ruelle_leading_at_zero",
    "c1",
    "c0",
]


def _exp(log_value: complex, exp=cmath.exp) -> complex:
    """exp (cmath's unless given), raising DomainError where the value
    leaves double range: where it overflows, and where it underflows to 0."""
    try:
        value = exp(log_value)
    except OverflowError:
        raise DomainError(f"exp({log_value}) overflows a double") from None
    if value == 0:
        raise DomainError(f"exp({log_value}) underflows to 0")
    return value


@dataclass(frozen=True)
class FactorValue:
    """A factor carried in log space together with its value.

    from_log raises DomainError where the value overflows or underflows
    to 0, out of double range.
    """

    log_value: complex
    value: complex

    @classmethod
    def from_log(cls, log_value: complex) -> "FactorValue":
        return cls(log_value=complex(log_value), value=_exp(log_value))

    def conjugate(self) -> "FactorValue":
        return FactorValue(self.log_value.conjugate(), self.value.conjugate())


def _memoized_factor(factor):
    """factor(*context, s) for a finite s, evaluated through _memoized with
    the context (signature, or signature and model) in its key."""

    @functools.wraps(factor)
    def memoized(*args):
        *context, s = args
        return _memoized(factor, _finite_complex(s), *context)

    return memoized


def _chi(sig: Signature) -> float:
    """Area over 2 pi."""
    return float(sig.normalized_area())


def _log_base(s: complex) -> complex:
    """log of Z_inf's base (2 pi)^s G2(s)^2 / Gamma(s)."""
    return s * math.log(2.0 * math.pi) + 2.0 * log_barnes_gamma2(s) - log_gamma(s)


@_memoized_factor
def z_infty(sig: Signature, s: complex) -> FactorValue:
    """Archimedean factor ((2 pi)^s G2(s)^2 / Gamma(s)) ^ (area / 2 pi)."""
    return FactorValue.from_log(_chi(sig) * _log_base(s))


# int_0^1 (2u - 1) log Gamma(u) du: Re log Z_ell falls by about this much
# per unit of a cone point's order m
_CONE_SLOPE = 2.0 * ZETA_PRIME_MINUS_ONE - 1.0 / 6.0
# below this, exp of the log underflows a double to 0
_UNDERFLOW_LOG = -746.0


def _cone_log_bound(m: int) -> float:
    """Upper bound on Re log of one cone point's factor on the strip."""
    return _CONE_SLOPE * m + 5.0 * math.log(m) + 20.0


@_memoized_factor
def z_ell(sig: Signature, s: complex) -> FactorValue:
    """Cone-point factor: prod_j prod_k Gamma((s+k)/m_j)^((2k+1-m_j)/m_j).

    The empty product (no cone points) is 1. Raises PoleError naming the
    offending (j, k) if a gamma argument lands on a pole.

    The product takes sum_j m_j log-gamma calls. On the strip
    Re s in [-3, 4], |Im s| <= 20, off the poles, the cone point of
    order m adds at most (2 zeta'(-1) - 1/6) m + 5 log m + 20, about
    -m/2, to Re log Z_ell: for m >= 8 every gamma pole in the strip has
    a negative weight, so the maximum lies on the strip's edge; for
    m <= 7 the bound holds down to the 1e-12 pole tolerance.
    Where these bounds sum below -746 the factor underflows a double, and
    DomainError is raised before any log-gamma call: for one cone point
    from m = 1,614 on, for three of equal order from m = 605 on. Off the
    strip no such bound is known, so refusing an underflow there still
    costs the full sum_j m_j log-gamma calls.
    """
    if (
        -3.0 <= s.real <= 4.0
        and abs(s.imag) <= 20.0
        and not _is_nonpositive_integer(s)
        and sum(map(_cone_log_bound, sig.orders)) < _UNDERFLOW_LOG
    ):
        raise DomainError(
            f"cone-point factor underflows a double at s={s} for orders {sig.orders}"
        )
    total = 0.0 + 0.0j
    for j, m in enumerate(sig.orders):
        for k in range(m):
            arg = (s + k) / m
            try:
                lg = log_gamma(arg)
            except PoleError:
                raise PoleError(
                    f"cone-point factor hits a gamma pole at (j={j}, k={k}), "
                    f"argument {arg}"
                ) from None
            total += (2 * k + 1 - m) / m * lg
    return FactorValue.from_log(total)


def det_laplacian(
    sig: Signature,
    sc: ScatteringModel,
    s: complex,
    Z_value: complex,
) -> complex:
    """Determinant of the shifted Laplacian, assembled from closed-form factors.

    The Selberg zeta value Z(s) is supplied by the caller (for example
    from the truncated Euler product, trustworthy for Re s > 1). When
    Re s <= 1 a DomainWarning is emitted because no desk-scale evaluation
    of Z is available there. Raises DomainError where the determinant
    leaves double range.
    """
    s = _finite_complex(s)
    if s.real <= 1.0:
        warnings.warn(
            DomainWarning("supplied Z(s) is untrusted for Re s <= 1"),
            stacklevel=2,
        )
    c = constants(sig, sc)
    half = s - 0.5
    log_rest = (
        z_infty(sig, s).log_value
        + z_ell(sig, s).log_value
        - sig.n * log_gamma(s + 0.5)
        + c.B * half * half
        + c.C * half
        + c.D
    )
    value = (2.0 * s - 1.0) ** (sc.A // 2) * _exp(log_rest) * complex(Z_value)
    if not cmath.isfinite(value):
        raise DomainError(f"det_laplacian leaves double range at s={s}")
    return value


@_memoized_factor
def _log_sine_block(sig: Signature, s: complex) -> complex:
    total = 0.0 + 0.0j
    for j, m in enumerate(sig.orders):
        for k in range(m):
            arg = (s + k) / m
            if _near_integer(arg):
                raise SingularFactorError(f"sine factor (j={j}, k={k})")
            total += (m - 2 * k - 1) / m * _log_sinpi(arg)
    return total


@_memoized_factor
def kappa(sig: Signature, sc: ScatteringModel, s: complex) -> FactorValue:
    """Functional-equation multiplier kappa with Z(1-s) = kappa(s) Z(s).

    Assembled in log space from the cusp exponential, phi(s), the
    double-gamma block (Z_inf's log base at s less that at 1 - s), the
    cusp gamma ratio, and the cone-point sine product. Each block is
    continuous above and below the real axis and conjugate-symmetric, so
    kappa is single-valued; on the axis, at s + 0j, the sine and
    double-gamma blocks take the side Im s = +0, and 1 - s the side -0,
    so kappa is real there up to rounding, and kappa(s - 0j) is its
    conjugate, as at every s whose Im has its sign bit set. At s = 1/2
    every factor but phi is 1, so kappa(1/2) = phi(1/2) = (-1)^(A/2).
    Raises SingularFactorError naming whichever factor is singular at s.
    """
    c = constants(sig, sc)
    sine_block = _log_sine_block(sig, s)
    try:
        phi_val = sc.phi(s)
    except PoleError as exc:
        raise SingularFactorError("scattering determinant", str(exc)) from None
    if phi_val == 0:
        raise SingularFactorError("scattering determinant", f"phi({s}) = 0")
    try:
        gamma2_block = _log_base(s) - _log_base(complex(1.0 - s.real, -s.imag))
    except PoleError as exc:
        raise SingularFactorError("double-gamma block", str(exc)) from None
    try:
        cusp_block = sig.n * (log_gamma(1.5 - s) - log_gamma(s + 0.5))
    except PoleError as exc:
        raise SingularFactorError("cusp gamma ratio", str(exc)) from None
    log_total = (
        c.C * (2.0 * s - 1.0)
        + cmath.log(phi_val)
        + _chi(sig) * gamma2_block
        + cusp_block
        + sine_block
    )
    return FactorValue.from_log(log_total)


@_memoized_factor
def ruelle_fe_rhs(
    sig: Signature,
    sc: ScatteringModel,
    s: complex,
) -> complex:
    """Right side of the Ruelle functional equation, the value of R(s) R(-s).

    (phi(s) phi(-s))^(-1) (4 sin^2 pi s)^(2g-2+n) / (4 s^2 - 1)^n
    * prod_j (sin pi s / sin(pi s / m_j))^2.
    All exponents are integers, so no branch choices arise, and the
    factors are summed as logs and exponentiated once: the sines alone
    leave double range from |Im s| ~ 226 on. Exactly 0 at the integers
    it admits. Raises DomainError where the value itself leaves double
    range.
    """
    check_cusp_count(sig, sc)
    if sig.n >= 1 and (abs(s - 0.5) < 1e-12 or abs(s + 0.5) < 1e-12):
        raise PoleError("Ruelle functional equation is singular at s = 1/2 and s = -1/2")
    euler = 2 * sig.g - 2 + sig.n
    if _near_integer(s) and euler < 0:
        raise PoleError(f"sin(pi s) vanishes at s={s} with negative exponent")
    for m in sig.orders:
        if _near_integer(s / m):
            raise PoleError(f"sin(pi s / {m}) vanishes at s={s}")
    phi_product = sc.phi(s) * sc.phi(-s)
    if phi_product == 0:
        raise PoleError(f"phi(s) phi(-s) vanishes at s={s}")
    if s.imag == 0.0 and s.real.is_integer():
        # the checks above leave 2g-2+n >= 1 or a cone point of order m not
        # dividing s, so a power of sin(pi s) = 0 is a factor
        return 0j
    log_sin_pis = _log_sinpi(s)
    log_value = euler * (math.log(4.0) + 2.0 * log_sin_pis) - cmath.log(phi_product)
    if sig.n:  # s = +-1/2, where 4s^2 - 1 = 0, was refused above when n >= 1
        log_value -= sig.n * cmath.log(4.0 * s * s - 1.0)
    for m in sig.orders:
        log_value += 2.0 * (log_sin_pis - _log_sinpi(s / m))
    return _exp(log_value)


def ruelle_leading_at_zero(sig: Signature, sc: ScatteringModel) -> tuple[int, float]:
    """Order and leading coefficient of the Ruelle zeta function at s = 0.

    order = 2g - 2 + n - n0 and
    coeff = -(2 pi)^(2g-2+n) / phi_tilde_0 * prod_j m_j,
    using the model's stored leading coefficient of phi. This is the
    paper's printed (-1)^(A/2 + 1) prefactor times (-1)^(A/2); for the
    modular surface, phi_tilde_0 = -pi/3 gives +9/pi^2, the limit of
    s^2 R(s) that the transfer-operator oracle in tests confirms.
    Raises DomainError where the coefficient overflows a double; with
    2g - 2 + n >= -2 and |phi_tilde_0| finite it cannot underflow to 0.
    """
    check_cusp_count(sig, sc)
    euler = 2 * sig.g - 2 + sig.n
    order = euler - sc.n0
    try:
        coeff = -(2.0 * math.pi) ** euler / sc.phi_tilde_0
        for m in sig.orders:
            coeff *= m
    except OverflowError:
        coeff = math.inf
    if math.isinf(coeff):
        raise DomainError("the Ruelle leading coefficient at 0 leaves double range")
    return order, coeff


def _log_c_common(sig: Signature, sc: ScatteringModel, sign: float) -> float:
    """The part of log c1 (sign +1) and log c0 (sign -1) outside the cone
    sums: (n - A/2) log 2 + sign (area / 4 pi) log 2 pi + log E."""
    return (
        (sig.n - sc.A / 2.0) * math.log(2.0)
        + sign * 0.5 * _chi(sig) * math.log(2.0 * math.pi)
        + constants(sig, sc).log_E
    )


def c1(sig: Signature, sc: ScatteringModel) -> float:
    """Constant with det'(Laplacian) = c1 * Z'(1); raises DomainError
    where it overflows or underflows to 0."""
    log_total = _log_c_common(sig, sc, 1.0)
    for m in sig.orders:
        for k in range(1, m):
            log_total += (2 * k - 1 - m) / m * math.lgamma(k / m)
    return _exp(log_total, math.exp)


def c0(sig: Signature, sc: ScatteringModel) -> float:
    """Constant with det'(Laplacian) = c0 * (renormalized Z at 0); raises
    DomainError where it overflows or underflows to 0."""
    log_total = _log_c_common(sig, sc, -1.0)
    for m in sig.orders:
        log_total -= (m - 1) / m * math.log(m)
        for k in range(1, m):
            log_total += (2 * k + 1 - m) / m * math.lgamma(k / m)
    value = -sc.phi_tilde_0 * _exp(log_total, math.exp)
    if math.isinf(value) or value == 0:
        raise DomainError(f"c0 = {value} leaves double range")
    return value
