"""Surface signatures and everything integer-valued that hangs off them.

A finite-area hyperbolic surface is described by its signature
(genus; cusps; cone-point orders). From the signature alone we get the
hyperbolic area, the exponential constants of the determinant formula,
and the full integer order tables of the Selberg zeta function Z(s) and
the Ruelle zeta function R(s) at the points where they are known in
closed form. Positive return values are zero orders, negative ones are
pole orders.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, MismatchError
from .special_functions import ZETA_PRIME_MINUS_ONE

__all__ = [
    "Signature",
    "SurfaceConstants",
    "parse_signature",
    "area",
    "check_cusp_count",
    "constants",
    "geometric_constants",
    "order_Z",
    "order_R",
]


@dataclass(frozen=True)
class Signature:
    """Surface type (g; n; m_1, ..., m_v): genus, cusps, cone orders.

    Each entry must be an integer that `operator.index` takes, so 2.5 or
    "2" raises TypeError rather than being truncated; all are stored as int.
    """

    g: int
    n: int
    orders: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "g", operator.index(self.g))
        object.__setattr__(self, "n", operator.index(self.n))
        object.__setattr__(self, "orders", tuple(operator.index(m) for m in self.orders))
        if self.g < 0 or self.n < 0:
            raise ValueError("genus and cusp count must be non-negative")
        if any(m < 2 for m in self.orders):
            raise ValueError("every cone order must be >= 2")
        total = Fraction(2 * self.g - 2 + self.n)
        for m in self.orders:
            total += 1 - Fraction(1, m)
        if total <= 0:
            raise ValueError(
                f"signature {self.label()} has non-positive hyperbolic area"
            )
        # kept beside the fields, so out of equality, hash and repr
        object.__setattr__(self, "_normalized_area", total)

    def normalized_area(self) -> Fraction:
        """Area divided by 2*pi, as an exact rational (summed once, at construction)."""
        return self._normalized_area

    def label(self) -> str:
        ms = ",".join(str(m) for m in self.orders)
        return f"({self.g};{self.n};{ms})"


def parse_signature(text: str) -> Signature:
    """Parse the text form "g,n,m1:m2:...:mv" (ramification part may be empty)."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(
            f"expected signature as g,n,m1:m2:...:mv (got {text!r})"
        )
    try:
        g = int(parts[0])
        n = int(parts[1])
        orders = tuple(int(p) for p in parts[2].split(":") if p.strip())
    except ValueError as exc:
        raise ValueError(f"malformed signature {text!r}: {exc}") from None
    return Signature(g, n, orders)


@dataclass(frozen=True)
class SurfaceConstants:
    """Constants of the closed-form Laplacian determinant for one surface.

    B, C, D coefficients of the exponential factor exp(B(s-1/2)^2 + C(s-1/2) + D)
    log_E   log of the positive constant tying det'(Laplacian) to Z'(1)

    The area is `area(sig)`, and the parity constant A is the scattering
    model's `A`.
    """

    B: float
    C: float
    D: float
    log_E: float


def area(sig: Signature) -> float:
    """Hyperbolic area 2*pi*(2g - 2 + n + sum(1 - 1/m_j))."""
    return 2.0 * math.pi * float(sig.normalized_area())


def geometric_constants(sig: Signature) -> tuple[float, float]:
    """The constants that need no scattering model: B = -|X| / (2 pi)
    and C = -n log 2."""
    return -float(sig.normalized_area()), -sig.n * math.log(2.0)


def _elliptic_log_sum(sig: Signature) -> float:
    return sum((m * m - 1) / (6.0 * m) * math.log(m) for m in sig.orders)


def check_cusp_count(sig: Signature, sc) -> None:
    """Raise MismatchError unless the scattering model sc has sig.n cusps."""
    if sc.n != sig.n:
        raise MismatchError(
            f"scattering model has {sc.n} cusps but signature {sig.label()} has {sig.n}"
        )


def constants(sig: Signature, sc) -> SurfaceConstants:
    """All determinant-formula constants for a surface with scattering data sc.

    Requires sc.n == sig.n; D reads the model's A.
    """
    check_cusp_count(sig, sc)
    b_const, c_const = geometric_constants(sig)
    chi = float(sig.normalized_area())  # |X| / (2 pi)
    log_2pi = math.log(2.0 * math.pi)
    ell = _elliptic_log_sum(sig)
    d_const = (
        ell
        + 0.5 * sig.n * log_2pi
        - chi * (0.5 * log_2pi - 2.0 * ZETA_PRIME_MINUS_ONE)
        - 0.5 * sc.A * math.log(2.0)
    )
    log_e = ell + chi * (2.0 * ZETA_PRIME_MINUS_ONE - 0.25)
    return SurfaceConstants(B=b_const, C=c_const, D=d_const, log_E=log_e)


def _finite_point(point) -> int | float:
    """point, as an int where integral (exact at any size); DomainError unless finite."""
    if isinstance(point, int):
        return point
    x = float(point)
    if not math.isfinite(x):
        raise DomainError(f"order is only defined at finite points, got {point}")
    return int(x) if x.is_integer() else x


def _as_twice_integer(point) -> int:
    """Map an integer or half-integer input to round(2*point), else raise."""
    doubled = 2 * _finite_point(point)
    if abs(doubled - round(doubled)) > 1e-9:
        raise DomainError(f"order is only defined at integers, or half-integers for Z, got {point}")
    return int(round(doubled))


def order_Z(sig: Signature, n0: int, point) -> int:
    """Order of the Selberg zeta function at an integer or half-integer point.

    Covered points: s = 1 (simple zero), s = 0, the negative half-integers
    (pole of order n), the negative integers, and the integers >= 2 where
    the Euler product is regular and non-vanishing. n0, the order of the
    scattering determinant at s = 0, goes through `operator.index`.
    """
    n0 = operator.index(n0)
    twice = _as_twice_integer(point)
    if twice % 2 != 0:
        if twice < 0:
            return -sig.n
        raise DomainError(
            f"order of Z at positive half-integer {point} is not covered"
        )
    k = twice // 2
    if k == 1:
        return 1
    if k == 0:
        return 2 * sig.g - 1 + sig.n - n0
    if k >= 2:
        return 0
    k = -k
    floor_sum = sum(k - k // m for m in sig.orders)
    return (2 * k + 1) * (2 * sig.g - 2 + sig.n) + 2 * floor_sum


def order_R(sig: Signature, n0: int, point: int) -> int:
    """Order of the Ruelle zeta function R(s) = Z(s)/Z(s+1) at an integer
    point, read from order_Z at the point and one step to its right;
    DomainError at any other point."""
    twice = _as_twice_integer(point)
    if twice % 2:
        raise DomainError(f"order of R is only defined at integers, got {point}")
    return order_Z(sig, n0, twice // 2) - order_Z(sig, n0, twice // 2 + 1)
