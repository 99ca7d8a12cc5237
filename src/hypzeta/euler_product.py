"""Truncated Euler products over an enumerated length spectrum.

Evaluates the Selberg zeta function Z(s) = prod_P prod_k (1 - p^(-s-k))
and the Ruelle zeta function R(s) = Z(s)/Z(s+1) = prod_P (1 - p^(-s))
for Re s > 1, with explicit truncation-error estimates. The k-product
is summed in closed form: expanded in m it is geometric, so
log Z = -sum_P sum_m p^(-ms) / (m (1 - p^(-m))) leaves no k-tail. The
missing trace shells are estimated from the prime geodesic theorem and
doubled - an honest estimate, not a proven bound.

Both products read the spectrum's columnar table
(`LengthSpectrum.columns`: one column per distinct trace, weighted by
its class count) and run over numpy arrays. The Selberg product takes,
for each m, only the prefix of shells whose term can still move log Z in
a double (a staircase, not the full shell x m rectangle); the terms it
skips sum to less than 1.4e-17. Every result carries its relative
trace-tail error estimate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptySpectrumError
from .length_spectrum import LengthSpectrum
from .special_functions import EULER_GAMMA, _finite_complex

__all__ = ["TruncatedValue", "selberg_Z", "ruelle_R"]

_TAIL_SAFETY = 2.0
# selberg_Z skips each term with p^(-m sigma) below this over the class count
_SKIPPED_BOUND = 1e-17


@dataclass(frozen=True)
class TruncatedValue:
    """Truncated product value with its absolute error estimate.

    `trace_tail_error` is the relative estimate for the shells beyond the
    spectrum's max_trace, and abs_error_estimate = |value| *
    trace_tail_error. `k_cutoff_used` is the largest m that selberg_Z
    summed (0 for the direct Ruelle product).
    """

    value: complex
    abs_error_estimate: float
    k_cutoff_used: int
    trace_tail_error: float


def _require_usable(spectrum: LengthSpectrum, s) -> complex:
    """s as a complex number, checked to lie where the product converges."""
    if not spectrum.columns.shape[1]:
        raise EmptySpectrumError("length spectrum has no classes")
    s = _finite_complex(s)
    if s.real <= 1.0:
        raise DomainError(
            f"Euler product converges only for Re s > 1 (got Re s = {s.real})"
        )
    return s


def _exp1(x: float) -> float:
    """Exponential integral E1(x) = int_x^inf e^(-t) / t dt for x > 0.

    The power series -gamma - log x - sum_k (-x)^k / (k k!) up to x = 2,
    the continued fraction e^(-x) / (x + 1 - 1 / (x + 3 - 4 / (x + 5 - ...)))
    by the modified Lentz method beyond (each within ~5e-15 relative on
    its side), and 0 past x = 745, where the value underflows a double.
    """
    if x <= 2.0:
        total = -EULER_GAMMA - math.log(x)
        term = 1.0
        for k in range(1, 30):
            term *= -x / k
            total -= term / k
        return total
    if x > 745.0:
        return 0.0
    b = x + 1.0
    c = 1e300
    d = 1.0 / b
    fraction = d
    for i in range(1, 200):  # ~55 steps at x = 2, fewer beyond
        b += 2.0
        d = 1.0 / (b - i * i * d)
        c = b - i * i / c
        fraction *= c * d
        if abs(c * d - 1.0) < 1e-16:
            break
    return fraction * math.exp(-x)


def _trace_tail_estimate(sigma: float, max_trace: int) -> float:
    """Relative error from the classes beyond max_trace.

    By the prime geodesic theorem (Selberg; Iwaniec 1984 for PSL(2,Z)) the
    classes of norm at most x number li(x) asymptotically, so the missing
    terms |log(1 - p^(-s))| ~ p^(-sigma) sum to the integral of
    x^(-sigma) / log x from N(T) on, which is E1((sigma - 1) log N(T))
    with N(T) the norm at trace T. expm1 turns that error of the log
    into one of the value, and the safety factor covers the sub-leading
    terms of the theorem.
    """
    log_norm = 2.0 * math.acosh(max_trace / 2.0)
    return _TAIL_SAFETY * math.expm1(_exp1((sigma - 1.0) * log_norm))


def _kept_shells(spectrum: LengthSpectrum, sigma: float) -> np.ndarray:
    """For m = 1, 2, ..., the number of leading shells whose terms
    p^(-ms) selberg_Z evaluates: those with p^(-m sigma) >= tau, a prefix
    of the table, where tau = _SKIPPED_BOUND / class_count. It stops at
    the last m at which the shortest length can still qualify, and is
    empty when none can. A class's skipped terms sum to less than
    tau / (1 - 1/p_min)^2, so all of them to less than 1.4e-17.
    """
    # p^(-m sigma) >= tau where m log p <= reach
    reach = -math.log(_SKIPPED_BOUND / spectrum.class_count) / sigma
    length = spectrum.columns[3]
    m_max = math.floor(reach / length[0])
    return np.searchsorted(length, reach / np.arange(1, m_max + 1), side="right")


def _log_one_minus(x: np.ndarray) -> np.ndarray:
    """log(1 - x) for complex x = a + ib well inside the unit disc (every
    term here has |x| <= p_min^(-sigma) < 0.15): log1p of |1 - x|^2 - 1 =
    b^2 - a(2 - a), halved, and arg(1 - x) = atan2(-b, 1 - a). Forming
    1.0 - x first would round Re x away wherever |x| < 1.1e-16.
    """
    a, b = x.real, x.imag
    out = np.empty_like(x)
    out.real = 0.5 * np.log1p(b * b - a * (2.0 - a))
    out.imag = np.arctan2(-b, 1.0 - a)
    return out


def _truncated(spectrum: LengthSpectrum, sigma: float, log_value: complex,
               cutoff: int) -> TruncatedValue:
    value = cmath.exp(log_value)
    trace_tail = _trace_tail_estimate(sigma, spectrum.max_trace)
    return TruncatedValue(value, abs(value) * trace_tail, cutoff, trace_tail)


def selberg_Z(spectrum: LengthSpectrum, s: complex) -> TruncatedValue:
    """Truncated Selberg zeta value on Re s > 1.

    log Z = -sum_P sum_m p^(-ms) / (m (1 - p^(-m))) over the spectrum's
    classes: the k-product in closed form. Each term is one real
    magnitude turned by the phase m Im s log p. For each m only the
    shells whose p^(-m sigma) can still move log Z in a double are
    evaluated, a prefix of the table that shrinks as m grows (see
    `_kept_shells`). The error estimate is the prime-geodesic trace tail.
    """
    s = _require_usable(spectrum, s)
    sigma = s.real
    _, count, _, length = spectrum.columns
    kept = _kept_shells(spectrum, sigma)
    # the staircase as one flat run of (shell, m) pairs, m by m
    shell = np.arange(kept.sum()) - np.repeat(np.cumsum(kept) - kept, kept)
    m = np.repeat(np.arange(1, kept.size + 1), kept)
    ml = m * length[shell]
    magnitude = count[shell] * np.exp(-sigma * ml) / (m * -np.expm1(-ml))
    angle = s.imag * ml
    log_z = complex(-(magnitude @ np.cos(angle)), magnitude @ np.sin(angle))
    return _truncated(spectrum, sigma, log_z, kept.size)


def _ruelle_direct(spectrum: LengthSpectrum, s: complex) -> TruncatedValue:
    _, count, _, length = spectrum.columns
    log_r = complex(count @ _log_one_minus(np.exp(-s * length)))
    return _truncated(spectrum, s.real, log_r, 0)


def ruelle_R(
    spectrum: LengthSpectrum,
    s: complex,
    *,
    method: str = "direct",
) -> TruncatedValue:
    """Truncated Ruelle zeta value on Re s > 1.

    method="direct" evaluates the single product over classes;
    method="quotient", the reference it is checked against, divides the
    two truncated Selberg values with first-order error propagation. The
    two paths agree within the combined error estimates on Re s > 1.
    """
    s = _require_usable(spectrum, s)
    if method == "direct":
        return _ruelle_direct(spectrum, s)
    if method != "quotient":
        raise ValueError(f"unknown method {method!r}; use 'quotient' or 'direct'")
    za = selberg_Z(spectrum, s)
    zb = selberg_Z(spectrum, s + 1.0)
    value = za.value / zb.value
    trace_tail = za.trace_tail_error + zb.trace_tail_error
    return TruncatedValue(value, abs(value) * trace_tail, za.k_cutoff_used, trace_tail)
