"""Truncated Euler products over an enumerated length spectrum.

Evaluates the Selberg zeta function Z(s) = prod_P prod_k (1 - p^(-s-k))
and the Ruelle zeta function R(s) = Z(s)/Z(s+1) = prod_P (1 - p^(-s))
for Re s > 1, with explicit truncation-error estimates. The inner k-sum
is cut where its geometric bound in the smallest norm drops below a
fixed target; the missing trace shells are estimated from the prime
geodesic theorem and doubled - an honest estimate, not a proven bound.

Both products read the spectrum's columnar table
(`LengthSpectrum.columns`: one column per distinct trace, weighted by
its class count) and run over numpy arrays. The Selberg product takes,
for each k, only the prefix of shells whose term can still move log Z in
a double (a staircase, not the full shell x k rectangle); the
magnitudes of the terms it skips sum to less than 1e-17, and each kept
term's log(1 - x) keeps the low bits of Re x. Every result
carries its relative error estimate split into the k-tail and the
trace-tail parts.
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
_MIN_K_CUTOFF = 10
# relative target of the adaptive k-cutoff; the k-tail is cut at a tenth of it
_REL_TOL = 1e-10
# bound on the summed magnitudes of the terms p^(-s-k) that selberg_Z skips
_SKIPPED_BOUND = 1e-17


@dataclass(frozen=True)
class TruncatedValue:
    """Truncated product value with its absolute error estimate.

    `k_tail_error` and `trace_tail_error` are the relative parts of the
    estimate: the terms cut at k > k_cutoff_used and the shells beyond
    max_trace_used; abs_error_estimate = |value| * (their sum).
    """

    value: complex
    abs_error_estimate: float
    max_trace_used: int
    k_cutoff_used: int
    k_tail_error: float
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
    classes of norm at most x number li(x) asymptotically, so the missing terms |log(1 - p^(-s))| ~ p^(-sigma)
    sum to the integral of x^(-sigma) / log x from N(T) on, which is
    E1((sigma - 1) log N(T)) with N(T) the norm at trace T. expm1 turns
    that error of the log into one of the value, and the safety factor
    covers the sub-leading terms of the theorem.
    """
    log_norm = 2.0 * math.acosh(max_trace / 2.0)
    return _TAIL_SAFETY * math.expm1(_exp1((sigma - 1.0) * log_norm))


def _k_cutoff(spectrum: LengthSpectrum, sigma: float) -> int:
    """Smallest k >= _MIN_K_CUTOFF with count * p_min^(-(sigma + k + 1)) below
    a tenth of _REL_TOL."""
    p_min = float(spectrum.columns[2, 0])
    exponent = math.log(10.0 * spectrum.class_count / _REL_TOL) / math.log(p_min)
    return max(_MIN_K_CUTOFF, math.floor(exponent - sigma - 1.0) + 1)


def _kept_shells(spectrum: LengthSpectrum, sigma: float, cutoff: int) -> np.ndarray:
    """For each k <= cutoff, the number of leading shells whose terms
    p^(-s-k) selberg_Z evaluates: those with p^(-sigma-k) >= tau, a prefix
    of the table, where tau = _SKIPPED_BOUND / M and M = (cutoff + 1) *
    class_count. The at most M skipped terms move log Z by less than
    _SKIPPED_BOUND / (1 - tau), as |log(1 - x)| <= |x| / (1 - |x|).
    """
    tau = _SKIPPED_BOUND / ((cutoff + 1) * spectrum.class_count)
    bound = -math.log(tau) / (sigma + np.arange(cutoff + 1))
    return np.searchsorted(spectrum.columns[3], bound, side="right")


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


def selberg_Z(spectrum: LengthSpectrum, s: complex) -> TruncatedValue:
    """Truncated Selberg zeta value on Re s > 1.

    log Z is the double sum of log(1 - p^(-s-k)) over the spectrum's
    classes and k up to an adaptive cutoff, with the phase p^(-i Im s)
    computed once per shell. For each k only the shells whose
    |p^(-s-k)| = p^(-sigma-k) can still move log Z in a double are
    evaluated, a prefix of the table that shrinks as k grows; the skipped
    terms' magnitudes sum to less than 1e-17 (see `_kept_shells`). The
    error estimate combines the k-tail (geometric in the smallest norm)
    with the prime-geodesic trace tail.
    """
    s = _require_usable(spectrum, s)
    sigma = s.real
    cutoff = _k_cutoff(spectrum, sigma)
    _, count, norm, length = spectrum.columns
    kept = _kept_shells(spectrum, sigma, cutoff)
    # the staircase as one flat run of (shell, k) pairs, k by k
    shell = np.arange(kept.sum()) - np.repeat(np.cumsum(kept) - kept, kept)
    k = np.repeat(np.arange(cutoff + 1), kept)
    phase = np.exp(-1j * s.imag * length[: kept[0]])
    x = np.exp(-(sigma + k) * length[shell]) * phase[shell]
    log_z = complex(count[shell] @ _log_one_minus(x))
    p_min = float(norm[0])
    k_tail = (
        spectrum.class_count
        * p_min ** (-(sigma + cutoff + 1))
        / (1.0 - 1.0 / p_min)
    )
    trace_tail = _trace_tail_estimate(sigma, spectrum.max_trace)
    value = cmath.exp(log_z)
    return TruncatedValue(
        value=value,
        abs_error_estimate=abs(value) * (k_tail + trace_tail),
        max_trace_used=spectrum.max_trace,
        k_cutoff_used=cutoff,
        k_tail_error=k_tail,
        trace_tail_error=trace_tail,
    )


def _ruelle_direct(spectrum: LengthSpectrum, s: complex) -> TruncatedValue:
    _, count, _, length = spectrum.columns
    log_r = complex(count @ _log_one_minus(np.exp(-s * length)))
    value = cmath.exp(log_r)
    trace_tail = _trace_tail_estimate(s.real, spectrum.max_trace)
    return TruncatedValue(
        value=value,
        abs_error_estimate=abs(value) * trace_tail,
        max_trace_used=spectrum.max_trace,
        k_cutoff_used=0,
        k_tail_error=0.0,
        trace_tail_error=trace_tail,
    )


def ruelle_R(
    spectrum: LengthSpectrum,
    s: complex,
    *,
    method: str = "quotient",
) -> TruncatedValue:
    """Truncated Ruelle zeta value on Re s > 1.

    method="quotient" divides the two truncated Selberg values with
    first-order error propagation; method="direct" evaluates the single
    product over classes. The two paths agree within the combined error
    estimates on the convergence region.
    """
    s = _require_usable(spectrum, s)
    if method == "direct":
        return _ruelle_direct(spectrum, s)
    if method != "quotient":
        raise ValueError(f"unknown method {method!r}; use 'quotient' or 'direct'")
    za = selberg_Z(spectrum, s)
    zb = selberg_Z(spectrum, s + 1.0)
    value = za.value / zb.value
    rel = za.abs_error_estimate / abs(za.value) + zb.abs_error_estimate / abs(zb.value)
    # rel is the sum of the four parts below, up to the rounding of
    # dividing each estimate by its value
    return TruncatedValue(
        value=value,
        abs_error_estimate=abs(value) * rel,
        max_trace_used=spectrum.max_trace,
        k_cutoff_used=za.k_cutoff_used,
        k_tail_error=za.k_tail_error + zb.k_tail_error,
        trace_tail_error=za.trace_tail_error + zb.trace_tail_error,
    )
