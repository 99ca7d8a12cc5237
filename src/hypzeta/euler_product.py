"""Truncated Euler products over an enumerated length spectrum.

Evaluates the Selberg zeta function Z(s) = prod_P prod_k (1 - p^(-s-k))
and the Ruelle zeta function R(s) = Z(s)/Z(s+1) = prod_P (1 - p^(-s))
for Re s > 1, with explicit truncation-error estimates. The inner k-sum
is cut adaptively from the smallest norm; the missing trace shells are
extrapolated geometrically from the last included shells and inflated by
a safety factor of 10 - an honest estimate, not a proven bound.

Both products, and the tail fit, read the spectrum's columnar table
(`LengthSpectrum.columns`: one column per distinct trace, weighted by
its class count) and run over numpy arrays, shell x k for the Selberg
product. Every result carries its relative error estimate split into
the k-tail and the trace-tail parts.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptySpectrumError
from .length_spectrum import LengthSpectrum

__all__ = ["TruncatedValue", "selberg_Z", "ruelle_R"]

_TAIL_SAFETY = 10.0
_MIN_K_CUTOFF = 10
# relative target of the adaptive k-cutoff; the k-tail is cut at a tenth of it
_REL_TOL = 1e-10


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


def _require_usable(spectrum: LengthSpectrum, s: complex) -> None:
    if not spectrum.columns.shape[1]:
        raise EmptySpectrumError("length spectrum has no classes")
    if not cmath.isfinite(s):
        raise DomainError(f"Euler product needs a finite s (got s = {s})")
    if s.real <= 1.0:
        raise DomainError(
            f"Euler product converges only for Re s > 1 (got Re s = {s.real})"
        )


def _trace_tail_estimate(traces: np.ndarray, sums: np.ndarray, max_trace: int) -> float:
    """Extrapolation of the missing shell sums beyond max_trace.

    Shell sums count(t) * p(t)^(-sigma) decay like a power of the trace
    but with strong per-trace multiplicity noise, so the decay exponent
    is fitted by least squares over the trailing half of the shells and
    the projected tail (integral of the fitted power law) is inflated by
    the safety factor. A near-flat fit means the tail is effectively
    unbounded and the estimate says so.
    """
    if len(sums) < 6:
        return _TAIL_SAFETY * float(sums[-1]) * len(sums)
    # anchor the fit window at a fixed lower trace so appending shells
    # perturbs the fit only slightly (keeps the estimate monotone in T)
    start = min(int(np.argmax(traces >= 10)), len(sums) - 6)
    xs = np.log(traces[start:])
    ys = np.log(np.maximum(sums[start:], 1e-300))
    x_bar = xs.mean()
    y_bar = ys.mean()
    slope = float(np.sum((xs - x_bar) * (ys - y_bar)) / np.sum((xs - x_bar) ** 2))
    decay = -slope
    if decay <= 1.05:
        return math.inf
    log_c = y_bar - slope * x_bar
    tail = math.exp(log_c) * (max_trace + 0.5) ** (1.0 - decay) / (decay - 1.0)
    return _TAIL_SAFETY * tail


def _k_cutoff(spectrum: LengthSpectrum, sigma: float) -> int:
    p_min = float(spectrum.columns[2, 0])
    count = spectrum.class_count
    k = _MIN_K_CUTOFF
    while count * p_min ** (-(sigma + k + 1)) >= _REL_TOL / 10.0 and k < 10_000:
        k += 1
    return k


def selberg_Z(spectrum: LengthSpectrum, s: complex) -> TruncatedValue:
    """Truncated Selberg zeta value on Re s > 1.

    log Z is the double sum of log(1 - p^(-s-k)) over the spectrum's
    classes and k up to an adaptive cutoff, taken over a (shell x k)
    array with |p^(-s-k)| = p^(-sigma-k) and the phase p^(-i Im s) shared
    along each row. The error estimate combines
    the k-tail (geometric in the smallest norm) with the extrapolated
    trace tail.
    """
    s = complex(s)
    _require_usable(spectrum, s)
    sigma = s.real
    cutoff = _k_cutoff(spectrum, sigma)
    trace, count, norm, length = spectrum.columns
    phase = np.exp(-1j * s.imag * length)
    x = np.exp(-np.outer(length, sigma + np.arange(cutoff + 1))) * phase[:, None]
    log_z = complex(count @ np.log(1.0 - x).sum(axis=1))
    p_min = float(norm[0])
    k_tail = (
        spectrum.class_count
        * p_min ** (-(sigma + cutoff + 1))
        / (1.0 - 1.0 / p_min)
    )
    trace_tail = _trace_tail_estimate(trace, count * norm ** (-sigma), spectrum.max_trace)
    value = cmath.exp(log_z)
    return TruncatedValue(
        value=value,
        abs_error_estimate=abs(value) * (k_tail + trace_tail),
        max_trace_used=spectrum.max_trace,
        k_cutoff_used=cutoff,
        k_tail_error=k_tail,
        trace_tail_error=trace_tail,
    )


def _ruelle_direct(
    spectrum: LengthSpectrum,
    s: complex,
) -> TruncatedValue:
    trace, count, norm, length = spectrum.columns
    log_r = complex(count @ np.log(1.0 - np.exp(-s * length)))
    value = cmath.exp(log_r)
    trace_tail = _trace_tail_estimate(trace, count * norm ** (-s.real), spectrum.max_trace)
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
    s = complex(s)
    _require_usable(spectrum, s)
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
