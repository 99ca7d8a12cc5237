"""Complex special functions underlying the zeta machinery.

Provides principal-branch log-gamma (Stirling's series after
recurrence shifts, reflection on the left with no branch correction, and
Taylor series next to its zeros at 1 and 2), the Riemann zeta function
(one Euler-Maclaurin series on Re s >= 1/2, continued to Re s < 1/2 by
the reflection formula, whose factor is summed in log space), the double
gamma function G2 satisfying G2(s) = Gamma(s) * G2(s+1), and the
constant zeta'(-1). Every log sin(pi z) among them is _log_sinpi's.

Truncations are sized from the argument, never set by the caller: the
zeta sum length grows with |Im s|, which is refused with DomainError
beyond 10^6 (8 MB per array of the sum), and the double-gamma product
length doubles from 10,000 terms until its remainder bound meets 1e-11,
up to a ceiling of 160,000 terms (about |s - 1| <= 1,060 after the
recursion shift); beyond it G2 raises DomainError.

All routines work in IEEE binary64; tolerances quoted in docstrings are
for that precision. Functions are pure, conjugate-symmetric bit for bit
(see _memoized), refuse a non-finite argument with DomainError, and
raise instead of returning non-finite values.
"""

from __future__ import annotations

import cmath
import contextlib
import contextvars
import math
import threading

import numpy as np

from .errors import DomainError, HypzetaError, PoleError

__all__ = [
    "EULER_GAMMA",
    "ZETA_PRIME_MINUS_ONE",
    "log_gamma",
    "riemann_zeta",
    "log_barnes_gamma2",
]

EULER_GAMMA = 0.5772156649015328606065120900824024

# zeta'(-1) = 1/12 - log(Glaisher); value pinned against an independent
# high-precision evaluation (see tests for the recomputation oracle).
ZETA_PRIME_MINUS_ONE = -0.16542114370045092921391966024278

_POLE_TOL = 1e-12
_ZETA_MAX_IMAG = 1e6  # the zeta sum holds |Im s| + 20 terms: 8 MB per array here


def _near_integer(z: complex) -> bool:
    return abs(z.imag) < _POLE_TOL and abs(z.real - round(z.real)) < _POLE_TOL


def _is_nonpositive_integer(s: complex) -> bool:
    return s.real < 0.5 and _near_integer(s)


def _finite_complex(s) -> complex:
    """complex(s), raising DomainError unless both of its parts are finite."""
    s = complex(s)
    if not cmath.isfinite(s):
        raise DomainError(f"s must be finite (got s = {s})")
    return s


def _ensure_finite(value: complex, what: str) -> complex:
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise DomainError(f"{what} leaves double range")
    return value


# Bernoulli numbers B_2, B_4, ..., B_24 as exact fractions.
_BERNOULLI = tuple(
    p / q
    for p, q in [
        (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
        (-3617, 510), (43867, 798), (-174611, 330), (854513, 138),
        (-236364091, 2730),
    ]
)


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)
_LOG_HALF_I = cmath.log(0.5j)

# B_2n / (2n (2n - 1)), n = 8 down to 1: the Stirling series of log Gamma
_STIRLING = tuple(b / (2 * n * (2 * n - 1)) for n, b in enumerate(_BERNOULLI[:8], 1))[::-1]


# zeta(k) - 1 for k = 2, ..., 25 (mpmath at 40 digits, rounded to double)
_ZETA_MINUS_ONE = (
    0.6449340668482264, 0.2020569031595943, 0.08232323371113819,
    0.03692775514336993, 0.01734306198444914, 0.008349277381922827,
    0.00407735619794434, 0.0020083928260822143, 0.0009945751278180853,
    0.0004941886041194645, 0.0002460865533080483, 0.00012271334757848915,
    6.124813505870483e-05, 3.058823630702049e-05, 1.528225940865187e-05,
    7.637197637899763e-06, 3.81729326499984e-06, 1.908212716553939e-06,
    9.539620338727962e-07, 4.769329867878064e-07, 2.38450502727733e-07,
    1.1921992596531106e-07, 5.960818905125948e-08, 2.980350351465228e-08,
)
# Taylor coefficients of log Gamma(1 + e) and log Gamma(2 + e), e^25 down
# to e^1: (-1)^k zeta(k) / k and (-1)^k (zeta(k) - 1) / k for k >= 2, then
# -gamma and 1 - gamma (log Gamma(2 + e) = log Gamma(1 + e) + log(1 + e))
_ZETA_K = tuple(enumerate(_ZETA_MINUS_ONE, 2))[::-1]
_LOGGAMMA_TAYLOR = (
    (1, tuple((-1) ** k * (1.0 + z) / k for k, z in _ZETA_K) + (-EULER_GAMMA,)),
    (2, tuple((-1) ** k * z / k for k, z in _ZETA_K) + (1.0 - EULER_GAMMA,)),
)
# |z - 1| and |z - 2| below which _loggamma sums the Taylor series; the
# first term left out is below 0.2^26 / 26 of the value's scale
_TAYLOR_RADIUS = 0.2


def _sincospi(x: float) -> tuple[float, float]:
    """(sin(pi x), cos(pi x)), with x reduced mod 2 once before pi multiplies it."""
    r = math.fmod(abs(x), 2.0)
    if r < 0.5:
        sin = math.sin(math.pi * r)
    elif r > 1.5:
        sin = math.sin(math.pi * (r - 2.0))
    else:
        sin = -math.sin(math.pi * (r - 1.0))
    if r == 0.5:
        cos = 0.0
    elif r < 1.0:
        cos = -math.sin(math.pi * (r - 0.5))
    else:
        cos = math.sin(math.pi * (r - 1.5))
    return (-sin if x < 0.0 else sin), cos


def _log_sinpi(z: complex) -> complex:
    """A log sin(pi z), finite wherever sin(pi z) is nonzero and continuous
    off the real axis: -i pi z + log(i/2) + log(1 - e^(2i pi z)) for
    Im z >= +0, and by the sign bit of Im z <= -0 the conjugate of its
    value at conj z. With z = x + iy, y >= 0, 1 - e^(2i pi z) is formed as
    2 sin^2 pi x - cos 2 pi x expm1(-2 pi y) - i e^(-2 pi y) sin 2 pi x, in
    the closed right half-plane, from _sincospi, which reduces x mod 2
    before pi multiplies it: nothing of size e^(pi y) is formed, and
    nothing cancels next to the zeros of sin(pi z)."""
    x, y = z.real, abs(z.imag)
    sin_x, cos_x = _sincospi(x)
    versin = 2.0 * sin_x * sin_x  # 1 - cos 2 pi x
    decay = math.expm1(-2.0 * math.pi * y)
    one_minus = complex(versin - (1.0 - versin) * decay, -2.0 * sin_x * cos_x * (1.0 + decay))
    value = complex(math.pi * y, -math.pi * x) + _LOG_HALF_I + cmath.log(one_minus)
    return value.conjugate() if math.copysign(1.0, z.imag) < 0.0 else value


def _loggamma_stirling(z: complex) -> complex:
    rz = 1.0 / z
    rzz = rz / z
    series = 0j
    for c in _STIRLING:
        series = series * rzz + c
    return (z - 0.5) * cmath.log(z) - z + _HALF_LOG_2PI + rz * series


def _loggamma_recurrence(z: complex) -> complex:
    """log Gamma(z) for Re z > 0 from log Gamma(z + n), Re(z + n) > 7: every
    z + i lies in the right half-plane, where principal logs sum to the
    principal log of the shift product."""
    logs = 0j
    while z.real <= 7.0:
        logs += cmath.log(z)
        z += 1.0
    return _loggamma_stirling(z) - logs


def _loggamma(z: complex) -> complex:
    """Principal branch of log Gamma(z) off the poles.

    Stirling's series with 8 terms where Re z > 7 or |Im z| > 7; Taylor
    series within 0.2 of the zeros 1 and 2, for relative accuracy there;
    the backward recurrence elsewhere on Re z >= 0.1; and the reflection
    formula log pi - log sin(pi z) - log Gamma(1 - z) on Re z < 0.1. That
    needs no correction: with _log_sinpi it is continuous on Im z >= +0
    and real on (0, 0.1), so principal there, and its conjugate on
    Im z <= -0, so a zero imaginary part picks the side of the negative
    real axis by its sign.
    """
    if z.real > 7.0 or abs(z.imag) > 7.0:
        return _loggamma_stirling(z)
    for shift, coefficients in _LOGGAMMA_TAYLOR:
        e = z - shift
        if abs(e) < _TAYLOR_RADIUS:
            series = 0j
            for c in coefficients:
                series = series * e + c
            return series * e
    if z.real < 0.1:
        return _LOG_PI - _log_sinpi(z) - _loggamma(complex(1.0 - z.real, -z.imag))
    return _loggamma_recurrence(z)


# kernel values already evaluated, keyed by kernel and argument, while a
# _kernel_memo() scope is open; None outside one
_KERNEL_MEMO: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "hypzeta_kernel_memo", default=None
)


@contextlib.contextmanager
def _kernel_memo():
    """Scope in which every memoized function (log_gamma, riemann_zeta,
    the product behind log_barnes_gamma2, and the factors of
    `zeta_factors`) evaluates each conjugate pair of arguments once, per
    context for a factor; `verify.run_verify` runs in one, since its
    identities revisit their arguments and its grids are symmetric under
    s -> conj(s).

    Later calls in the scope reuse the value bit for bit, and a hit skips
    the argument checks (poles, ranges, a factor's cusp count): the memo
    holds only values that passed them, since a call that raises stores
    nothing. The memo is a fresh dict for each scope and is dropped when
    the scope closes, whether its body returns or raises, so no value
    outlives it.
    """
    token = _KERNEL_MEMO.set({})
    try:
        yield
    finally:
        _KERNEL_MEMO.reset(token)


def _memoized(kernel, s: complex, *context):
    """kernel(*context, s): from the open memo if it holds (context, s),
    else evaluated, and kept if a memo is open. The context (a factor's
    signature, and its model if it takes one) is part of the key, so it
    must be hashable, and contexts that compare equal must give equal
    values.

    Every kernel satisfies f(conj s) = conj f(s) bit for bit off the
    real axis; on it, the sign of a zero Im s names the side of a cut
    (log Gamma left of 0) or the sign of a real value's zero imaginary
    part. So an s with the sign bit of Im s set, s - 0j among them, is
    answered as the conjugate of the kernel at conj(s), in a memo or
    not, and the two sides of a cut share one evaluation. Where conj(s)
    raises, the kernel is called at s itself, whose error names the
    caller's s; every value comes from Im s >= +0.
    """
    mirrored = math.copysign(1.0, s.imag) < 0.0
    z = s.conjugate() if mirrored else s
    memo = _KERNEL_MEMO.get()
    try:
        if memo is None:
            # a star call with no context costs ~0.1 us, on every kernel call
            value = kernel(*context, z) if context else kernel(z)
        else:
            key = (kernel, context, z.real, z.imag)
            value = memo.get(key)
            if value is None:
                value = memo[key] = kernel(*context, z)
    except HypzetaError:
        if mirrored:
            kernel(*context, s)
        raise
    return value.conjugate() if mirrored else value


def log_gamma(s: complex) -> complex:
    """Principal branch of log Gamma(s).

    Within about 1e-14 of max(1, |log Gamma(s)|), and within 1e-14
    relative where s lies within 0.2 of the zeros 1 and 2. Raises
    PoleError at the poles s = 0, -1, -2, ..., and DomainError where the
    value leaves double range.
    """
    return _memoized(_checked_log_gamma, _finite_complex(s))


def _checked_log_gamma(s: complex) -> complex:
    """log_gamma(s), checked for its poles and for overflow."""
    if _is_nonpositive_integer(s):
        raise PoleError(f"log_gamma pole at s={s}")
    value = _ensure_finite(_loggamma(s), "log_gamma")
    # real on the positive real axis, with the sign of zero of Im s
    return complex(value.real, s.imag) if s.imag == 0.0 and s.real > 0.0 else value


# ---------------------------------------------------------------------------
# Riemann zeta: an Euler-Maclaurin sum on Re s >= 1/2 and the reflection
# formula on Re s < 1/2.
# ---------------------------------------------------------------------------

def _power_sum_tail(s: complex, n: int, order: int) -> complex:
    """sum_{k >= n} k^(-s) by Euler-Maclaurin from k = n, with `order`
    Bernoulli corrections B_{2j}/(2j)! * s(s+1)...(s+2j-2) * n^(-s-2j+1)."""
    total = 0.5 * n ** -s + n ** (1.0 - s) / (s - 1.0)
    rising = s
    fact = 2.0
    for j in range(1, order + 1):
        total += _BERNOULLI[j - 1] / fact * rising * n ** (-s - 2 * j + 1)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        fact *= (2 * j + 1) * (2 * j + 2)
    return total


def _hurwitz_zeta(j: int, q: int) -> float:
    """Hurwitz zeta(j, q) = sum_{k >= q} k^(-j) for integers 2 <= j <= 8 and
    q >= 10,001, where the B_6 correction is below 1e-22 of the sum."""
    return _power_sum_tail(complex(j), q, 3).real


def _zeta_euler_maclaurin(s: complex, terms: int = 50, order: int = 12) -> complex:
    n = max(terms, int(abs(s.imag)) + 20)
    k = np.arange(1, n, dtype=float)
    return complex(np.sum(np.exp(-s * np.log(k)))) + _power_sum_tail(s, n, order)


def riemann_zeta(s: complex) -> complex:
    """Analytically continued Riemann zeta function.

    Sums Euler-Maclaurin on Re s >= 1/2, with 12 Bernoulli correction
    terms and max(50, |Im s| + 20) direct terms, and reflects through
    zeta(s) = 2^s pi^(s-1) sin(pi s / 2) Gamma(1-s) zeta(1-s) on
    Re s < 1/2, with the reflection factor formed as one sum of logs and
    exponentiated once (sin(pi s / 2) and Gamma(1-s) each leave double
    range from |Im s| ~ 450 on, their product does not). Accurate to
    ~1e-12 of max(1, |zeta|) on the strip Re s in [-3, 4], |Im s| <= 20,
    and for Re s >= 1/2 with |Im s| <= 250; to ~1e-11 for Re s in [-3, 4]
    and |Im s| <= 3,000, where the phases |Im s| log k of the sum and
    |Im s| log |Im s| of the factor are rounded in double precision.
    That rounding grows up to the 10^6 bound below: against mpmath at 30
    digits, 1.4e-11 at 2 + 10^6 i and 4.3e-10 at 0.3 - 10^6 i, and over
    |Im s| in [9e5, 1e6] at most 3.2e-9 for Re s in [-3, 1/2], 2.7e-10
    for Re s in [0.8, 1], 2.3e-11 at Re s = 2 and 5.5e-12 at Re s = 4.
    Raises PoleError at s = 1, and DomainError for |Im s| > 10^6, before
    the sum is allocated, and where the result itself leaves double
    range. Returns exactly 0 at the trivial zeros
    s = -2, -4, ..., where the reflection formula would multiply a
    rounded sin(pi s / 2) by a huge gamma factor; next to them s/2 is
    reduced mod 2 before pi multiplies it, so the value keeps its
    relative accuracy: within 5e-15 of mpmath at -4 + 1e-9, -6 - 3e-8
    and -2 + 1e-7 i.
    """
    return _memoized(_riemann_zeta, _finite_complex(s))


def _riemann_zeta(s: complex) -> complex:
    """riemann_zeta(s), checked for its pole, its |Im s| bound and overflow."""
    if abs(s - 1.0) < _POLE_TOL:
        raise PoleError("riemann_zeta pole at s=1")
    if abs(s.imag) > _ZETA_MAX_IMAG:
        raise DomainError(f"riemann_zeta takes |Im s| <= 1e6 (got {s.imag:.6g})")
    if s.real >= 0.5:
        value = _zeta_euler_maclaurin(s)
    elif abs(s) < _POLE_TOL:
        value = complex(-0.5)
    elif s.real < -1.0 and _is_nonpositive_integer(s) and round(s.real) % 2 == 0:
        value = 0j
    else:
        log_factor = (
            s * math.log(2.0) + (s - 1.0) * math.log(math.pi)
            + _log_sinpi(s / 2.0) + log_gamma(1.0 - s)
        )
        try:
            value = cmath.exp(log_factor) * riemann_zeta(1.0 - s)
        except OverflowError:  # refused with the infinite product below
            value = complex(math.inf)
    value = _ensure_finite(value, "riemann_zeta")
    # real on the real axis, with the sign of zero of Im s
    return complex(value.real, s.imag) if s.imag == 0.0 else value


# ---------------------------------------------------------------------------
# Double gamma function G2 with G2(1) = 1 and G2(s) = Gamma(s) * G2(s+1):
# the defining product on Re s >= 1, the recursion to its left.
# ---------------------------------------------------------------------------


def _log1p_complex(z: np.ndarray, out: np.ndarray, d: np.ndarray,
                   exact: np.ndarray) -> np.ndarray:
    """Accurate log(1+z) for complex arrays (Kahan's compensated form).

    Writes into `out` and returns it; `d` (complex) and `exact` (bool),
    of z's shape, are overwritten, and no array is allocated.
    """
    u = np.add(1.0, z, out=out)
    np.subtract(u, 1.0, out=d)
    # Where 1+z rounded to exactly 1, log1p(z) ~ z; elsewhere rescale by z/d
    # to recover the low-order bits lost when forming u.
    np.equal(d, 0, out=exact)
    np.copyto(d, 1.0, where=exact)
    np.divide(z, d, out=d)
    np.multiply(np.log(u, out=u), d, out=u)
    np.copyto(u, z, where=exact)
    return u


_G2_MIN_CUTOFF = 10_000
_G2_MAX_CUTOFF = 160_000
_G2_TAIL_TOL = 1e-11
# k-terms per numpy pass of the product. Every pass works in place in its
# thread's scratch arrays (228 KiB at this size, made once). Passes that
# allocated their temporaries page-faulted 16 to 54 times each in some
# processes and never in others: glibc trims the top of the heap once the
# temporaries freed there pass its 128 KiB threshold, and the next pass
# faults those pages in again, so the cost hung on the heap's layout.
_G2_BLOCK = 4_096
_G2_SCRATCH = threading.local()


def _g2_scratch(n: int) -> tuple[np.ndarray, ...]:
    """This thread's arrays for product passes of up to n terms, made again
    when n changes: one real (k-derived factors), three complex, one bool."""
    arrays = getattr(_G2_SCRATCH, "arrays", None)
    if arrays is None or arrays[0].size != n:
        arrays = (np.empty(n), *np.empty((3, n), dtype=complex), np.empty(n, dtype=bool))
        _G2_SCRATCH.arrays = arrays
    return arrays


def _g2_remainder_bound(t: complex, cutoff: int) -> float:
    """Bound on the j >= 9 tail block the product drops at `cutoff`.

    Geometric in |t|/k beyond the cutoff; infinite once |t| comes within
    10% of cutoff + 1, where the expansion no longer converges usefully.
    """
    margin = 1.0 - abs(t) / (cutoff + 1.0)
    if margin <= 0.1:
        return math.inf
    return (abs(t) ** 9 / 9.0) * _hurwitz_zeta(8, cutoff + 1) / margin


def _g2_cutoff(t: complex) -> int:
    """Product length for log G2(1 + t): doubled until the bound holds."""
    cutoff = _G2_MIN_CUTOFF
    while _g2_remainder_bound(t, cutoff) > _G2_TAIL_TOL:
        if cutoff >= _G2_MAX_CUTOFF:
            raise DomainError(
                f"double-gamma product needs more than {_G2_MAX_CUTOFF} terms "
                f"for |s - 1| ~ {abs(t):.3g}"
            )
        cutoff *= 2
    return cutoff


def _log_gamma2_product(w: complex) -> complex:
    """log G2(w) from the defining product, valid for Re w > 1/2 and
    called on Re w >= 1.

    Truncates the product at the cutoff `_g2_cutoff` picks for w, sums it
    in blocks of _G2_BLOCK terms from the tail (each in place, in the
    arrays `_g2_scratch` keeps for the thread), and restores the terms
    beyond the cutoff analytically through ninth order in w-1 over k.
    """
    t = w - 1.0
    if t == 0:
        return 0.0 + 0.0j
    cutoff = _g2_cutoff(t)
    scratch = _g2_scratch(min(cutoff, _G2_BLOCK))
    total = 0.0 + 0.0j
    for top in range(cutoff, 0, -_G2_BLOCK):
        k = np.arange(max(top - _G2_BLOCK, 0) + 1, top + 1, dtype=float)
        kf, z, log1p, d, exact = (a[: k.size] for a in scratch)
        # terms = -k log1p(t/k) + t - t^2/(2k), one ufunc at a time
        _log1p_complex(np.divide(t, k, out=z), log1p, d, exact)
        terms = np.multiply(np.negative(k, out=kf), log1p, out=log1p)
        np.add(terms, t, out=terms)
        np.divide(t * t, np.multiply(2.0, k, out=kf), out=d)
        np.subtract(terms, d, out=terms)
        total += complex(np.sum(terms[::-1]))
    total += -0.5 * t * math.log(2.0 * math.pi) + 0.5 * t
    total += 0.5 * (EULER_GAMMA + 1.0) * t * t
    # tail over k > cutoff: sum_{j>=3} (-1)^j t^j / (j k^(j-1))
    tp = t * t * t
    for j in range(3, 9):
        tail = _hurwitz_zeta(j - 1, cutoff + 1)
        total += (-1.0 if j % 2 else 1.0) * tp / j * tail
        tp *= t
    return total


def log_barnes_gamma2(s: complex) -> complex:
    """log G2(s) for the double gamma function normalized by G2(1) = 1.

    Evaluates the defining product for Re s >= 1 and extends to the rest
    of the plane through the recursion G2(s) = Gamma(s) * G2(s+1). The
    product converges for Re s > 1/2, but on Re s < 1 every factor
    1 + (s-1)/k lies inside the unit circle, where numpy's complex log
    costs about seven times as much; one more shift, one log_gamma call,
    is far cheaper. Both forms are analytic on Re s > 1/2 and agree on
    the real axis, so the value and its branch are the same.
    The product length follows from s: 10,000 terms for every
    |s - 1| <= 120 after the shift, doubled while the remainder bound
    exceeds 1e-11. Relative accuracy ~1e-11 for |s| <= 10.
    Raises PoleError at s = 0, -1, -2, ... (pole of order k+1 at -k), and
    DomainError, before evaluating anything, where 160,000 terms do
    not suffice (|s - 1| beyond about 1,060 after the shift).
    """
    s = _finite_complex(s)
    if _is_nonpositive_integer(s):
        raise PoleError(f"double gamma pole at s={s}")
    shift = complex(-0.0, -0.0)  # adds as the identity, zero signs too
    while s.real < 1.0:
        shift += log_gamma(s)
        s = complex(s.real + 1.0, s.imag)  # keeps the sign of a zero Im s
    return _ensure_finite(shift + _memoized(_log_gamma2_product, s), "log_barnes_gamma2")

