"""Signed checks of kappa and the Ruelle leading coefficient against Mayer's
transfer operator for PSL(2,Z), an oracle that shares no code with hypzeta.

Mayer (Bull. AMS 25, 1991): Z(s) = det(1 - L_s^2) = det(1 - L_s) det(1 + L_s)
with L_s f(z) = sum_{n>=1} (z+n)^(-2s) f(1/(z+n)). On Taylor coefficients at
z = 1, truncated to N x N, L_s is the matrix M = D (B (P o H))^T with
D = diag((-1)^j), B[k,m] = C(k,m) (-1)^(k-m), P[m,j] = (2s+m)_j / j! and
H[m,j] = zeta(2s+m+j, 2); only the 2N-1 Hurwitz values enter. N = 30 at 30
digits agrees with N = 40 at 40 digits to 1e-8 relative at the
functional-equation points below, to 5e-8 at 0.49 and 0.51, and to 5e-5 at
s = 1e-4, next to the pole of Z at 0.
"""

import functools
import math

import mpmath as mp
import pytest

from hypzeta.euler_product import selberg_Z
from hypzeta.length_spectrum import enumerate_spectrum
from hypzeta.scattering import modular_model
from hypzeta.surface import Signature
from hypzeta.verify import CUT_SAFE_POINTS
from hypzeta.zeta_factors import kappa, ruelle_leading_at_zero

MODULAR = Signature(0, 1, (2, 3))


def _det(rows):
    """Determinant by Gaussian elimination with partial pivoting (consumes rows)."""
    n, det = len(rows), mp.mpf(1)
    for c in range(n):
        p = max(range(c, n), key=lambda r: abs(rows[r][c].real) + abs(rows[r][c].imag))
        if p != c:
            rows[c], rows[p], det = rows[p], rows[c], -det
        pivot, tail = rows[c][c], rows[c][c + 1:]
        det *= pivot
        for row in rows[c + 1:]:
            factor = row[c] / pivot
            for k, x in enumerate(tail, c + 1):
                row[k] -= factor * x
    return det


@functools.cache
def mayer_Z(s: complex, N: int = 30, dps: int = 30) -> complex:
    """Selberg zeta of PSL(2,Z) from the truncated transfer operator."""
    with mp.workdps(dps):
        s2 = 2 * mp.mpmathify(s)
        hurwitz = [mp.zeta(s2 + n, 2) for n in range(2 * N - 1)]
        ph = []  # ph[m][j] = (P o H)[m, j]
        for m in range(N):
            row, rising = [], mp.mpf(1)
            for j in range(N):
                row.append(rising * hurwitz[m + j])
                rising = rising * (s2 + m + j) / (j + 1)
            ph.append(row)
        minus = [[mp.mpf(j == k) for k in range(N)] for j in range(N)]
        plus = [row[:] for row in minus]
        for k in range(N):
            weights = [(-1) ** (k - m) * math.comb(k, m) for m in range(k + 1)]
            for j in range(N):
                entry = (-1) ** j * mp.fdot(weights, [ph[m][j] for m in range(k + 1)])
                minus[j][k] -= entry
                plus[j][k] += entry
        return complex(_det(minus) * _det(plus))


def test_oracle_is_the_euler_product_at_two():
    truncated = selberg_Z(enumerate_spectrum(200), 2.0)
    assert abs(mayer_Z(2.0) - truncated.value) <= truncated.abs_error_estimate


# (max_trace, s) where the oracle's own error (8e-10 relative at 1.1, 5e-12 at
# 3+5i) is at most 1e-3 of the truncation error it measures
ESTIMATE_POINTS = ((40, 1.1), (40, 1.5), (40, 2.0), (40, 3.0), (200, 1.5), (200, 2.0),
                   (40, complex(1.5, 1.0)), (40, complex(3.0, 5.0)))


def test_euler_estimate_against_true_error():
    ratios = []
    for max_trace, s in ESTIMATE_POINTS:
        truncated = selberg_Z(enumerate_spectrum(max_trace), s)
        ratios.append(truncated.abs_error_estimate / abs(mayer_Z(complex(s)) - truncated.value))
    # the prime-geodesic tail alone reads 1.0-1.5x the true error on the real
    # points and 2-3x on the complex ones, so with the safety factor 2 the
    # tightest ratio sits just above 2
    assert 1.95 <= min(ratios) <= 2.2, ratios
    assert max(ratios) <= 6.5, ratios


@pytest.mark.parametrize("s", [
    complex(0.45), CUT_SAFE_POINTS[0], CUT_SAFE_POINTS[5], CUT_SAFE_POINTS[-1],
], ids=str)
def test_functional_equation(s):
    # Z(1-s) = kappa(s) Z(s); with a second (-1)^(A/2) in kappa the ratio is -1
    ratio = mayer_Z(1.0 - s) / (kappa(MODULAR, modular_model(), s).value * mayer_Z(s))
    assert abs(ratio - 1.0) < 1e-7


@pytest.mark.parametrize("s", [
    complex(1.7), complex(2.3), complex(-1.3), complex(2.2, -3.0), complex(2.7, -3.0), complex(-1.3, 2.0),
], ids=str)
def test_functional_equation_off_the_cut_safe_points(s):
    # where Re s or Re(1 - s) is -1.3 the oracle's truncation reaches 1e-5;
    # a kappa on the wrong branch is off by a root of unity, here -1,
    # e^(+-i pi/3) or e^(-2 pi i/3), so by 1 or more
    ratio = mayer_Z(1.0 - s) / (kappa(MODULAR, modular_model(), s).value * mayer_Z(s))
    assert abs(ratio - 1.0) < 1e-4


def test_sign_change_at_half():
    # Z has a simple pole at 1/2, so kappa(1/2) = lim Z(1-s)/Z(s) = -1
    assert mayer_Z(0.49).real > 100.0 and mayer_Z(0.51).real < -100.0


def test_ruelle_leading_coefficient():
    order, coeff = ruelle_leading_at_zero(MODULAR, modular_model())
    h = (1e-3, 1e-4)
    # s^(-order) R(s) with R(s) = Z(s) / Z(s+1), linear in s near 0
    f = [(mayer_Z(x) / mayer_Z(1.0 + x)).real * x ** -order for x in h]
    limit = (f[1] * h[0] - f[0] * h[1]) / (h[0] - h[1])
    assert coeff > 0
    assert abs(limit / coeff - 1.0) < 1e-3
