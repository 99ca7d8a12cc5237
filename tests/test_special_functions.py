"""Special-function tests: frozen values, independent oracles, identities."""

import cmath
import contextlib
import math
import sys
import threading
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypzeta.errors import DomainError, HypzetaError, PoleError
from hypzeta import special_functions
from hypzeta.special_functions import (
    ZETA_PRIME_MINUS_ONE,
    log_barnes_gamma2,
    log_gamma,
    riemann_zeta,
)
from hypzeta.verify import _gauss_multiplication_defect

mp.mp.dps = 30

EULER_GAMMA = 0.5772156649015328606065120900824024


def _bits(z: complex) -> tuple[str, str]:
    """Both parts of z as hex, so -0.0 and 0.0 differ."""
    return z.real.hex(), z.imag.hex()


class TestLogGamma:
    def test_half(self):
        assert abs(log_gamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-14

    def test_one(self):
        assert abs(log_gamma(1.0)) < 1e-14

    def test_five_factorial(self):
        assert abs(log_gamma(5.0) - math.log(24.0)) < 1e-13

    @pytest.mark.parametrize("s", [0.0, -1.0, -2.0, -7.0])
    def test_poles(self, s):
        with pytest.raises(PoleError):
            log_gamma(s)

    def test_reflection_on_grid(self):
        # 100 points avoiding the integers
        for i in range(100):
            re = -2.3 + 4.7 * ((i * 37) % 100) / 99.0
            im = -4.0 + 8.0 * ((i * 53) % 100) / 99.0
            s = complex(round(re, 6), round(im, 6))
            if abs(s.imag) < 0.05 and abs(s.real - round(s.real)) < 0.05:
                s += 0.11 + 0.13j
            lhs = cmath.exp(log_gamma(s) + log_gamma(1.0 - s))
            rhs = math.pi / cmath.sin(math.pi * s)
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def _random_points(seed, count=300):
    """Points with Re in [-30, 30] and |Im| on three scales up to 1000."""
    rng = np.random.default_rng(seed)
    scale = rng.choice([1.0, 10.0, 1000.0], count)
    return [complex(x, y) for x, y in zip(rng.uniform(-30.0, 30.0, count),
                                          scale * rng.uniform(-1.0, 1.0, count))]


# log Gamma on both sides of the negative real axis, as scipy.special.loggamma
# 1.17 returned them: (x, Re, Im at Im x = +0.0); Im x = -0.0 negates Im
SIGNED_ZERO_CUT = [
    (-0.5, 1.265512123484647, -3.141592653589793),
    (-1.25, 1.3664317612369763, -6.283185307179586),
    (-2.5, -0.05624371649767279, -9.42477796076938),
    (-3.7, -1.3797399049658248, -12.566370614359172),
    (-7.3, -7.779101629826852, -25.132741228718345),
    (-12.9, -19.97315427061168, -40.840704496667314),
    (-29.5, -71.80874129832, -94.24777960769379),
]


class TestGammaKernels:
    def test_log_gamma_against_mpmath(self):
        for s in _random_points(11):
            ref = complex(mp.loggamma(mp.mpc(s.real, s.imag)))
            assert abs(log_gamma(s) - ref) <= 1e-14 * max(1.0, abs(ref)), s

    @pytest.mark.parametrize("s", [
        1 + 1e-8, 1 - 1e-8, 2 - 1e-7, 2 + 1e-7, 1 + 1e-8j, 1 - 1e-8 + 1e-8j,
        2 - 1e-7 - 1e-7j, 2 + 3e-8j, 1.15 - 0.1j, 0.85, 1.81 + 0.05j, 2.19,
    ])
    def test_log_gamma_relative_near_its_zeros(self, s):
        # log Gamma vanishes at 1 and 2; its value there keeps relative accuracy
        ref = complex(mp.loggamma(mp.mpc(s.real, s.imag)))
        assert abs(log_gamma(s) - ref) <= 1e-14 * abs(ref), s

    def test_log_gamma_real_near_its_zeros(self):
        for x in (0.85, 1 + 1e-8, 2 - 1e-7):
            assert math.copysign(1.0, log_gamma(complex(x, 0.0)).imag) == 1.0
            assert math.copysign(1.0, log_gamma(complex(x, -0.0)).imag) == -1.0

    @pytest.mark.parametrize("x, re, im", SIGNED_ZERO_CUT)
    def test_signed_zero_picks_the_side_of_the_cut(self, x, re, im):
        above = log_gamma(complex(x, 0.0))
        below = log_gamma(complex(x, -0.0))
        assert abs(above - complex(re, im)) <= 1e-14 * abs(complex(re, im))
        assert abs(below - complex(re, -im)) <= 1e-14 * abs(complex(re, im))
        # the limits from either side, which the zero's sign stands for
        assert abs(log_gamma(complex(x, 1e-9)) - above) <= 1e-8 * abs(above)
        assert abs(log_gamma(complex(x, -1e-9)) - below) <= 1e-8 * abs(below)

    @pytest.mark.parametrize("q", [10_001, 160_001])
    def test_hurwitz_tail_against_mpmath(self, q):
        for j in range(2, 9):
            ref = float(mp.zeta(j, q))
            assert abs(special_functions._hurwitz_zeta(j, q) - ref) <= 1e-15 * ref, j


class TestRiemannZeta:
    def test_basel(self):
        assert abs(riemann_zeta(2.0) - math.pi ** 2 / 6.0) < 1e-12

    def test_zero(self):
        assert abs(riemann_zeta(0.0) + 0.5) < 1e-12

    def test_minus_one(self):
        assert abs(riemann_zeta(-1.0) + 1.0 / 12.0) < 1e-12

    def test_pole(self):
        with pytest.raises(PoleError):
            riemann_zeta(1.0)

    def test_strip_against_mpmath(self):
        for re in np.linspace(-3.0, 4.0, 15):
            for im in np.linspace(-20.0, 20.0, 17):
                s = complex(re, im)
                if abs(s - 1.0) < 0.01:
                    continue
                ref = complex(mp.zeta(mp.mpc(re, im)))
                assert abs(riemann_zeta(s) - ref) <= 1e-11 * max(1.0, abs(ref))

    def test_trivial_zeros_are_exact(self):
        # the reflection formula alone gave 7.5 at -40 and -4.4e62 at -100
        for n in range(1, 51):
            assert riemann_zeta(-2.0 * n) == 0
            assert complex(mp.zeta(-2 * n)) == 0

    def test_trivial_zero_tolerance_matches_pole_checks(self):
        # off a trivial zero by more than the pole tolerance, the value is
        # the reflection formula's, not a clamped zero
        s = -2.0 + 5e-12
        assert riemann_zeta(s) != 0
        assert abs(riemann_zeta(s) - complex(mp.zeta(s))) < 1e-16

    @pytest.mark.parametrize("s", [-0.5, -1.0, -3.0, -3.7, -15.3, -40.5, -41.0, -71.25, -99.5])
    def test_negative_axis_against_mpmath(self, s):
        ref = complex(mp.zeta(s))
        assert abs(riemann_zeta(s) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("s", [-4 + 1e-9, -6 - 3e-8, -2 + 1e-7j])
    def test_next_to_the_trivial_zeros_against_mpmath(self, s):
        # the reflection's sin(pi s / 2) keeps its relative accuracy there:
        # s / 2 is reduced mod 2 before pi multiplies it
        ref = complex(mp.zeta(mp.mpc(s.real, s.imag)))
        assert abs(riemann_zeta(s) - ref) <= 1e-13 * abs(ref)

    def test_large_imaginary_part_against_mpmath(self):
        for re in (0.5, 0.6, 1.5, 2.5, 4.0):
            for im in (251.0, 280.0, 500.0, -1000.0, 3000.0):
                ref = complex(mp.zeta(mp.mpc(re, im)))
                assert abs(riemann_zeta(complex(re, im)) - ref) <= 1e-11 * max(1.0, abs(ref))

    def test_near_eta_degenerate_points(self):
        # zeros of 1 - 2^(1-s) off the real axis must not hurt accuracy
        for s in (complex(1.0, 9.0647), complex(0.99, 18.129), complex(1.01, -9.06)):
            ref = complex(mp.zeta(mp.mpc(s.real, s.imag)))
            assert abs(riemann_zeta(s) - ref) <= 1e-12 * abs(ref)

    def test_right_half_plane_against_mpmath(self):
        # Re s in [0.5, 9], |Im s| <= 250 away from s = 1, including points
        # within 0.1 of the zeros 1 + 2 pi i k / log 2 of 1 - 2^(1-s)
        points = [complex(re, im) for re in np.linspace(0.5, 9.0, 10)
                  for im in np.linspace(-250.0, 250.0, 21)]
        for k in (-27, -5, -1, 1, 2, 13, 27):
            zero = 1.0 + 2j * math.pi * k / math.log(2.0)
            points += [zero + d for d in (0.0, 0.09, -0.09, -0.06j, 0.05 + 0.05j)]
        points += [0.6 + 0.0j, 0.95 + 0.0j, 1.05 + 0.05j]
        for s in points:
            ref = complex(mp.zeta(mp.mpc(s.real, s.imag)))
            assert abs(riemann_zeta(s) - ref) <= 1e-12 * max(1.0, abs(ref)), s

    def test_reflection_overflow_is_domain_error(self):
        # |zeta| is e^928 and e^1018 here (mpmath)
        for s in (complex(-150.0, 3000.0), complex(-200.0, -1000.0)):
            with pytest.raises(DomainError):
                riemann_zeta(s)

    def test_imaginary_bound_is_inclusive(self):
        s = complex(2.0, 1e6)
        ref = complex(mp.zeta(mp.mpc(s.real, s.imag)))
        assert abs(riemann_zeta(s) - ref) <= 1e-10 * max(1.0, abs(ref))

    @pytest.mark.parametrize("s", [complex(2.0, 1e6 + 1.0), complex(0.3, -1e6 - 1.0),
                                   complex(0.3, 1e300), complex(-3.0, -1e300)])
    def test_past_the_imaginary_bound_is_domain_error_before_the_sum(self, s):
        # the sum holds |Im s| + 20 terms; 1e300 once asked numpy for an
        # impossible array, and 1e9 for 15 GiB
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="Im s"):
                riemann_zeta(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_reflection_at_large_imaginary_part_against_mpmath(self):
        # Re s < 1/2, 450 < |Im s| <= 3,000: sin(pi s / 2) and Gamma(1 - s)
        # each leave double range, their product does not. The bound is the
        # Euler-Maclaurin one at these |Im s| (see above): zeta(1 - s) alone
        # is off by up to ~6e-12 near |Im s| = 2,500.
        for re in (-3.0, -2.5, -1.5, -0.4, 0.0, 0.3, 0.49):
            for im in (451.0, -460.0, -560.0, 700.0, -1000.0, 2000.0, -3000.0):
                ref = complex(mp.zeta(mp.mpc(re, im)))
                assert abs(riemann_zeta(complex(re, im)) - ref) <= 1e-11 * max(1.0, abs(ref))


class TestZetaPrimeMinusOne:
    def test_pinned_value(self):
        assert abs(ZETA_PRIME_MINUS_ONE + 0.165421143700450929) < 1e-14

    def test_sign(self):
        assert ZETA_PRIME_MINUS_ONE < 0

    def test_independent_oracle(self):
        # zeta'(2) by Euler-Maclaurin, mapped to -1 through the reflection
        # formula: zeta'(-1) = -(log 2pi + gamma - 1)/12 + zeta'(2)/(2 pi^2)
        n = 200_000
        k = np.arange(2, n, dtype=float)
        head = float(np.sum(np.log(k) / (k * k)))
        x = float(n)
        tail = (math.log(x) + 1.0) / x
        tail += 0.5 * math.log(x) / (x * x)
        tail -= (1.0 - 2.0 * math.log(x)) / (12.0 * x ** 3)
        zeta_prime_2 = -(head + tail)
        oracle = (
            -(math.log(2.0 * math.pi) + EULER_GAMMA - 1.0) / 12.0
            + zeta_prime_2 / (2.0 * math.pi ** 2)
        )
        assert abs(oracle - ZETA_PRIME_MINUS_ONE) < 1e-12

    def test_against_mpmath(self):
        assert abs(ZETA_PRIME_MINUS_ONE - float(mp.zeta(-1, derivative=1))) < 1e-14


class TestBarnesGamma2:
    def test_at_one(self):
        assert abs(log_barnes_gamma2(1.0)) < 1e-12

    def test_at_two(self):
        assert abs(log_barnes_gamma2(2.0)) < 1e-12

    def test_at_four_recursion_oracle(self):
        # G2(n+1) = G2(n)/Gamma(n) from G2(1) = 1 gives G2(4) = 1/2
        value = 1.0
        for n in (1, 2, 3):
            value /= math.gamma(n)
        assert abs(value - 0.5) == 0.0
        assert abs(cmath.exp(log_barnes_gamma2(4.0)) - value) < 1e-12

    @pytest.mark.parametrize("s", [0.0, -1.0, -5.0])
    def test_poles(self, s):
        with pytest.raises(PoleError):
            log_barnes_gamma2(s)

    def test_recursion_grid(self):
        for re in np.linspace(0.5, 5.0, 8):
            for im in np.linspace(-5.0, 5.0, 7):
                s = complex(re, im)
                lhs = cmath.exp(log_barnes_gamma2(s))
                rhs = cmath.exp(log_gamma(s)) * cmath.exp(log_barnes_gamma2(s + 1.0))
                assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_against_mpmath_inverse_barnesg(self):
        for s in (0.5, 2.75, -2.3, complex(3.1, 2.2), complex(-4.5, -1.0), complex(0.6, 5.0)):
            ours = cmath.exp(log_barnes_gamma2(s))
            ref = complex(1 / mp.barnesg(mp.mpc(complex(s).real, complex(s).imag)))
            assert abs(ours - ref) <= 1e-11 * abs(ref)

    @pytest.mark.parametrize("s", [500.0, complex(0.3, 200.0), complex(1.3, 1000.0)])
    def test_large_arguments_against_mpmath_log(self, s):
        ref = complex(-mp.log(mp.barnesg(mp.mpc(complex(s).real, complex(s).imag))))
        diff = log_barnes_gamma2(s) - ref
        diff -= 2j * math.pi * round(diff.imag / (2.0 * math.pi))
        assert abs(diff) <= 1e-12 * max(1.0, abs(ref))

    # the band 1/2 < Re s < 1, which the recursion shift now moves onto
    # Re s >= 1 before the product, and the seam Re s = 1 where it stops
    @pytest.mark.parametrize("s", [
        complex(0.6, 0.1), complex(0.75, 2.0), complex(0.9, -7.0), complex(0.55, 15.0),
        complex(0.5 + 1e-9, 0.3), complex(0.5 + 1e-9, -0.3),
        complex(1.0 - 1e-9, 0.3), complex(1.0 + 1e-9, 0.3),
        complex(1.0 - 1e-9, -5.0), complex(1.0 + 1e-9, -5.0),
        *(complex(1.0, y) for y in (0.5, -1.0, 2.0, 5.0, -10.0, 20.0)),
        complex(0.75, 0.0), complex(0.75, -0.0), complex(1.0 - 1e-9, 0.0), complex(1.0 - 1e-9, -0.0),
    ])
    def test_band_and_seam_against_mpmath_log(self, s):
        # the tolerance of test_large_arguments_against_mpmath_log
        ref = complex(-mp.log(mp.barnesg(mp.mpc(s.real, s.imag))))
        diff = log_barnes_gamma2(s) - ref
        diff -= 2j * math.pi * round(diff.imag / (2.0 * math.pi))
        assert abs(diff) <= 1e-12 * max(1.0, abs(ref))

    @pytest.mark.parametrize("im", [0.3, -0.3, 5.0, -5.0])
    def test_branch_continuous_across_re_one(self, im):
        # no 2 pi i jump where the shift stops, between neighbouring points
        # or between the two sides of the seam
        res = [*np.linspace(0.9, 1.1, 41), math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0)]
        res.sort()
        values = [log_barnes_gamma2(complex(re, im)) for re in res]
        for (a, va), (b, vb) in zip(zip(res, values), zip(res[1:], values[1:])):
            assert abs(vb - va) <= 20.0 * (b - a) + 1e-12 * max(1.0, abs(va)), (a, b)

    @pytest.mark.parametrize("w", [0.6, 2.75, complex(1.3, 20.0), complex(0.51, -119.0), 400.0])
    def test_blocked_product_matches_one_array(self, w, monkeypatch):
        blocked = special_functions._log_gamma2_product(w)
        monkeypatch.setattr(special_functions, "_G2_BLOCK", 10**9)
        whole = special_functions._log_gamma2_product(w)
        # relative to max(1, |log G2|): at 2.75, log G2 = 0.045 is the
        # difference of O(1) sums, each rounded to 4e-16
        assert abs(blocked - whole) <= 1e-15 * max(1.0, abs(whole))

    @settings(max_examples=60, deadline=None)
    @given(re=st.floats(1.0, 8.0), exponent=st.floats(-12.0, 3.0), negative=st.booleans())
    @example(re=1.0, exponent=3.0, negative=False)  # 160,000 terms
    @example(re=8.0, exponent=2.5, negative=True)  # past 120: the cutoff doubles
    @example(re=1.0, exponent=-12.0, negative=True)
    def test_product_is_conjugate_symmetric_bit_for_bit(self, re, exponent, negative):
        # log_barnes_gamma2 serves Im w < 0 as the conjugate of the product
        # at conj(w), so the product must be conjugate-symmetric exactly
        w = complex(re, (-1.0 if negative else 1.0) * 10.0 ** exponent)
        value = special_functions._log_gamma2_product(w).conjugate()
        mirrored = special_functions._log_gamma2_product(w.conjugate())
        assert _bits(mirrored) == _bits(value), w

    def test_product_passes_allocate_no_temporaries(self):
        # the first call makes this thread's scratch arrays; a later call
        # allocates only each pass's k array and numpy's cast buffers,
        # where one array per temporary peaked at about 520 KiB
        special_functions._log_gamma2_product(complex(1.5, 2.0))
        tracemalloc.start()
        try:
            special_functions._log_gamma2_product(complex(1.7, -3.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 128 * 1024

    def test_threads_keep_their_own_scratch(self):
        # more threads than cores, switching often: a scratch array shared
        # between threads would mix one product's passes into another's
        ws = [complex(1.0 + 0.5 * i, 3.0 - i) for i in range(6)]
        serial = [special_functions._log_gamma2_product(w) for w in ws]
        results = {}

        def run(n):
            order = [(n + i) % len(ws) for i in range(3 * len(ws))]
            results[n] = [(i, special_functions._log_gamma2_product(ws[i])) for i in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(n,)) for n in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert sorted(results) == list(range(6))
        for n, got in results.items():
            assert all(value == serial[i] for i, value in got), n

    @pytest.mark.parametrize("t, cutoff", [
        (complex(0.0, 120.0), 10_000),
        (complex(-120.0, 0.0), 10_000),
        (complex(-0.7, 150.0), 20_000),
        (complex(499.0, 0.0), 80_000),
        (complex(0.3, 1000.0), 160_000),
    ])
    def test_cutoff_follows_the_argument(self, t, cutoff):
        assert special_functions._g2_cutoff(t) == cutoff

    def test_domain_error_beyond_ceiling(self, monkeypatch):
        def no_product(*args, **kwargs):
            raise AssertionError("the product was evaluated")

        monkeypatch.setattr(special_functions.np, "arange", no_product)
        with pytest.raises(DomainError, match="160000 terms"):
            log_barnes_gamma2(complex(0.3, 5000.0))


def _sinpi_reference(x: float) -> float:
    """sin(pi x), x reduced mod 2 for it alone: _sincospi's reference."""
    r = math.fmod(abs(x), 2.0)
    if r < 0.5:
        value = math.sin(math.pi * r)
    elif r > 1.5:
        value = math.sin(math.pi * (r - 2.0))
    else:
        value = -math.sin(math.pi * (r - 1.0))
    return -value if x < 0.0 else value


def _cospi_reference(x: float) -> float:
    """cos(pi x), x reduced mod 2 for it alone: _sincospi's reference."""
    r = math.fmod(abs(x), 2.0)
    if r == 0.5:
        return 0.0
    if r < 1.0:
        return -math.sin(math.pi * (r - 0.5))
    return math.sin(math.pi * (r - 1.5))


# imaginary parts from 1e-12 to 60, and the real axis
_IMAG = st.one_of(st.just(0.0), st.floats(-12.0, math.log10(60.0)).map(lambda e: 10.0 ** e))


class TestConjugation:
    """f(conj s) = conj f(s) bit for bit, the sign of a zero part included."""

    @settings(max_examples=120, deadline=None)
    @given(kernel=st.sampled_from([log_gamma, riemann_zeta, log_barnes_gamma2]),
           re=st.floats(-12.0, 8.0), im=_IMAG)
    @example(kernel=riemann_zeta, re=-1.0, im=0.0)
    @example(kernel=riemann_zeta, re=-0.5, im=0.0)
    @example(kernel=log_gamma, re=-2.5, im=0.0)  # on the cut
    @example(kernel=log_gamma, re=0.05, im=0.0)  # reflected into (0.9, 1)
    @example(kernel=log_barnes_gamma2, re=-0.5, im=0.0)
    @example(kernel=log_barnes_gamma2, re=-12.0, im=60.0)
    def test_value_at_the_conjugate_is_the_conjugate(self, kernel, re, im):
        s = complex(re, im)
        try:
            value = kernel(s)
        except HypzetaError as exc:
            for scope in (contextlib.nullcontext, special_functions._kernel_memo):
                with scope(), pytest.raises(type(exc)):
                    kernel(s.conjugate())
            return
        assert _bits(kernel(s.conjugate())) == _bits(value.conjugate()), s
        # in a memo, whichever side comes first, the values are those outside it
        for first, expected in ((s, value), (s.conjugate(), value.conjugate())):
            with special_functions._kernel_memo():
                inside = [kernel(first), kernel(first.conjugate())]
            assert [_bits(v) for v in inside] == [_bits(expected), _bits(expected.conjugate())], s

    @settings(max_examples=60, deadline=None)
    @given(kernel=st.sampled_from([special_functions._checked_log_gamma,
                                   special_functions._riemann_zeta]),
           re=st.floats(-12.0, 8.0), exponent=st.floats(-12.0, math.log10(60.0)))
    def test_kernels_are_conjugate_symmetric_off_the_axis(self, kernel, re, exponent):
        # the kernels evaluated at Im s < 0 themselves: answering that
        # side by conjugation, as _memoized does, changes no value off the axis
        s = complex(re, 10.0 ** exponent)
        assert _bits(kernel(s.conjugate())) == _bits(kernel(s).conjugate()), s

    @settings(max_examples=80, deadline=None)
    @given(re=st.floats(-12.0, 8.0), negative=st.booleans())
    @example(re=-1.0, negative=False)  # reflected: the factor leaves ~1e-17 in Im
    @example(re=-0.5, negative=True)
    @example(re=0.05, negative=False)
    def test_real_on_the_real_axis(self, re, negative):
        s = complex(re, -0.0 if negative else 0.0)
        if abs(re - 1.0) >= 1e-12:  # zeta's pole
            assert riemann_zeta(s).imag.hex() == s.imag.hex(), s
        if re >= 1e-12:  # past log Gamma's pole at 0
            assert log_gamma(s).imag.hex() == s.imag.hex(), s


@settings(max_examples=400)
@given(x=st.one_of(st.floats(-1e6, 1e6), st.integers(-2 * 10**6, 2 * 10**6).map(lambda k: k / 2)))
@example(x=0.0)
@example(x=-0.0)
@example(x=0.5)
@example(x=-1.5)
@example(x=1e6)
def test_sincospi_has_the_bits_of_separate_reductions(x):
    sin, cos = special_functions._sincospi(x)
    assert (sin.hex(), cos.hex()) == (_sinpi_reference(x).hex(), _cospi_reference(x).hex()), x


class TestGaussMultiplication:
    def test_degenerate(self):
        assert _gauss_multiplication_defect(1.0, 1) == 0.0

    def test_m3_product_identity(self):
        assert _gauss_multiplication_defect(1.0, 3) < 1e-10
        # equivalently prod_{k=1..3} Gamma(k/3) = 2 pi 3^(-1/2)
        prod = math.gamma(1 / 3) * math.gamma(2 / 3) * math.gamma(1.0)
        assert abs(prod - 2.0 * math.pi / math.sqrt(3.0)) < 1e-12

    def test_complex_point(self):
        assert _gauss_multiplication_defect(0.3 + 0.7j, 5) < 1e-10

    @pytest.mark.parametrize("m", [2, 3, 5, 7])
    def test_defect_small_on_grid(self, m):
        for s in (0.3 + 0.7j, 1.0 + 0j, 2.5 - 1.2j, 0.9 + 3.0j, 1.7 - 0.4j):
            assert _gauss_multiplication_defect(s, m) < 1e-10
