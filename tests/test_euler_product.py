"""Euler-product tests: oracles, two-path agreement, error-estimate behavior."""

import cmath
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from hypzeta.errors import DomainError, EmptySpectrumError
from hypzeta.euler_product import _exp1, _k_cutoff, _kept_shells, ruelle_R, selberg_Z
from hypzeta.length_spectrum import LengthSpectrum, enumerate_spectrum, read_cache, write_cache


def double_sum_oracle(spectrum, s, tail=1e-18):
    """log Z as the Mercator triple sum -sum_P sum_k sum_m p^(-m(s+k))/m."""
    s = complex(s)
    total = 0.0 + 0.0j
    for shell in spectrum.shells:
        for k in range(0, 300):
            x = cmath.exp(-(s + k) * shell.length)
            if abs(x) < tail:
                break
            xm = x
            inner = 0.0 + 0.0j
            for m in range(1, 500):
                inner += xm / m
                xm *= x
                if abs(xm) < tail:
                    break
            total -= shell.count * inner
    return cmath.exp(total)


def mp_tail_estimate(spectrum, sigma):
    """Trace-tail estimate in mpmath: twice expm1(E1((sigma - 1) log N(T))),
    N(T) the norm at the trace bound T."""
    log_norm = 2 * mp.acosh(mp.mpf(spectrum.max_trace) / 2)
    return float(2 * mp.expm1(mp.e1((sigma - 1) * log_norm)))


def loop_k_cutoff(spectrum, sigma):
    """The k-cutoff as the loop that defined it: raise k from 10 until the
    k-tail bound count * p_min^(-(sigma + k + 1)) drops below 1e-11."""
    p_min = spectrum.shells[0].norm
    k = 10
    while spectrum.class_count * p_min ** (-(sigma + k + 1)) >= 1e-11:
        k += 1
    return k


def scalar_selberg(spectrum, s, cutoff):
    """Truncated Selberg product as a double loop over shells and k."""
    log_z = 0j
    for shell in spectrum.shells:
        inner = 0j
        for k in range(cutoff + 1):
            inner += cmath.log(1.0 - cmath.exp(-(s + k) * shell.length))
        log_z += shell.count * inner
    p_min = spectrum.shells[0].norm
    k_tail = spectrum.class_count * p_min ** (-(s.real + cutoff + 1)) / (1.0 - 1.0 / p_min)
    value = cmath.exp(log_z)
    return value, abs(value) * (k_tail + mp_tail_estimate(spectrum, s.real))


def scalar_ruelle(spectrum, s):
    """Truncated direct Ruelle product as a loop over shells."""
    log_r = 0j
    for shell in spectrum.shells:
        log_r += shell.count * cmath.log(1.0 - cmath.exp(-s * shell.length))
    value = cmath.exp(log_r)
    return value, abs(value) * mp_tail_estimate(spectrum, s.real)


VECTOR_POINTS = (1.05, complex(1.5, 1.0), 2.0, complex(3.0, 5.0))


@pytest.fixture(scope="module")
def sp40():
    return enumerate_spectrum(40)


@pytest.fixture(scope="module")
def sp60():
    return enumerate_spectrum(60)


class TestSelbergZ:
    def test_against_double_sum_oracle(self, sp40):
        ours = selberg_Z(sp40, 2.0)
        oracle = double_sum_oracle(sp40, 2.0)
        assert abs(ours.value - oracle) < 1e-8

    def test_oracle_agreement_complex(self, sp40):
        for s in (complex(2.0, 3.0), complex(1.5, 1.0)):
            ours = selberg_Z(sp40, s)
            assert abs(ours.value - double_sum_oracle(sp40, s)) < 1e-8

    def test_large_real_argument_is_one(self, sp40):
        assert abs(selberg_Z(sp40, 20.0).value - 1.0) < 1e-12

    def test_monotone_stability(self, sp40, sp60):
        a = selberg_Z(sp40, 2.0)
        b = selberg_Z(sp60, 2.0)
        assert abs(a.value - b.value) <= a.abs_error_estimate
        assert b.abs_error_estimate < a.abs_error_estimate

    def test_estimate_shrinks_across_grid(self):
        spectra = [enumerate_spectrum(t) for t in (30, 40, 55)]
        for s in (1.5, 2.0, 3.0, complex(1.5, 1.0), complex(2.0, 5.0)):
            estimates = [selberg_Z(sp, s).abs_error_estimate for sp in spectra]
            assert estimates[0] > estimates[1] > estimates[2]
            values = [selberg_Z(sp, s).value for sp in spectra]
            assert abs(values[0] - values[1]) <= estimates[0]
            assert abs(values[1] - values[2]) <= estimates[1]

    def test_domain_error(self, sp40):
        with pytest.raises(DomainError):
            selberg_Z(sp40, 1.0)
        with pytest.raises(DomainError):
            selberg_Z(sp40, complex(0.5, 3.0))

    def test_empty_spectrum(self):
        empty = LengthSpectrum(np.empty((4, 0)), max_trace=3)
        with pytest.raises(EmptySpectrumError):
            selberg_Z(empty, 2.0)

    def test_k_cutoff_floor(self, sp40):
        assert selberg_Z(sp40, 20.0).k_cutoff_used >= 10

    def test_metadata_recorded(self, sp40):
        out = selberg_Z(sp40, 2.0)
        assert out.abs_error_estimate == abs(out.value) * (out.k_tail_error + out.trace_tail_error)
        assert out.trace_tail_error > 0.0


class TestAgainstScalarLoops:
    @pytest.mark.parametrize("max_trace", [40, 200])
    @pytest.mark.parametrize("s", VECTOR_POINTS)
    def test_selberg(self, max_trace, s):
        spectrum = enumerate_spectrum(max_trace)
        ours = selberg_Z(spectrum, s)
        value, error = scalar_selberg(spectrum, complex(s), ours.k_cutoff_used)
        assert abs(ours.value - value) <= 1e-13 * abs(value)
        assert abs(ours.abs_error_estimate - error) <= 1e-12 * error

    @pytest.mark.parametrize("max_trace", [40, 200])
    @pytest.mark.parametrize("s", VECTOR_POINTS)
    def test_ruelle_direct(self, max_trace, s):
        spectrum = enumerate_spectrum(max_trace)
        ours = ruelle_R(spectrum, s, method="direct")
        value, error = scalar_ruelle(spectrum, complex(s))
        assert abs(ours.value - value) <= 1e-13 * abs(value)
        assert abs(ours.abs_error_estimate - error) <= 1e-12 * error


def rectangle_terms(spectrum, s, cutoff):
    """Every term p^(-s-k) of the truncated Selberg product as one
    shell x k array, and log Z summed over all of it. Each log(1 - x) is
    formed from the real and imaginary parts of x, as log(1.0 - x) would
    round away Re x wherever |x| is below 1.1e-16."""
    _, count, _, length = spectrum.columns
    phase = np.exp(-1j * s.imag * length)
    x = np.exp(-np.outer(length, s.real + np.arange(cutoff + 1))) * phase[:, None]
    a, b = x.real, x.imag
    log_terms = 0.5 * np.log1p(b * b - a * (2.0 - a)) + 1j * np.arctan2(-b, 1.0 - a)
    return x, complex(count @ log_terms.sum(axis=1))


@pytest.fixture(scope="module")
def sp800():
    return enumerate_spectrum(800)


class TestStaircase:
    """selberg_Z evaluates, for each k, only a prefix of the shells."""

    POINTS = (1.05, complex(1.5, 1.0), 2.0, complex(3.0, 5.0), complex(1.2, 10.0))

    @pytest.mark.parametrize("max_trace", [40, 200, 800])
    @pytest.mark.parametrize("s", POINTS)
    def test_matches_the_full_rectangle(self, max_trace, s, sp800):
        spectrum = sp800 if max_trace == 800 else enumerate_spectrum(max_trace)
        s = complex(s)
        cutoff = _k_cutoff(spectrum, s.real)
        x, log_z = rectangle_terms(spectrum, s, cutoff)
        full = cmath.exp(log_z)
        assert abs(selberg_Z(spectrum, s).value - full) <= 1e-15 * abs(full)
        # the skipped terms are the small ones, and their magnitudes sum below 1e-17
        kept = _kept_shells(spectrum, s.real, cutoff)
        assert (np.diff(kept) <= 0).all() and kept[0] >= 1
        skipped = np.arange(x.shape[0])[:, None] >= kept[None, :]
        tau = 1e-17 / ((cutoff + 1) * spectrum.class_count)
        magnitude = np.abs(x)
        assert (magnitude[skipped] < tau * (1 + 1e-12)).all()
        assert (magnitude[~skipped] >= tau * (1 - 1e-12)).all()
        count = spectrum.columns[1]
        assert (count[:, None] * magnitude * skipped).sum() < 1e-17

    @pytest.mark.parametrize("s", [1.05, 2.0, complex(1.5, 1.0), complex(1.2, 10.0)])
    def test_log_terms_against_mpmath(self, s, sp800):
        # the staircase keeps terms down to ~1e-23, and log(1.0 - x) rounds
        # Re x away for every |x| < 1.1e-16; summed, that moves log Z by
        # up to 5e-13, which the kernel of selberg_Z does not
        s = complex(s)
        cutoff = _k_cutoff(sp800, s.real)
        x, _ = rectangle_terms(sp800, s, cutoff)
        kept = np.arange(x.shape[0])[:, None] < _kept_shells(sp800, s.real, cutoff)[None, :]
        count = np.broadcast_to(sp800.columns[1][:, None], x.shape)[kept]
        x = x[kept]
        with mp.workdps(30):
            log_z = mp.fsum(int(c) * mp.log(1 - mp.mpc(v.real, v.imag)) for c, v in zip(count, x))
            ref = complex(mp.exp(log_z))
        error = abs(selberg_Z(sp800, s).value - ref)
        assert error <= 1e-15 * abs(ref)
        lossy = cmath.exp(complex(count @ np.log(1.0 - x)))
        assert abs(lossy - ref) > 10.0 * error

    def test_beyond_every_term(self, sp40):
        # at Re s = 400 every term is below the threshold: Z is exactly 1
        out = selberg_Z(sp40, 400.0)
        assert (_kept_shells(sp40, 400.0, out.k_cutoff_used) == 0).all()
        assert out.value == 1.0

    def test_quotient_forms_no_rectangle(self, sp800):
        selberg_Z(sp800, 2.0)  # warm up the spectrum's cached counts
        tracemalloc.start()
        try:
            out = ruelle_R(sp800, complex(1.2, 3.0), method="quotient")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.k_cutoff_used > 10
        assert peak < 0.5 * 2**20


def test_exp1_against_mpmath():
    with mp.workdps(30):
        for x in [1.0, 2.0, math.nextafter(2.0, 3.0)] + [10.0 ** (e / 40.0) for e in range(-320, 100)]:
            ref = mp.e1(x)
            assert abs(_exp1(x) - ref) <= 1e-14 * ref, x
    assert _exp1(746.0) == 0.0 and _exp1(math.inf) == 0.0


class TestKCutoff:
    @pytest.mark.parametrize("max_trace", [3, 7, 12, 40, 200])
    def test_closed_form_is_the_loop(self, max_trace):
        spectrum = enumerate_spectrum(max_trace)
        sigmas = [1.0 + 1e-12, 1.0001] + [1.0 + i / 100.0 for i in range(1, 4001)]
        assert [_k_cutoff(spectrum, sigma) for sigma in sigmas] == [
            loop_k_cutoff(spectrum, sigma) for sigma in sigmas]


class TestCachedSpectrum:
    @pytest.mark.parametrize("max_trace", [40, 200, 800])
    def test_hit_and_miss_bit_identical(self, max_trace, tmp_path):
        enumerated = enumerate_spectrum(max_trace)
        write_cache(enumerated, tmp_path / "spec.csv")
        cached = read_cache(tmp_path / "spec.csv", max_trace)
        for s in VECTOR_POINTS:
            assert selberg_Z(cached, s) == selberg_Z(enumerated, s)
            for method in ("quotient", "direct"):
                assert ruelle_R(cached, s, method=method) == ruelle_R(enumerated, s, method=method)


class TestErrorSplit:
    @pytest.mark.parametrize("s", [1.05, 2.0, complex(3.0, 5.0)])
    @pytest.mark.parametrize("method", ["quotient", "direct"])
    def test_parts_sum_to_estimate(self, sp40, s, method):
        out = ruelle_R(sp40, s, method=method)
        parts = abs(out.value) * (out.k_tail_error + out.trace_tail_error)
        assert abs(parts - out.abs_error_estimate) <= 1e-12 * out.abs_error_estimate
        assert out.trace_tail_error > 0.0
        if method == "direct":
            assert out.k_tail_error == 0.0
        else:
            za, zb = selberg_Z(sp40, s), selberg_Z(sp40, complex(s) + 1.0)
            assert out.k_tail_error == za.k_tail_error + zb.k_tail_error
            assert out.trace_tail_error == za.trace_tail_error + zb.trace_tail_error

    @pytest.mark.parametrize("s", [1.05, 2.0, complex(3.0, 5.0)])
    def test_selberg_parts(self, sp40, s):
        out = selberg_Z(sp40, s)
        assert out.abs_error_estimate == abs(out.value) * (out.k_tail_error + out.trace_tail_error)
        assert 0.0 < out.k_tail_error < out.trace_tail_error


class TestNonFinite:
    @pytest.mark.parametrize("s", [complex(math.nan, 0.0), complex(math.inf, 0.0),
                                   complex(2.0, math.nan), complex(2.0, -math.inf)])
    def test_domain_error(self, sp40, s):
        with pytest.raises(DomainError):
            selberg_Z(sp40, s)
        with pytest.raises(DomainError):
            ruelle_R(sp40, s)
        with pytest.raises(DomainError):
            ruelle_R(sp40, s, method="direct")
        with pytest.raises(DomainError):
            ruelle_R(sp40, s, method="quotient")


class TestRuelleR:
    def test_two_path_at_two(self, sp40):
        quotient = ruelle_R(sp40, 2.0, method="quotient")
        direct = ruelle_R(sp40, 2.0, method="direct")
        budget = quotient.abs_error_estimate + direct.abs_error_estimate
        assert abs(quotient.value - direct.value) <= budget

    def test_two_path_grid(self, sp40):
        for re in (1.5, 2.0, 3.0):
            for im in (0.0, 1.0, 5.0):
                s = complex(re, im)
                quotient = ruelle_R(sp40, s, method="quotient")
                direct = ruelle_R(sp40, s, method="direct")
                budget = quotient.abs_error_estimate + direct.abs_error_estimate
                assert abs(quotient.value - direct.value) <= budget

    def test_large_real_argument(self, sp40):
        assert abs(ruelle_R(sp40, 20.0).value - 1.0) < 1e-12

    def test_domain_error(self, sp40):
        with pytest.raises(DomainError):
            ruelle_R(sp40, 0.9)

    def test_unknown_method(self, sp40):
        with pytest.raises(ValueError):
            ruelle_R(sp40, 2.0, method="nope")

    def test_direct_uses_no_k_terms(self, sp40):
        assert ruelle_R(sp40, 2.0, method="direct").k_cutoff_used == 0

    def test_method_is_keyword_only(self, sp40):
        with pytest.raises(TypeError):
            ruelle_R(sp40, 2.0, "direct")
