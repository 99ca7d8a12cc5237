"""Euler-product tests: oracles, two-path agreement, error-estimate behavior."""

import cmath
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from hypzeta.errors import DomainError, EmptySpectrumError
from hypzeta.euler_product import _exp1, _kept_shells, ruelle_R, selberg_Z
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


def scalar_selberg(spectrum, s):
    """Selberg product as a double loop over shells and k, each shell's
    k-loop run until |p^(-s-k)| < 1e-18."""
    log_z = 0j
    for shell in spectrum.shells:
        k = 0
        while abs(x := cmath.exp(-(s + k) * shell.length)) >= 1e-18:
            log_z += shell.count * cmath.log(1.0 - x)
            k += 1
    value = cmath.exp(log_z)
    return value, abs(value) * mp_tail_estimate(spectrum, s.real)


def mp_every_k(spectrum, s):
    """Z over the spectrum's shells and every k, at 40 digits: log Z =
    -sum_P sum_m p^(-ms) / (m (1 - p^(-m))), each shell's m-series summed
    until its terms fall below 1e-40."""
    with mp.workdps(40):
        s = mp.mpc(s.real, s.imag)
        log_z = mp.mpc(0)
        for _, count, _, length in spectrum.columns.T.tolist():
            length = mp.mpf(length)
            m = 1
            while abs(term := mp.exp(-m * s * length) / (m * -mp.expm1(-m * length))) >= 1e-40:
                log_z -= int(count) * term
                m += 1
        return complex(mp.exp(log_z))


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

    @pytest.mark.parametrize("max_trace", [10, 40])
    @pytest.mark.parametrize("s", [1.0001, 1.05, 2.0, complex(1.5, 1.0), complex(3.0, 5.0),
                                   complex(1.2, 10.0)])
    def test_against_every_k_in_mpmath(self, max_trace, s):
        # the k-product has no tail to cut: Z is the sum over every k
        spectrum = enumerate_spectrum(max_trace)
        ref = mp_every_k(spectrum, complex(s))
        assert abs(selberg_Z(spectrum, s).value - ref) <= 1e-15 * abs(ref)

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

    def test_metadata_recorded(self, sp40):
        out = selberg_Z(sp40, 2.0)
        assert out.abs_error_estimate == abs(out.value) * out.trace_tail_error
        assert out.trace_tail_error > 0.0


class TestAgainstScalarLoops:
    @pytest.mark.parametrize("max_trace", [40, 200])
    @pytest.mark.parametrize("s", VECTOR_POINTS)
    def test_selberg(self, max_trace, s):
        spectrum = enumerate_spectrum(max_trace)
        ours = selberg_Z(spectrum, s)
        value, error = scalar_selberg(spectrum, complex(s))
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


def rectangle_terms(spectrum, s, m_count):
    """The terms p^(-ms) / (m (1 - p^(-m))) of -log Z for every shell and
    m <= m_count as one shell x m array, with the magnitudes p^(-m sigma)
    that the staircase screens."""
    length = spectrum.columns[3]
    m = np.arange(1, m_count + 1)
    ml = np.outer(length, m)
    return np.exp(-s * ml) / (m * -np.expm1(-ml)), np.exp(-s.real * ml)


@pytest.fixture(scope="module")
def sp800():
    return enumerate_spectrum(800)


class TestStaircase:
    """selberg_Z evaluates, for each m, only a prefix of the shells."""

    POINTS = (1.05, complex(1.5, 1.0), 2.0, complex(3.0, 5.0), complex(1.2, 10.0))

    @pytest.mark.parametrize("max_trace", [40, 200, 800])
    @pytest.mark.parametrize("s", POINTS)
    def test_matches_the_full_rectangle(self, max_trace, s, sp800):
        spectrum = sp800 if max_trace == 800 else enumerate_spectrum(max_trace)
        s = complex(s)
        _, count, norm, length = spectrum.columns
        # every term beyond m_count is below p_min^(-70) < 1e-30
        m_count = math.ceil(70.0 / length[0])
        terms, magnitude = rectangle_terms(spectrum, s, m_count)
        full = cmath.exp(-(count @ terms.sum(axis=1)))
        out = selberg_Z(spectrum, s)
        assert abs(out.value - full) <= 1e-15 * abs(full)
        kept = _kept_shells(spectrum, s.real)
        assert out.k_cutoff_used == kept.size and 1 <= kept.size < m_count
        assert (np.diff(kept) <= 0).all() and kept[-1] >= 1
        # the skipped terms are the small ones, and they sum below the bound
        kept = np.pad(kept, (0, m_count - kept.size))
        skipped = np.arange(len(length))[:, None] >= kept[None, :]
        tau = 1e-17 / spectrum.class_count
        assert (magnitude[skipped] < tau * (1 + 1e-12)).all()
        assert (magnitude[~skipped] >= tau * (1 - 1e-12)).all()
        bound = spectrum.class_count * tau / (1.0 - 1.0 / norm[0]) ** 2
        assert bound < 1.4e-17
        assert (count[:, None] * np.abs(terms) * skipped).sum() < bound

    @pytest.mark.parametrize("s", [1.05, 2.0, complex(1.5, 1.0), complex(1.2, 10.0)])
    def test_log_terms_against_mpmath(self, s, sp800):
        # Z's definition, sum_P count * sum_k log(1 - p^(-s-k)), in mpmath;
        # log(1.0 - x) in doubles rounds Re x away for every |x| < 1.1e-16,
        # which moves log Z by up to 5e-13, and the m-series forms no such log
        s = complex(s)
        counts, xs = [], []
        with mp.workdps(30):
            log_z = mp.mpc(0)
            for _, count, _, length in sp800.columns.T.tolist():
                k = 0
                while abs(x := mp.exp(-(s + k) * mp.mpf(length))) >= 1e-30:
                    log_z += int(count) * mp.log(1 - x)
                    counts.append(count)
                    xs.append(cmath.exp(-(s + k) * length))
                    k += 1
            ref = complex(mp.exp(log_z))
        error = abs(selberg_Z(sp800, s).value - ref)
        assert error <= 1e-15 * abs(ref)
        lossy = cmath.exp(complex(np.array(counts) @ np.log(1.0 - np.array(xs))))
        assert abs(lossy - ref) > 10.0 * error

    def test_beyond_every_term(self, sp40):
        # at Re s = 400 every term is below the threshold: Z is exactly 1
        for s in (400.0, 1e308):
            out = selberg_Z(sp40, s)
            assert _kept_shells(sp40, s).size == 0 and out.k_cutoff_used == 0
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
        parts = abs(out.value) * out.trace_tail_error
        assert abs(parts - out.abs_error_estimate) <= 1e-12 * out.abs_error_estimate
        assert out.trace_tail_error > 0.0
        if method == "quotient":
            za, zb = selberg_Z(sp40, s), selberg_Z(sp40, complex(s) + 1.0)
            assert out.trace_tail_error == za.trace_tail_error + zb.trace_tail_error

    @pytest.mark.parametrize("s", [1.05, 2.0, complex(3.0, 5.0)])
    def test_selberg_parts(self, sp40, s):
        out = selberg_Z(sp40, s)
        assert out.abs_error_estimate == abs(out.value) * out.trace_tail_error
        assert 0.0 < out.trace_tail_error


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
