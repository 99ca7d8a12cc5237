"""Closed-form factor tests: pinned values, identities, constants."""

import cmath
import contextlib
import math
import random
import re
import warnings

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cut_safe_points import CUT_SAFE_POINTS

from hypzeta.errors import (
    DomainError,
    DomainWarning,
    HypzetaError,
    MismatchError,
    PoleError,
    SingularFactorError,
)
from hypzeta.euler_product import selberg_Z
from hypzeta.length_spectrum import enumerate_spectrum
from hypzeta.scattering import ScatteringModel, modular_model, modular_phi, trivial_model
from hypzeta.special_functions import (
    ZETA_PRIME_MINUS_ONE,
    _log_sinpi,
    log_barnes_gamma2,
    log_gamma,
    riemann_zeta,
)
from hypzeta.surface import Signature, constants
from hypzeta import special_functions, zeta_factors
from hypzeta.verify import IDENTITY_GRID
from hypzeta.zeta_factors import (
    FactorValue,
    _log_sine_block,
    c0,
    c1,
    det_laplacian,
    kappa,
    ruelle_fe_rhs,
    ruelle_leading_at_zero,
    z_ell,
    z_infty,
)

mp.mp.dps = 30

MODULAR = Signature(0, 1, (2, 3))
COMPACT = Signature(2, 0)
TRIANGLE = Signature(0, 0, (2, 3, 7))

# pinned by independent high-precision evaluation of each factor
Z_INFTY_MODULAR_HALF = 1.2538764966951171
Z_ELL_MODULAR_1 = 0.38940724938314019
Z_ELL_MODULAR_2 = 0.71322923912504639
KAPPA_MODULAR_POINT = complex(0.026978254325571506, -0.26308863744157597)
RUELLE_RHS_MODULAR_QUARTER = 232.41201474197110
C1_MODULAR = 0.79833954928352248
C0_MODULAR = 0.87547728101914982
C1_COMPACT = 1.9663764658289105
C0_COMPACT = -0.049808897751055556
RUELLE_LEADING_MODULAR = 0.9118906527810402
DET_COMPACT_PROBE_AT_2 = 1.4218326305607178


class TestZInfty:
    def test_modular_at_one(self):
        assert abs(z_infty(MODULAR, 1.0).value - (2.0 * math.pi) ** (1.0 / 6.0)) < 1e-13

    def test_compact_at_two(self):
        value = z_infty(COMPACT, 2.0).value
        assert abs(value - (2.0 * math.pi) ** 4) < 1e-9 * abs(value)

    def test_modular_at_half_pinned(self):
        assert abs(z_infty(MODULAR, 0.5).value - Z_INFTY_MODULAR_HALF) < 1e-11

    def test_pole_propagates(self):
        with pytest.raises(PoleError):
            z_infty(MODULAR, 0.0)

    def test_factor_value_invariant(self):
        fv = z_infty(MODULAR, 1.7 + 0.4j)
        assert cmath.isclose(cmath.exp(fv.log_value), fv.value, rel_tol=1e-12)


class TestZEll:
    def test_empty_product(self):
        assert z_ell(COMPACT, 2.3 + 1.1j).value == 1.0 + 0.0j

    def test_modular_at_one(self):
        assert abs(z_ell(MODULAR, 1.0).value - Z_ELL_MODULAR_1) < 1e-14

    def test_modular_at_two_pinned(self):
        # direct four-factor evaluation: Gamma(3/2)^(1/2) Gamma(2/3)^(-2/3) Gamma(4/3)^(2/3)
        direct = (
            math.gamma(1.5) ** 0.5
            * math.gamma(2.0 / 3.0) ** (-2.0 / 3.0)
            * math.gamma(4.0 / 3.0) ** (2.0 / 3.0)
        )
        assert abs(direct - Z_ELL_MODULAR_2) < 1e-14
        assert abs(z_ell(MODULAR, 2.0).value - direct) < 1e-13

    def test_pole_reports_offending_indices(self):
        # (s+k)/m hits 0 for s=-1, m=2 (j=0), k=1
        with pytest.raises(PoleError, match=r"j=0.*k=1"):
            z_ell(MODULAR, -1.0)


# the strip's edge on Im s >= 0; conjugate points give conjugate values
STRIP_EDGE = (
    [complex(-3.0, y) for y in (0.3, 1.0, 5.0, 10.0, 15.0, 20.0)]
    + [complex(x, 20.0) for x in (-2.0, -0.5, 1.0, 2.5, 3.5)]
    + [complex(4.0, y) for y in (0.0, 1.0, 5.0, 10.0, 15.0, 19.0, 20.0)]
)


def _counting_log_gamma(monkeypatch):
    calls = []

    def counted(arg):
        calls.append(arg)
        return log_gamma(arg)

    monkeypatch.setattr(zeta_factors, "log_gamma", counted)
    return calls


class TestZEllDomainBound:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8, 30, 400])
    def test_bound_holds_on_the_edge_and_beside_the_poles(self, m):
        sig = Signature(1, 0, (m,))
        # just outside the pole tolerance, 1e-12 in each part of (s + k) / m
        beside_poles = [
            -j + 2e-12 * m * cmath.exp(2j * math.pi * a / 16) for j in range(4) for a in range(16)
        ]
        for s in STRIP_EDGE + [s for s in beside_poles if s.real >= -3.0]:
            assert z_ell(sig, s).log_value.real <= zeta_factors._cone_log_bound(m), s

    @pytest.mark.parametrize("orders", [(1614,), (605, 605, 605), (10**5, 10**5, 10**5)])
    def test_refused_before_any_gamma_call_beyond_the_bound(self, orders, monkeypatch):
        calls = _counting_log_gamma(monkeypatch)
        sig = Signature(1, 0, orders)
        for s in (complex(4.0, 20.0), complex(-3.0, -20.0), 0.5, complex(-2.5, 0.1)):
            with pytest.raises(DomainError, match="underflows"):
                z_ell(sig, s)
        assert calls == []

    def test_the_refused_value_is_out_of_range_at_its_maximum(self):
        m, s = 1614, complex(4.0, 20.0)
        log_value = sum((2 * k + 1 - m) / m * log_gamma((s + k) / m) for k in range(m))
        assert log_value.real < -746.0

    @pytest.mark.parametrize("orders, s", [
        ((1613,), complex(4.0, 20.0)),  # within the bound
        ((604, 604, 604), complex(4.0, 20.0)),
        ((1614,), 4.5),  # off the strip
        ((1614,), complex(0.5, 20.5)),
    ])
    def test_product_evaluated_inside_the_bound_or_off_the_strip(self, orders, s, monkeypatch):
        calls = _counting_log_gamma(monkeypatch)
        with pytest.raises(DomainError, match="underflows"):
            z_ell(Signature(1, 0, orders), s)
        assert len(calls) == sum(orders)

    def test_in_range_below_the_threshold(self):
        assert z_ell(Signature(1, 0, (1500,)), complex(4.0, 20.0)).value != 0

    def test_pole_still_reported_as_pole(self):
        with pytest.raises(PoleError, match=r"j=0.*k=1"):
            z_ell(Signature(0, 0, (10**5, 10**5, 10**5)), -1.0)


class TestDetLaplacian:
    def test_compact_probe_reduction(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            value = det_laplacian(COMPACT, trivial_model(), 2.0, 1.0)
        assert abs(value - DET_COMPACT_PROBE_AT_2) < 1e-10 * DET_COMPACT_PROBE_AT_2

    def test_modular_end_to_end_against_high_precision_oracle(self):
        spectrum = enumerate_spectrum(40)
        z_val = selberg_Z(spectrum, 2.0).value
        ours = det_laplacian(MODULAR, modular_model(), 2.0, z_val)
        # independent recomputation of every factor at 30 digits
        s = mp.mpf(2)
        chi = mp.mpf(1) / 6
        z_inf = ((2 * mp.pi) ** s / mp.barnesg(s) ** 2 / mp.gamma(s)) ** chi
        z_el = (
            mp.gamma(mp.mpf(3) / 2) ** mp.mpf("0.5")
            * mp.gamma(mp.mpf(2) / 3) ** (-mp.mpf(2) / 3)
            * mp.gamma(mp.mpf(4) / 3) ** (mp.mpf(2) / 3)
        )
        B = -chi
        C = -mp.log(2)
        D = (
            (mp.mpf(3) / 12) * mp.log(2)
            + (mp.mpf(8) / 18) * mp.log(3)
            + mp.log(2 * mp.pi) / 2
            - chi * (mp.log(2 * mp.pi) / 2 - 2 * mp.zeta(-1, derivative=1))
            - mp.log(2)
        )
        oracle = (
            z_inf * z_el * mp.gamma(mp.mpf(5) / 2) ** -1 * (2 * s - 1)
            * mp.exp(B * mp.mpf("2.25") + C * mp.mpf("1.5") + D) * z_val
        )
        assert abs(ours - complex(oracle)) < 1e-10 * abs(complex(oracle))
        assert ours.real > 0 and abs(ours.imag) < 1e-15

    def test_probe_consistency_with_logs(self):
        sig, sc = MODULAR, modular_model()
        s = 2.3
        c = constants(sig, sc)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            probe = det_laplacian(sig, sc, s, 1.0)
        logs = (
            z_infty(sig, s).log_value
            + z_ell(sig, s).log_value
            - sig.n * complex(mp.loggamma(s + 0.5))
            + c.B * (s - 0.5) ** 2 + c.C * (s - 0.5) + c.D
        )
        assert abs(probe - (2 * s - 1) ** (sc.A // 2) * cmath.exp(logs)) < 1e-12 * abs(probe)

    def test_domain_warning_below_convergence(self):
        with pytest.warns(DomainWarning):
            det_laplacian(MODULAR, modular_model(), 0.75, 1.0)

    def test_no_warning_in_convergence_region(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            det_laplacian(MODULAR, modular_model(), 2.0, 1.0)


class TestKappa:
    def test_modular_at_half(self):
        # Z changes sign at its simple pole 1/2 (see test_mayer_oracle.py)
        assert abs(kappa(MODULAR, modular_model(), 0.5).value + 1.0) < 1e-10

    @pytest.mark.parametrize("sig, sc, expected", [
        (MODULAR, modular_model(), -1.0),
        (Signature(1, 1, (2,)), modular_model(), -1.0),
        (TRIANGLE, trivial_model(), 1.0),
    ], ids=["(0;1;2,3)", "(1;1;2)", "(0;0;2,3,7)"])
    def test_half_is_phi_half(self, sig, sc, expected):
        value = kappa(sig, sc, 0.5).value
        assert abs(value - sc.phi(0.5)) < 1e-12
        assert abs(value - expected) < 1e-10

    def test_compact_at_half(self):
        assert abs(kappa(COMPACT, trivial_model(), 0.5).value - 1.0) < 1e-12

    def test_modular_pinned_point(self):
        value = kappa(MODULAR, modular_model(), 0.3 + 0.2j).value
        assert abs(value - KAPPA_MODULAR_POINT) < 1e-11

    def test_involution_grid_upper_half(self):
        # 40 points with 0.1 < Re s < 0.9, 0 < Im s <= 3
        model = modular_model()
        for i in range(40):
            re = 0.12 + 0.76 * ((i * 11) % 40) / 39.0
            im = 0.1 + 2.9 * ((i * 17) % 40) / 39.0
            s = complex(round(re, 6), round(im, 6))
            value = kappa(MODULAR, model, s).value * kappa(MODULAR, model, 1.0 - s).value
            assert abs(value - 1.0) < 1e-9

    def test_singular_factor_named(self):
        # sin(pi(s+k)/m) vanishes at integer s for the m=2 block
        with pytest.raises(SingularFactorError, match="sine"):
            kappa(MODULAR, modular_model(), 2.0)

    def test_cusp_mismatch(self):
        with pytest.raises(MismatchError):
            kappa(MODULAR, trivial_model(), 0.3 + 0.2j)

    def test_involution_past_sine_overflow(self):
        # sin(pi (s+k)/m) of the cone-point block leaves double range here
        sc = modular_model()
        for s in (0.3 + 1000.0j, 0.3 - 700.0j, 0.45 + 460.0j):
            product = kappa(MODULAR, sc, s).value * kappa(MODULAR, sc, 1.0 - s).value
            assert abs(product - 1.0) < 1e-11


class TestSineBlockBranch:
    def test_exp_of_log_sin_is_sin(self):
        rng = random.Random(20261018)
        points = [complex(rng.uniform(-6.4, 6.4), rng.uniform(-95.0, 95.0)) for _ in range(2000)]
        # next to the zeros of sin(pi w), on both sides of the real axis
        points += [complex(k + dx, dy) for k in range(-6, 7)
                   for dx, dy in ((1e-12, 0.0), (0.0, 1e-8), (-1e-4, -1e-4)) if k or dx]
        for w in points:
            value = _log_sinpi(w)
            ref = mp.sin(mp.pi * mp.mpc(w.real, w.imag))
            # pi w is rounded inside, which costs up to an ulp or two of pi |w|
            bound = 1e-14 + 2.0 * math.ulp(math.pi * abs(w))
            assert abs(mp.exp(mp.mpc(value.real, value.imag)) / ref - 1) <= bound, w

    def test_log_sin_past_double_range(self):
        # sin(pi w) itself overflows a double here; mpmath does not. A log
        # of sin is fixed up to a multiple of 2 pi i
        for w in (-4.1 + 286.0j, 2.4 - 640.0j, 0.6 - 3200.0j, 0.03 + 240.0j):
            ref = complex(mp.log(mp.sin(mp.pi * mp.mpc(w.real, w.imag))))
            diff = _log_sinpi(w) - ref
            diff -= 2j * math.pi * round(diff.imag / (2.0 * math.pi))
            assert abs(diff) <= 1e-14 * abs(ref)

    @pytest.mark.parametrize("start, stop", [
        (-20.0 + 0.5j, 20.0 + 0.5j), (-20.0 - 0.5j, 20.0 - 0.5j), (-20.0 + 3.0j, 20.0 + 3.0j),
        (-20.0 - 300.0j, 20.0 - 300.0j), (1.0 - 5.0j, 1.0 + 5.0j), (2.0 + 5.0j, 2.0 - 5.0j),
    ])
    def test_log_sin_continuous_along_a_path(self, start, stop):
        # log sin z = _log_sinpi(z / pi) in steps of 0.01, where
        # |d log sin / dz| = |cot z| <= 2.2: a principal log would jump by
        # 2 pi i wherever Re z passes a multiple of pi
        steps = 4000 if start.real != stop.real else 1000
        values = [_log_sinpi((start + (stop - start) * k / steps) / math.pi)
                  for k in range(steps + 1)]
        assert max(abs(b - a) for a, b in zip(values, values[1:])) < 0.05

    def test_log_kappa_branch_unchanged(self):
        # at the cut-safe points the block is still the sum of principal
        # logs, so log_kappa keeps the branch it had there
        for s in CUT_SAFE_POINTS:
            ref = sum(
                (m - 2 * k - 1) / m * cmath.log(cmath.sin(math.pi * (s + k) / m))
                for m in MODULAR.orders for k in range(m)
            )
            assert abs(_log_sine_block(MODULAR, s) - ref) < 1e-13


class TestRuelleFERhs:
    def test_compact_quarter(self):
        assert abs(ruelle_fe_rhs(COMPACT, trivial_model(), 0.25) - 4.0) < 1e-12

    def test_modular_quarter_pinned(self):
        value = ruelle_fe_rhs(MODULAR, modular_model(), 0.25)
        assert abs(value - RUELLE_RHS_MODULAR_QUARTER) < 1e-9 * RUELLE_RHS_MODULAR_QUARTER

    def test_poles_at_half(self):
        with pytest.raises(PoleError):
            ruelle_fe_rhs(MODULAR, modular_model(), 0.5)
        with pytest.raises(PoleError):
            ruelle_fe_rhs(MODULAR, modular_model(), -0.5)

    def test_small_s_limit_squared_magnitude(self):
        # s^4 * rhs(s) -> |leading|^2 = 81/pi^4 for the modular surface
        sig, sc = MODULAR, modular_model()
        samples = []
        for r in (1e-3, 1e-4):
            samples.append(abs(ruelle_fe_rhs(sig, sc, complex(r, 0.0))) * r ** 4)
        extrap = (samples[1] * 1e-8 - samples[0] * 1e-6) / (1e-8 - 1e-6)
        assert abs(extrap - 81.0 / math.pi ** 4) < 1e-6

    def test_consistency_with_kappa_at_pinned_points(self):
        sig, sc = MODULAR, modular_model()
        for s in IDENTITY_GRID:
            lhs = kappa(sig, sc, s + 1.0).value / kappa(sig, sc, s).value
            rhs = ruelle_fe_rhs(sig, sc, s)
            assert abs(lhs - rhs) < 1e-9 * abs(rhs)

    @pytest.mark.parametrize("sig, sc", [
        (MODULAR, modular_model()), (TRIANGLE, trivial_model()), (Signature(1, 1, (2,)), modular_model()),
    ], ids=["modular", "triangle", "genus-one"])
    def test_consistency_with_kappa_on_the_strip(self, sig, sc):
        # kappa(s+1)/kappa(s) has integer exponents only where kappa has one
        # branch: a fractional multiple of a log jumping by 2 pi i was off by
        # a root of unity at most points here
        rng = random.Random(202610)
        evaluated = 0
        for _ in range(60):
            s = complex(rng.uniform(-3.0, 4.0), rng.uniform(-20.0, 20.0))
            try:
                lhs = kappa(sig, sc, s + 1.0).value / kappa(sig, sc, s).value
                rhs = ruelle_fe_rhs(sig, sc, s)
            except DomainError:  # a factor leaves double range
                continue
            evaluated += 1
            assert abs(lhs - rhs) < 1e-9 * abs(rhs), s
        assert evaluated >= 55

    def test_consistency_with_kappa_past_sine_overflow(self):
        # cmath.sin(pi s) leaves double range from |Im s| ~ 226 on
        sig, sc = MODULAR, modular_model()
        for s in (0.3 + 400.0j, 0.3 - 500.0j, 0.5 - 460.0j, -0.3 + 650.0j, -0.1 - 650.0j):
            lhs = kappa(sig, sc, s + 1.0).value / kappa(sig, sc, s).value
            rhs = ruelle_fe_rhs(sig, sc, s)
            assert abs(lhs - rhs) < 1e-9 * abs(rhs)

    @pytest.mark.parametrize("s", [3 + 1e-8j, -4 + 2e-9])
    def test_next_to_the_sine_zeros_against_mpmath(self, s):
        # on (2;0;3) with phi = 1 the value is
        # (4 sin^2 pi s)^2 (sin pi s / sin(pi s / 3))^2, with a zero of order
        # 4 at s = 3 and 6 at s = -4; each sine keeps its relative accuracy
        z = mp.pi * mp.mpc(s.real, s.imag)
        ref = complex((4 * mp.sin(z) ** 2) ** 2 * (mp.sin(z) / mp.sin(z / 3)) ** 2)
        value = ruelle_fe_rhs(Signature(2, 0, (3,)), trivial_model(), s)
        assert abs(value - ref) <= 1e-13 * abs(ref)

    def test_overflow_is_domain_error(self):
        with pytest.raises(DomainError):
            ruelle_fe_rhs(MODULAR, modular_model(), 0.3 + 1000.0j)

    def test_compact_at_zero(self):
        # R(s) R(-s) has a zero of order 4 at 0 on a genus-2 surface
        assert ruelle_fe_rhs(COMPACT, trivial_model(), 0.0) == 0

    @pytest.mark.parametrize("sig, s", [
        (COMPACT, 1.0), (COMPACT, -3.0), (Signature(2, 0, (3,)), 4.0), (Signature(1, 0, (2,)), 3.0),
    ])
    def test_zero_at_integers(self, sig, s):
        # a power of sin(pi s) is a factor wherever no check refuses s;
        # log sin(pi s) itself is undefined there
        sc = modular_model() if sig.n else trivial_model()
        assert ruelle_fe_rhs(sig, sc, s) == 0 and ruelle_fe_rhs(sig, sc, complex(s, -0.0)) == 0


class TestCuspCount:
    @pytest.mark.parametrize("call", [
        lambda sig, sc: ruelle_fe_rhs(sig, sc, 0.25),
        lambda sig, sc: ruelle_leading_at_zero(sig, sc),
        lambda sig, sc: c0(sig, sc),
        lambda sig, sc: det_laplacian(sig, sc, 2.0, 1.0),
    ], ids=["ruelle_fe_rhs", "ruelle_leading_at_zero", "c0", "det_laplacian"])
    def test_mismatch_is_one_error(self, call):
        with pytest.raises(MismatchError, match="0 cusps but signature"):
            call(MODULAR, trivial_model())


def _trivial_with(phi_tilde_0):
    return ScatteringModel(n=0, phi=lambda s: 1.0 + 0.0j, n0=0,
                           phi_tilde_0=phi_tilde_0, A=0, label="trivial")


class TestOverflow:
    @pytest.mark.parametrize("call", [
        lambda: z_infty(COMPACT, 3.0 + 40.0j),
        # |kappa| = e^749; kappa(MODULAR, ..., 0.3 + 280j) is finite (below)
        lambda: kappa(Signature(2, 1), modular_model(), 0.7 + 200.0j),
        lambda: det_laplacian(COMPACT, trivial_model(), 3.0 + 15.0j, 1.0),
        # finite factors whose product overflows to nan
        lambda: det_laplacian(Signature(2, 1), modular_model(), -3.0 + 14.0825j, 1.0),
        # (2 pi)^398; the product of three orders; an order past double
        # range; the quotient by phi~(0)
        lambda: ruelle_leading_at_zero(Signature(200, 0), trivial_model()),
        lambda: ruelle_leading_at_zero(Signature(0, 0, (10**200,) * 3), trivial_model()),
        lambda: ruelle_leading_at_zero(Signature(0, 0, (10**400,) * 3), trivial_model()),
        lambda: ruelle_leading_at_zero(COMPACT, _trivial_with(1e-308)),
        # log c1 and log c0 are about 5.8e5
        lambda: c1(Signature(0, 0, (10**5,) * 3), trivial_model()),
        lambda: c0(Signature(0, 0, (10**5,) * 3), trivial_model()),
    ], ids=["z_infty", "kappa", "det_laplacian-exp", "det_laplacian-nan",
            "leading-genus-200", "leading-orders-1e200", "leading-orders-1e400",
            "leading-tiny-phi", "c1", "c0"])
    def test_domain_error(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DomainWarning)
            with pytest.raises(DomainError):
                call()

    def test_underflow_is_domain_error(self):
        # log kappa = -796.9 + 213198i: the value underflows a double to 0,
        # which a caller's kappa(s + 1).value / kappa(s).value would divide by
        with pytest.raises(DomainError, match="underflows"):
            kappa(MODULAR, modular_model(), -0.7 + 650.0j)
        with pytest.raises(DomainError, match="underflows"):
            FactorValue.from_log(-800.0 + 1.0j)
        assert FactorValue.from_log(-700.0).value.real > 0.0
        # on (400;0;) log c0 is below -745 while c1 = e^270 stays in range
        with pytest.raises(DomainError, match="underflows"):
            c0(Signature(400, 0), trivial_model())
        # a subnormal phi~(0) takes -phi~(0) e^(log c0) to 0 after the exp
        with pytest.raises(DomainError, match="leaves double range"):
            c0(COMPACT, _trivial_with(5e-324))

    def test_kappa_finite_past_zeta_reflection_overflow(self):
        # sin(pi s / 2) and Gamma(1 - s) in zeta's reflection each overflow here
        sc = modular_model()
        product = kappa(MODULAR, sc, 0.3 + 280.0j).value * kappa(MODULAR, sc, 0.7 - 280.0j).value
        assert abs(abs(product) - 1.0) < 1e-10


class TestRuelleLeading:
    def test_modular(self):
        order, coeff = ruelle_leading_at_zero(MODULAR, modular_model())
        assert order == -2
        assert abs(coeff - 9.0 / math.pi ** 2) < 1e-12
        assert abs(coeff - RUELLE_LEADING_MODULAR) < 1e-13

    def test_compact(self):
        order, coeff = ruelle_leading_at_zero(COMPACT, trivial_model())
        assert order == 2
        assert abs(coeff + 4.0 * math.pi ** 2) < 1e-12

    def test_three_cusp_sphere_with_hypothetical_model(self):
        model = ScatteringModel(
            n=3, phi=lambda s: 1.0 + 0.0j, n0=0, phi_tilde_0=1.0,
            A=0, label="hypothetical",
        )
        order, coeff = ruelle_leading_at_zero(Signature(0, 3), model)
        assert order == 1
        assert abs(coeff + 2.0 * math.pi) < 1e-12

    def test_finite_values_near_the_edge_unchanged(self):
        # just inside double range the coefficient is returned, pinned bit for bit
        assert ruelle_leading_at_zero(Signature(180, 0), trivial_model()) == (
            358, -5.602641994639105e+285)
        assert ruelle_leading_at_zero(Signature(0, 0, (10**100,) * 3), trivial_model()) == (
            -2, -2.5330295910584447e+298)


class TestConstantsC:
    def test_c1_compact_closed_form(self):
        expected = 2.0 * math.pi * math.exp(2.0 * (2.0 * ZETA_PRIME_MINUS_ONE - 0.25))
        assert abs(c1(COMPACT, trivial_model()) - expected) < 1e-14

    def test_c1_modular_pinned(self):
        assert abs(c1(MODULAR, modular_model()) - C1_MODULAR) < 1e-13

    def test_c1_positive(self):
        for sig, sc in [(MODULAR, modular_model()), (COMPACT, trivial_model()),
                        (TRIANGLE, trivial_model())]:
            assert c1(sig, sc) > 0

    def test_c1_against_factor_route(self):
        # c1 = Z_inf(1) Z_ell(1) Gamma(3/2)^(-n) exp(B/4 + C/2 + D)
        for sig, sc in [(MODULAR, modular_model()), (COMPACT, trivial_model()),
                        (TRIANGLE, trivial_model())]:
            c = constants(sig, sc)
            route = (
                z_infty(sig, 1.0).value * z_ell(sig, 1.0).value
                * math.gamma(1.5) ** (-sig.n)
                * cmath.exp(c.B / 4.0 + c.C / 2.0 + c.D)
            )
            assert abs(c1(sig, sc) - route) < 1e-10 * abs(route)

    def test_c0_compact_relation(self):
        assert abs(c0(COMPACT, trivial_model())
                   + c1(COMPACT, trivial_model()) * (2.0 * math.pi) ** -2) < 1e-14

    def test_c0_modular_pinned(self):
        assert abs(c0(MODULAR, modular_model()) - C0_MODULAR) < 1e-13

    def test_compact_pinned(self):
        assert abs(c1(COMPACT, trivial_model()) - C1_COMPACT) < 1e-13
        assert abs(c0(COMPACT, trivial_model()) - C0_COMPACT) < 1e-13

    def test_finite_values_near_the_edge_unchanged(self):
        # just inside double range c1 is returned, pinned bit for bit
        assert c1(Signature(400, 0), trivial_model()) == 1.4893626415673929e+117

    def test_c0_c1_relation_everywhere(self):
        for sig, sc in [(MODULAR, modular_model()), (COMPACT, trivial_model()),
                        (TRIANGLE, trivial_model())]:
            relation = (
                -c1(sig, sc)
                * (2.0 * math.pi) ** (2 - 2 * sig.g - sig.n) * sc.phi_tilde_0
            )
            for m in sig.orders:
                relation /= m
            assert abs(c0(sig, sc) - relation) < 1e-10 * abs(relation)


@pytest.mark.filterwarnings("ignore::hypzeta.errors.DomainWarning")  # Z(s) given on Re s <= 1
def test_factor_sweep_runs_every_product_right_of_one(monkeypatch):
    """The factors at s and 1 - s across the strip Re s in [-3, 4], the
    range the factor benchmark draws from, evaluate the double-gamma
    product only on Re w >= 1."""
    arguments = []
    product = special_functions._log_gamma2_product

    def recording(w):
        arguments.append(w)
        return product(w)

    monkeypatch.setattr(special_functions, "_log_gamma2_product", recording)
    for sig, sc in ((MODULAR, modular_model()), (COMPACT, trivial_model()),
                    (TRIANGLE, trivial_model())):
        for re in (-2.7, -1.4, -0.45, 0.2, 0.35, 0.7, 0.95, 1.6, 3.3):
            for im in (-2.5, 0.4):
                s = complex(re, im)
                for x in (s, 1.0 - s):
                    z_infty(sig, x)
                    kappa(sig, sc, x)
                    det_laplacian(sig, sc, x, complex(1.5, 0.5))
                ruelle_fe_rhs(sig, sc, s)
    assert arguments and min(w.real for w in arguments) >= 1.0


class TestFactorValue:
    def test_exp_consistency(self):
        fv = FactorValue.from_log(2.5 - 0.7j)
        assert cmath.isclose(cmath.exp(fv.log_value), fv.value, rel_tol=1e-14)

    def test_conjugate(self):
        fv = FactorValue.from_log(2.5 - 0.7j).conjugate()
        assert fv == FactorValue.from_log(2.5 + 0.7j)


def _bits(value, zero_sign: bool = True) -> tuple[str, ...]:
    """Every part of a complex or a FactorValue as hex, so -0.0 and 0.0
    differ unless zero_sign is false."""
    parts = [value.log_value, value.value] if isinstance(value, FactorValue) else [value]
    return tuple(x.hex() if x or zero_sign else "0" for z in parts for x in (z.real, z.imag))


MEMOIZED_FACTORS = [z_infty, z_ell, _log_sine_block, kappa, ruelle_fe_rhs]
MEMO_SIGNATURES = [MODULAR, COMPACT, TRIANGLE, Signature(1, 1, (2,)), Signature(1, 0, (2,)),
                   Signature(0, 0, (3, 3, 5))]


def _context(factor, sig: Signature) -> tuple:
    """The arguments before s: the signature, and the model for the factors
    that take one (modular with one cusp, trivial with none)."""
    if factor in (kappa, ruelle_fe_rhs):
        return sig, modular_model() if sig.n else trivial_model()
    return (sig,)


class TestFactorMemo:
    """The factors answer through special_functions._memoized, as the kernels do."""

    @settings(max_examples=60, deadline=None)
    @given(factor=st.sampled_from(MEMOIZED_FACTORS), sig=st.sampled_from(MEMO_SIGNATURES),
           re=st.floats(-3.0, 4.0), exponent=st.floats(-6.0, 1.0))
    @example(factor=kappa, sig=MODULAR, re=0.3, exponent=0.3)
    @example(factor=z_ell, sig=COMPACT, re=-1.3, exponent=-2.0)
    def test_factors_are_conjugate_symmetric_off_the_axis(self, factor, sig, re, exponent):
        # the factors evaluated at Im s < 0 themselves: answering that side
        # by conjugation changes no value off the axis, but the sign of an
        # exact zero (the Im of an empty cone product, of ruelle_fe_rhs on
        # the imaginary axis)
        s = complex(re, 10.0 ** exponent)
        kernel, context = factor.__wrapped__, _context(factor, sig)
        try:
            value = kernel(*context, s)
        except HypzetaError as exc:
            with pytest.raises(type(exc)):
                kernel(*context, s.conjugate())
            return
        mirrored = kernel(*context, s.conjugate())
        assert _bits(mirrored, zero_sign=False) == _bits(value.conjugate(), zero_sign=False), s

    @settings(max_examples=40, deadline=None)
    @given(factor=st.sampled_from(MEMOIZED_FACTORS), sig=st.sampled_from(MEMO_SIGNATURES),
           re=st.floats(-3.0, 4.0), im=st.one_of(st.just(0.0), st.floats(0.01, 10.0)))
    @example(factor=z_ell, sig=TRIANGLE, re=-1.3, im=0.0)  # on log Gamma's cut
    @example(factor=kappa, sig=MODULAR, re=1.7, im=0.0)
    @example(factor=ruelle_fe_rhs, sig=TRIANGLE, re=0.25, im=0.0)
    def test_memo_returns_the_values_outside_it(self, factor, sig, re, im):
        s = complex(re, im)
        context = _context(factor, sig)
        try:
            value = factor(*context, s)
        except HypzetaError as exc:
            for scope in (contextlib.nullcontext, special_functions._kernel_memo):
                with scope(), pytest.raises(type(exc)):
                    factor(*context, s.conjugate())
            return
        # outside a memo, s - 0j as every s whose Im has its sign bit set
        assert _bits(factor(*context, s.conjugate())) == _bits(value.conjugate()), s
        # in a memo, whichever side comes first, the values are those outside it
        for first, expected in ((s, value), (s.conjugate(), value.conjugate())):
            with special_functions._kernel_memo():
                inside = [factor(*context, first), factor(*context, first.conjugate())]
            assert [_bits(v) for v in inside] == [_bits(expected), _bits(expected.conjugate())], s

    @pytest.mark.parametrize("s", [2.0, complex(2.0, -0.0)], ids=repr)
    def test_a_factor_that_raises_stores_nothing(self, s):
        # a hit skips the argument checks, so a singular point must stay out
        with special_functions._kernel_memo():
            for _ in range(3):
                with pytest.raises(SingularFactorError, match="sine"):
                    kappa(MODULAR, modular_model(), s)
            kernels = {key[0] for key in special_functions._KERNEL_MEMO.get()}
        assert not kernels & {kappa.__wrapped__, _log_sine_block.__wrapped__}

    def test_an_error_below_the_axis_names_the_callers_s(self):
        s = complex(3.0, -0.0)
        for scope in (contextlib.nullcontext, special_functions._kernel_memo):
            with scope(), pytest.raises(PoleError, match=re.escape(f"s={s}")):
                ruelle_fe_rhs(MODULAR, modular_model(), s)

    def test_outside_a_memo_every_call_evaluates(self, monkeypatch):
        calls = []
        monkeypatch.setattr(zeta_factors, "_log_base", lambda s: calls.append(s) or 0j)
        for s in (1.5 + 2j, 1.5 - 2j, 1.5 + 2j):
            z_infty(MODULAR, s)
        # the second call answers 1.5 - 2j as the conjugate at 1.5 + 2j
        assert calls == [1.5 + 2j] * 3


class TestSignedZeroOnTheAxis:
    """At x - 0j a factor is the conjugate of its value at x + 0j, so the
    cone-point factor takes the same side of log Gamma's cut as Z_inf."""

    @pytest.mark.parametrize("x", [-0.4, -1.3, -2.7])
    def test_z_ell_below_the_cut_is_the_conjugate(self, x):
        above, below = z_ell(TRIANGLE, complex(x, 0.0)), z_ell(TRIANGLE, complex(x, -0.0))
        assert above.log_value.imag != 0.0  # on the cut, where the sides differ
        assert _bits(below) == _bits(above.conjugate())

    @pytest.mark.parametrize("x", [-0.4, -1.3, -2.7])
    def test_det_laplacian_below_the_cut_is_the_conjugate(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DomainWarning)
            above, below = (det_laplacian(TRIANGLE, trivial_model(), complex(x, im), 1.0)
                            for im in (0.0, -0.0))
        assert abs(below - above.conjugate()) <= 1e-12 * abs(above)


NON_FINITE = [
    complex(math.nan, 0.0), complex(math.inf, 0.0), complex(-math.inf, 0.0),
    complex(0.3, math.nan), complex(0.3, math.inf), complex(0.3, -math.inf),
    math.nan, math.inf, -math.inf,
]


class TestNonFiniteArgument:
    @pytest.mark.parametrize("s", NON_FINITE, ids=repr)
    @pytest.mark.parametrize("call", [
        log_gamma, riemann_zeta, log_barnes_gamma2, modular_phi,
        lambda s: z_infty(MODULAR, s),
        lambda s: z_ell(MODULAR, s),
        lambda s: det_laplacian(MODULAR, modular_model(), s, 1.0),
        lambda s: kappa(MODULAR, modular_model(), s),
        lambda s: ruelle_fe_rhs(MODULAR, modular_model(), s),
        lambda s: selberg_Z(enumerate_spectrum(10), s),
    ], ids=["log_gamma", "riemann_zeta", "log_barnes_gamma2", "modular_phi",
            "z_infty", "z_ell", "det_laplacian", "kappa", "ruelle_fe_rhs", "selberg_Z"])
    def test_domain_error(self, call, s):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DomainWarning)
            with pytest.raises(DomainError, match="finite"):
                call(s)
