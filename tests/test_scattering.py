"""Scattering-determinant tests: modular values, functional equation, fits."""

import cmath
import math

import mpmath as mp
import pytest

from hypzeta.errors import DomainError, FitError, PoleError
from hypzeta.scattering import (
    ScatteringModel,
    builtin_model,
    modular_model,
    modular_phi,
    phi_leading_at_zero,
    trivial_model,
)
from hypzeta.surface import Signature
from hypzeta.zeta_factors import kappa, ruelle_fe_rhs

# sqrt(pi) Gamma(3/2)/Gamma(2) zeta(3)/zeta(4), pinned at 30 digits
PHI_AT_2 = 1.7445680821312560


class TestModularPhi:
    def test_value_at_half_by_limit(self):
        assert abs(modular_phi(0.5) + 1.0) < 1e-10

    def test_value_at_two(self):
        assert abs(modular_phi(2.0) - PHI_AT_2) < 1e-12

    def test_functional_instance(self):
        assert abs(modular_phi(0.3) * modular_phi(0.7) - 1.0) < 1e-10

    def test_pole_at_one(self):
        with pytest.raises(PoleError):
            modular_phi(1.0)

    def test_removable_points_below_half(self):
        # phi is finite at 1/2 - j; check against the functional equation
        for s in (-0.5, -1.5, -2.5):
            value = modular_phi(s)
            assert abs(value * modular_phi(1.0 - s) - 1.0) < 1e-8

    @pytest.mark.parametrize("j", range(6))
    def test_removable_point_against_mpmath(self, j):
        # the quotient at 40 digits, 1e-25 right of the removable point
        with mp.workdps(40):
            s = mp.mpf(1) / 2 - j + mp.mpf(10) ** -25
            limit = (mp.sqrt(mp.pi) * mp.gamma(s - mp.mpf(1) / 2) / mp.gamma(s)
                     * mp.zeta(2 * s - 1) / mp.zeta(2 * s))
            assert abs(modular_phi(0.5 - j) - complex(limit)) <= 1e-13 * abs(limit)

    def test_functional_equation_grid(self):
        for i in range(50):
            re = 0.08 + 0.84 * ((i * 13) % 50) / 49.0
            im = -5.0 + 10.0 * ((i * 29) % 50) / 49.0
            s = complex(round(re, 6), round(im, 6))
            if abs(s - 0.5) < 0.05 or abs(s.imag) < 0.05:
                s += 0.07 + 0.09j
            assert abs(modular_phi(s) * modular_phi(1.0 - s) - 1.0) < 1e-9

    def test_log_derivative_symmetry(self):
        h = 1e-5
        for s in (0.3 + 0.4j, 0.7 - 1.2j, 0.41 + 2.0j):
            def logderiv(z):
                return (cmath.log(modular_phi(z + h)) - cmath.log(modular_phi(z - h))) / (2 * h)
            assert abs(logderiv(s) - logderiv(1.0 - s)) < 1e-6

    @pytest.mark.parametrize("evaluate", [
        modular_phi,
        lambda s: kappa(Signature(0, 1, (2, 3)), modular_model(), s),
        lambda s: ruelle_fe_rhs(Signature(0, 1, (2, 3)), modular_model(), s),
    ], ids=["phi", "kappa", "ruelle_fe_rhs"])
    @pytest.mark.parametrize("s", [complex(0.3, 6e5), complex(0.3, -6e5)])
    def test_bound_names_the_callers_s(self, evaluate, s):
        # zeta(2s - 1) is past its |Im| bound of 10^6; phi refuses first
        with pytest.raises(DomainError, match="modular_phi") as info:
            evaluate(s)
        assert str(s) in str(info.value) and "600000j" in str(info.value)

    def test_bound_admits_its_edge(self):
        assert cmath.isfinite(modular_phi(complex(0.3, 5e5)))


class TestLeadingAtZero:
    def test_modular_order_and_magnitude(self):
        model = modular_model()
        n0, coeff = phi_leading_at_zero(model)
        assert n0 == 1
        assert abs(abs(coeff) - math.pi / 3.0) < 1e-9

    def test_modular_sign_from_series(self):
        # term-by-term expansion at 0:
        # sqrt(pi) * Gamma(-1/2) * s * zeta(-1)/zeta(0) = -(pi/3) s
        taylor = math.sqrt(math.pi) * math.gamma(-0.5) * (-1.0 / 12.0) / (-0.5)
        assert abs(taylor + math.pi / 3.0) < 1e-12
        _, coeff = phi_leading_at_zero(modular_model())
        assert coeff < 0
        assert abs(coeff - taylor) < 1e-9

    def test_stored_value_is_the_taylor_coefficient(self):
        model = modular_model()
        assert model.phi_tilde_0 == pytest.approx(-math.pi / 3.0, abs=0)

    def test_fit_returned_for_wrong_stored_sign(self):
        # the fit reads phi alone; verify compares it with the stored sign
        wrong = ScatteringModel(
            n=1, phi=modular_phi, n0=1, phi_tilde_0=math.pi / 3.0,
            A=2, label="wrong sign",
        )
        assert phi_leading_at_zero(wrong) == phi_leading_at_zero(modular_model())

    def test_trivial_model(self):
        n0, coeff = phi_leading_at_zero(trivial_model())
        assert n0 == 0
        assert coeff == pytest.approx(1.0, abs=1e-12)

    def test_n0_at_most_n(self):
        model = modular_model()
        assert model.n0 <= model.n

    def test_fit_returned_for_contradicting_model(self):
        bad = ScatteringModel(
            n=1, phi=modular_phi, n0=0, phi_tilde_0=1.0,
            A=2, label="bad",
        )
        n0, coeff = phi_leading_at_zero(bad)
        assert n0 == 1 and n0 != bad.n0
        assert abs(coeff + math.pi / 3.0) < 1e-9

    def test_fit_error_on_non_integer_slope(self):
        # |phi| ~ |s|^(1/2): the slope locks onto no integer
        model = ScatteringModel(
            n=1, phi=lambda s: cmath.sqrt(s), n0=1, phi_tilde_0=1.0,
            A=2, label="half power",
        )
        with pytest.raises(FitError, match="slope fit"):
            phi_leading_at_zero(model)

    def test_fit_error_on_non_real_coefficient(self):
        model = ScatteringModel(
            n=1, phi=lambda s: 1j * s, n0=1, phi_tilde_0=1.0,
            A=2, label="imaginary",
        )
        with pytest.raises(FitError, match="not real"):
            phi_leading_at_zero(model)

    def test_fit_error_on_zero_coefficient(self):
        # phi = sign(Re s) (Re s)^2 has slope 2 and an even part of 0, a
        # coefficient ScatteringModel itself refuses
        model = ScatteringModel(
            n=1, phi=lambda s: complex(math.copysign(s.real ** 2, s.real)), n0=2,
            phi_tilde_0=1.0, A=2, label="odd square",
        )
        with pytest.raises(FitError, match="is 0"):
            phi_leading_at_zero(model)

    @pytest.mark.parametrize("phi, message", [
        (lambda s: 0j, "0 or not finite at a fit radius"),
        (lambda s: complex(math.nan, 0.0), "0 or not finite at a fit radius"),
        (lambda s: complex(math.inf, 0.0), "0 or not finite at a fit radius"),
        # |phi| = e^-460.5 |s|^-85 is finite at every radius; 1e-4^-85 is not
        (lambda s: complex(math.copysign(1.0, s.real)
                           * math.exp(-85.0 * math.log(abs(s.real)) - 460.5)),
         "leaves double range"),
        # phi = e^720 s^70 is finite at every radius; its coefficient e^720 is not
        (lambda s: complex(math.exp(70.0 * math.log(abs(s.real)) + 720.0)), "not finite"),
    ], ids=["zero", "nan", "inf", "steep-pole", "steep-zero"])
    def test_fit_error_outside_double_range(self, phi, message):
        model = ScatteringModel(n=0, phi=phi, n0=0, phi_tilde_0=1.0, A=0, label="degenerate")
        with pytest.raises(FitError, match=message):
            phi_leading_at_zero(model)


class TestModelValidation:
    def test_builtin_labels(self):
        assert builtin_model("modular").label == "modular"
        assert builtin_model("trivial").label == "trivial"
        with pytest.raises(ValueError):
            builtin_model("nope")

    def test_modular_parity_data(self):
        model = modular_model()
        assert model.A == 2
        assert model.parity == -1 and trivial_model().parity == 1
        # (-1)^(A/2) = phi(1/2), with phi(1/2) from the determinant itself
        assert abs(model.phi(0.5) - model.parity) < 1e-12

    @pytest.mark.parametrize("build", [modular_model, trivial_model])
    def test_builtin_models_compare_and_hash_equal(self, build):
        # the factor memo keys kappa and ruelle_fe_rhs by their model
        assert build() == build() and hash(build()) == hash(build())

    def test_odd_A_rejected(self):
        with pytest.raises(ValueError):
            ScatteringModel(n=1, phi=modular_phi, n0=1, phi_tilde_0=1.0,
                            A=1, label="x")

    def test_A_range_enforced(self):
        with pytest.raises(ValueError):
            ScatteringModel(n=1, phi=modular_phi, n0=1, phi_tilde_0=1.0,
                            A=4, label="x")

    @pytest.mark.parametrize("field", ["n", "n0", "A"])
    @pytest.mark.parametrize("bad", [2.0, 1.5, float("nan"), "2"])
    def test_integer_fields_take_index(self, field, bad):
        data = dict(n=1, phi=modular_phi, n0=1, phi_tilde_0=1.0, A=2, label="x")
        data[field] = bad
        with pytest.raises(TypeError):
            ScatteringModel(**data)

    def test_integer_fields_stored_as_int(self):
        model = ScatteringModel(n=True, phi=modular_phi, n0=False, phi_tilde_0=1.0,
                                A=0, label="x")
        assert (type(model.n), type(model.n0), type(model.A)) == (int, int, int)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 0.0])
    def test_leading_coefficient_finite_and_non_zero(self, bad):
        with pytest.raises(ValueError, match="finite and non-zero"):
            ScatteringModel(n=1, phi=modular_phi, n0=1, phi_tilde_0=bad,
                            A=2, label="x")
