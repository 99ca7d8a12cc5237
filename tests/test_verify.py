"""Verify-suite report tests: each worst-of-grid check names its sample point."""

import cmath
import math

import mpmath as mp
import pytest

from hypzeta import verify
from hypzeta.scattering import modular_model
from hypzeta.special_functions import (
    digamma,
    gauss_multiplication_defect,
    log_barnes_gamma2,
    log_gamma,
)

PHI = modular_model().phi


def _phi_logderiv(z, h=1e-3):
    def step(d):
        return cmath.log(PHI(z + d)) - cmath.log(PHI(z - d))
    return (8.0 * step(h) - step(2.0 * h)) / (12.0 * h)


# both sides of each special-function and scattering identity at one point
SIDES = {
    "gamma reflection": lambda s: (
        cmath.exp(log_gamma(s) + log_gamma(1.0 - s)), math.pi / cmath.sin(math.pi * s)),
    "double-gamma recursion": lambda s: (
        cmath.exp(log_barnes_gamma2(s)),
        cmath.exp(log_gamma(s)) * cmath.exp(log_barnes_gamma2(s + 1.0))),
    "digamma vs finite difference": lambda s: (
        digamma(s), (log_gamma(s + 1e-4) - log_gamma(s - 1e-4)) / (2.0 * 1e-4)),
    "phi(s) phi(1-s) = 1": lambda s: (PHI(s) * PHI(1.0 - s), 1.0),
    "phi'/phi symmetry under s -> 1-s": lambda s: (_phi_logderiv(s), _phi_logderiv(1.0 - s)),
}
for _m in (2, 3, 5, 7):
    SIDES[f"gauss multiplication m={_m}"] = (
        lambda s, m=_m: (gauss_multiplication_defect(s, m), 0.0))


@pytest.fixture(scope="module")
def report():
    return verify.run_verify()


def _sides_at(name, s):
    if name in SIDES:
        return SIDES[name](s)
    for sig, sc in verify.identity_pairs():
        for check in verify._factor_identities_at(sig, sc, s, 1e-9):
            if check.name == name:
                return check.lhs, check.rhs
    raise KeyError(name)


def test_worst_of_grid_sides_reproduce_at_reported_point(report):
    sampled = [c for checks in report["sections"].values() for c in checks
               if c["s"] is not None]
    # 9 special-function and scattering grids, 5 factor identities x 3 surfaces
    assert len(sampled) == 24
    for check in sampled:
        lhs, rhs = _sides_at(check["name"], check["s"])
        assert (complex(lhs), complex(rhs)) == (check["lhs"], check["rhs"]), check["name"]


def _mp_phi_logderiv(z):
    """d/ds log phi(s) for phi(s) = sqrt(pi) Gamma(s-1/2) zeta(2s-1) / (Gamma(s) zeta(2s))."""
    with mp.workdps(30):
        return complex(mp.psi(0, z - 0.5) - mp.psi(0, z)
                       + 2 * mp.zeta(2 * z - 1, derivative=1) / mp.zeta(2 * z - 1)
                       - 2 * mp.zeta(2 * z, derivative=1) / mp.zeta(2 * z))


def test_phi_logderiv_sides_against_mpmath():
    checks = verify.scattering_checks()
    (check,) = [c for c in checks if c.name == "phi'/phi symmetry under s -> 1-s"]
    assert check.tolerance == 1e-9
    s = mp.mpc(check.s.real, check.s.imag)
    for ours, ref in ((check.lhs, _mp_phi_logderiv(s)), (check.rhs, _mp_phi_logderiv(1 - s))):
        assert abs(ours - ref) <= 1e-10
    # every sample point, not only the reported worst one
    for z in (0.3 + 0.4j, 0.7 - 1.2j, 0.41 + 2.0j):
        for w in (z, 1.0 - z):
            assert abs(_phi_logderiv(w) - _mp_phi_logderiv(mp.mpc(w.real, w.imag))) <= 1e-10


def test_other_checks_carry_no_point(report):
    names = {c["name"] for checks in report["sections"].values() for c in checks
             if c["s"] is None}
    assert "zeta(2) = pi^2/6" in names and "modular n0 from slope fit" in names
    assert not names & set(SIDES)
