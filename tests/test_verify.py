"""Verify-suite report tests: each worst-of-grid check names its sample point."""

import cmath
import contextlib
import math

import mpmath as mp
import pytest

from hypzeta import special_functions, verify
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


# ---------------------------------------------------------------------------
# one double-gamma memo per run_verify call
# ---------------------------------------------------------------------------


@pytest.fixture
def product_calls(monkeypatch):
    """Arguments of every G2 product evaluated while the test runs."""
    calls = []
    product = special_functions._log_gamma2_product

    def counting(w):
        calls.append((w.real, w.imag, math.copysign(1.0, w.imag)))
        return product(w)

    monkeypatch.setattr(special_functions, "_log_gamma2_product", counting)
    return calls


def test_run_verify_evaluates_each_product_once(product_calls):
    verify.run_verify()
    assert len(product_calls) == len(set(product_calls))
    assert len(product_calls) <= 170  # 666 without the memo


def test_run_verify_runs_every_product_right_of_one(product_calls):
    # for Re w < 1 the product's log(1 + (w - 1)/k) takes the slow
    # near-unit-circle path of the complex log
    verify.run_verify()
    assert product_calls and min(re for re, _, _ in product_calls) >= 1.0


def test_memo_leaves_the_report_unchanged(report, monkeypatch):
    monkeypatch.setattr(verify, "_g2_memo", contextlib.nullcontext)
    assert repr(verify.run_verify()) == repr(report)


def test_memo_keeps_signed_zeros_apart(product_calls):
    points = [complex(-0.5, 0.0), complex(-0.5, -0.0), complex(-2.5, 0.0),
              complex(-2.5, -0.0), complex(1.5, 0.0), complex(1.5, -0.0)]
    outside = [repr(log_barnes_gamma2(s)) for s in points]
    del product_calls[:]
    with special_functions._g2_memo():
        inside = [repr(log_barnes_gamma2(s)) for s in points]
    assert inside == outside
    # every point shifts to 1.5 +- 0j: one product evaluation for each sign
    assert sorted(product_calls) == [(1.5, 0.0, -1.0), (1.5, 0.0, 1.0)]
    # the two sides of the cut at -0.5 and -2.5 take different branches
    for plus, minus in ((0, 1), (2, 3)):
        assert log_barnes_gamma2(points[plus]) != log_barnes_gamma2(points[minus])


def _assert_memo_closed(product_calls):
    assert special_functions._G2_MEMO.get() is None
    del product_calls[:]
    log_barnes_gamma2(complex(1.4, -5.0))
    log_barnes_gamma2(complex(1.4, -5.0))
    assert len(product_calls) == 2


def test_memo_closes_when_run_verify_returns(product_calls):
    verify.run_verify()
    _assert_memo_closed(product_calls)


def test_memo_closes_when_a_section_raises(product_calls, monkeypatch):
    def broken():
        raise RuntimeError("section failed")

    monkeypatch.setattr(verify, "euler_checks", broken)
    with pytest.raises(RuntimeError, match="section failed"):
        verify.run_verify()
    assert product_calls  # the sections before it ran under the memo
    _assert_memo_closed(product_calls)
