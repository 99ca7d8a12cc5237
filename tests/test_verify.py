"""Verify-suite report tests: each worst-of-grid check names its sample point."""

import cmath
import collections
import contextlib
import dataclasses
import math

import mpmath as mp
import pytest

from hypzeta import special_functions, verify, zeta_factors
from hypzeta.errors import DomainError, PoleError
from hypzeta.scattering import modular_model
from hypzeta.special_functions import log_barnes_gamma2, log_gamma, riemann_zeta

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
    "double-gamma at integers": lambda s: (
        log_barnes_gamma2(s),
        -math.log(math.prod(math.factorial(k) for k in range(int(s.real) - 1)))),
    "phi(s) phi(1-s) = 1": lambda s: (PHI(s) * PHI(1.0 - s), 1.0),
    "phi'/phi symmetry under s -> 1-s": lambda s: (_phi_logderiv(s), _phi_logderiv(1.0 - s)),
}
for _m in (2, 3, 5, 7):
    SIDES[f"gauss multiplication m={_m}"] = (
        lambda s, m=_m: (verify._gauss_multiplication_defect(s, m), 0.0))


@pytest.fixture(scope="module")
def report():
    return verify.run_verify()


def _sides_at(name, s):
    if name in SIDES:
        return SIDES[name](s)
    for sig, sc in verify.identity_pairs():
        for check in verify._factor_identities_at(sig, sc, s, 1e-9):
            if check["name"] == name:
                return check["lhs"], check["rhs"]
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
    (check,) = [c for c in checks if c["name"] == "phi'/phi symmetry under s -> 1-s"]
    assert check["tolerance"] == 1e-9
    s = mp.mpc(check["s"].real, check["s"].imag)
    for ours, ref in ((check["lhs"], _mp_phi_logderiv(s)),
                      (check["rhs"], _mp_phi_logderiv(1 - s))):
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


def test_rows_are_plain_dicts_with_seven_keys(report):
    keys = ["name", "lhs", "rhs", "abs_diff", "tolerance", "passed", "s"]
    rows = [c for checks in report["sections"].values() for c in checks]
    assert len(rows) == report["total_checks"] == 121
    for row in rows:
        assert type(row) is dict and list(row) == keys, row


def test_recursion_compares_two_products_everywhere(monkeypatch):
    # left of Re s = 1 both sides would shift to the same product
    points = []
    worst = verify._worst

    def recording(samples):
        samples = list(samples)
        if samples[0][1]["name"] == "double-gamma recursion":
            points.extend(s for s, _ in samples)
        return worst(samples)

    monkeypatch.setattr(verify, "_worst", recording)
    verify.special_function_checks()
    assert len(points) == 25 and min(s.real for s in points) >= 1.0


def test_exact_double_gamma_values_against_mpmath(monkeypatch):
    # with log G2 = -log G read from mpmath's Barnes G at 30 digits, each
    # row's residual is that of its closed form, Glaisher's constant taken
    # from ZETA_PRIME_MINUS_ONE for G(1/2)
    def reference(s):
        s = complex(s)
        with mp.workdps(30):
            return complex(-mp.log(mp.barnesg(mp.mpc(s.real, s.imag))))

    monkeypatch.setattr(verify, "log_barnes_gamma2", reference)
    rows = {c["name"]: c for c in verify.special_function_checks()}
    assert rows["double-gamma at integers"]["abs_diff"] <= 1e-15
    assert rows["double-gamma at 1/2"]["abs_diff"] <= 1e-15


def test_c0_c1_relation_reads_the_leading_coefficient(monkeypatch):
    leading = zeta_factors.ruelle_leading_at_zero

    def off(sig, sc):
        order, coeff = leading(sig, sc)
        return order, coeff * (1.0 + 1e-6)

    monkeypatch.setattr(zeta_factors, "ruelle_leading_at_zero", off)
    rows = {c["name"]: c["passed"] for c in verify.constants_checks()}
    assert not rows["c0 against c1 relation [(0;1;2,3)]"]
    assert not rows["c0 against c1 relation [(2;0;)]"]


def test_wrong_parity_constant_fails_only_the_phi_half_row(monkeypatch):
    # A = 0 claims phi(1/2) = +1 for the modular determinant, whose value is -1
    wrong = dataclasses.replace(modular_model(), A=0)
    monkeypatch.setattr(verify, "modular_model", lambda: wrong)
    outcome = verify.run_verify()
    failed = [f"{name}: {c['name']}" for name, checks in outcome["sections"].items()
              for c in checks if not c["passed"]]
    assert failed == ["scattering: phi(1/2) = (-1)^(A/2) [modular]"]


def test_principal_log_sine_fails_the_kappa_rows(monkeypatch):
    # a principal log of sin jumps by 2 pi i once per period of Re z, so
    # kappa's sine block, fractional multiples of such logs, lands off by a
    # root of unity on part of the identity grid; the screened points
    # missed every jump
    monkeypatch.setattr(zeta_factors, "_log_sinpi", lambda w: cmath.log(cmath.sin(math.pi * w)))
    outcome = verify.run_verify()
    failed = [c["name"] for checks in outcome["sections"].values()
              for c in checks if not c["passed"]]
    assert failed == [f"{name} [{sig.label()}]" for sig, _ in verify.identity_pairs()
                      for name in ("Ruelle functional-equation consistency",
                                   "cone-factor ratio vs sine product")]


def test_budget_checks_record_both_values(report):
    rows = [c for c in report["sections"]["euler_product"]
            if c["name"] == "trace-cutoff stability at s=2"]
    assert len(rows) == 1
    for row in rows:
        assert row["tolerance"] > 0, row["name"]
        assert row["passed"] == (row["abs_diff"] <= row["tolerance"]), row["name"]
        assert row["lhs"] != 1.0 and row["abs_diff"] == abs(row["lhs"] - row["rhs"])


# ---------------------------------------------------------------------------
# one kernel memo per run_verify call
# ---------------------------------------------------------------------------


def _evaluations(monkeypatch, name):
    """Arguments of every evaluation of special_functions.<name> while the
    test runs; a kernel's calls of itself (log-gamma reflects into itself)
    are part of one evaluation."""
    calls = []
    kernel = getattr(special_functions, name)
    depth = 0

    def counting(w):
        nonlocal depth
        if depth == 0:
            calls.append((w.real, w.imag, math.copysign(1.0, w.imag)))
        depth += 1
        try:
            return kernel(w)
        finally:
            depth -= 1

    monkeypatch.setattr(special_functions, name, counting)
    return calls


@pytest.fixture
def product_calls(monkeypatch):
    """Arguments of every G2 product evaluated while the test runs."""
    return _evaluations(monkeypatch, "_log_gamma2_product")


@pytest.fixture
def log_gamma_calls(monkeypatch):
    """Arguments of every log-gamma evaluation while the test runs."""
    return _evaluations(monkeypatch, "_loggamma")


@pytest.fixture
def zeta_sums(monkeypatch):
    """Arguments of every Euler-Maclaurin zeta sum while the test runs."""
    return _evaluations(monkeypatch, "_zeta_euler_maclaurin")


def test_run_verify_evaluates_each_product_once(product_calls):
    verify.run_verify()
    assert len(product_calls) == len(set(product_calls))
    # 662 without the memo, one per conjugate pair with it, s +- 0j among
    # them; the recursion grid's rows and the identity grid's points, 1
    # apart, share their products
    assert len(product_calls) == 29


def test_run_verify_evaluates_each_log_gamma_and_zeta_sum_once(log_gamma_calls, zeta_sums):
    verify.run_verify()
    assert len(log_gamma_calls) == len(set(log_gamma_calls))
    # pinned, so a lost or an extra shared value shows
    assert len(log_gamma_calls) == 880  # 4,630 without the memo
    assert len(zeta_sums) == len(set(zeta_sums))
    assert len(zeta_sums) == 183  # 678 without the memo


def test_run_verify_evaluates_each_factor_once_per_conjugate_pair(monkeypatch):
    memos = []
    scope = verify._kernel_memo

    @contextlib.contextmanager
    def keeping():
        with scope():
            memos.append(special_functions._KERNEL_MEMO.get())
            yield

    monkeypatch.setattr(verify, "_kernel_memo", keeping)
    verify.run_verify()
    # a miss evaluates the factor once and keeps it under one key, a hit
    # adds none, so the keys count the evaluations; pinned, so that a lost
    # or an extra shared value shows
    (memo,) = memos
    factors = (zeta_factors.z_infty, zeta_factors.z_ell, zeta_factors.kappa,
               zeta_factors.ruelle_fe_rhs, zeta_factors._log_sine_block)
    kept = collections.Counter(key[0] for key in memo)
    # 240, 240, 183, 66 and 243 evaluations without the memo
    assert [kept[f.__wrapped__] for f in factors] == [72, 72, 69, 36, 69]


def test_run_verify_runs_every_product_right_of_one(product_calls):
    # for Re w < 1 the product's log(1 + (w - 1)/k) takes the slow
    # near-unit-circle path of the complex log
    verify.run_verify()
    assert product_calls and min(re for re, _, _ in product_calls) >= 1.0


def test_memo_leaves_the_report_unchanged(report, monkeypatch):
    monkeypatch.setattr(verify, "_kernel_memo", contextlib.nullcontext)
    assert repr(verify.run_verify()) == repr(report)


def test_memo_keeps_signed_zeros_apart(product_calls, log_gamma_calls):
    points = [complex(-0.5, 0.0), complex(-0.5, -0.0), complex(-2.5, 0.0),
              complex(-2.5, -0.0), complex(1.5, 0.0), complex(1.5, -0.0)]
    outside = [repr(log_barnes_gamma2(s)) for s in points]
    outside_gamma = [repr(log_gamma(s)) for s in points]
    del product_calls[:], log_gamma_calls[:]
    with special_functions._kernel_memo():
        inside = [repr(log_barnes_gamma2(s)) for s in points]
        # at -0.5 and -2.5 served from the memo, which the shifts filled
        inside_gamma = [repr(log_gamma(s)) for s in points]
    assert inside == outside and inside_gamma == outside_gamma
    # every point shifts to 1.5 +- 0j, whose sides share one product
    assert product_calls == [(1.5, 0.0, 1.0)]
    # one log-gamma evaluation, on the upper side, serves both sides of each cut
    assert len(log_gamma_calls) == len(set(log_gamma_calls))
    assert {(re, 0.0, 1.0) for re in (-0.5, -2.5)} <= set(log_gamma_calls)
    assert all(sign == 1.0 for _, _, sign in log_gamma_calls)
    # the two sides of the cut at -0.5 and -2.5 still take different branches
    for plus, minus in ((0, 1), (2, 3)):
        assert inside[plus] != inside[minus] and inside_gamma[plus] != inside_gamma[minus]


def test_memo_runs_one_product_per_conjugate_pair(product_calls):
    points = [complex(1.5, 2.5), complex(2.3, 5.0), complex(0.5, 1e-12), complex(-1.1, 4.0)]
    outside = [log_barnes_gamma2(s.conjugate()) for s in points]
    del product_calls[:]
    with special_functions._kernel_memo():
        for s, mirrored in zip(points, outside):
            value = log_barnes_gamma2(s)
            assert repr(log_barnes_gamma2(s.conjugate())) == repr(mirrored)
            if s.real >= 1.0:  # no log-gamma shift: the two are exact conjugates
                assert repr(mirrored) == repr(value.conjugate())
        # every product runs in the upper half-plane
        assert len(product_calls) == len(points) and min(im for _, im, _ in product_calls) > 0
        del product_calls[:]
        log_barnes_gamma2(complex(2.5, 0.0))
        log_barnes_gamma2(complex(2.5, -0.0))
    assert product_calls == [(2.5, 0.0, 1.0)]


@pytest.mark.parametrize("kernel, s, error", [
    (log_gamma, -1.0, PoleError),
    (log_gamma, float("nan"), DomainError),
    (log_gamma, 1e308, DomainError),  # passes the argument checks, overflows
    (riemann_zeta, 1.0, PoleError),
    (riemann_zeta, complex(0.3, 2e6), DomainError),
    (riemann_zeta, complex(-300.0, 0.5), DomainError),  # leaves double range
    (log_barnes_gamma2, -2.0, PoleError),
    (log_barnes_gamma2, complex(0.3, -5000.0), DomainError),  # past the product ceiling
])
def test_memo_never_answers_for_a_failed_check(kernel, s, error):
    # a hit skips the argument checks, so the memo must hold no value for
    # an argument that failed one
    with special_functions._kernel_memo():
        for _ in range(3):
            with pytest.raises(error):
                kernel(s)
        assert all(cmath.isfinite(v) for v in special_functions._KERNEL_MEMO.get().values())


def _assert_memo_closed(product_calls, log_gamma_calls):
    assert special_functions._KERNEL_MEMO.get() is None
    # an argument the run evaluated is evaluated again
    s = complex(*log_gamma_calls[-1][:2])
    del product_calls[:], log_gamma_calls[:]
    log_barnes_gamma2(complex(1.4, -5.0))
    log_barnes_gamma2(complex(1.4, -5.0))
    assert len(product_calls) == 2
    log_gamma(s)
    log_gamma(s)
    assert len(log_gamma_calls) == 2


def test_memo_closes_when_run_verify_returns(product_calls, log_gamma_calls):
    verify.run_verify()
    _assert_memo_closed(product_calls, log_gamma_calls)


def test_memo_closes_when_a_section_raises(product_calls, log_gamma_calls, monkeypatch):
    def broken():
        raise RuntimeError("section failed")

    monkeypatch.setattr(verify, "euler_checks", broken)
    with pytest.raises(RuntimeError, match="section failed"):
        verify.run_verify()
    assert product_calls  # the sections before it ran under the memo
    _assert_memo_closed(product_calls, log_gamma_calls)


# ---------------------------------------------------------------------------
# the corpus order table of order_checks
# ---------------------------------------------------------------------------


def _order_checks_with_one_wrong(monkeypatch, label, k, delta):
    """order_checks with verify.order_Z off by delta at -k for one signature."""
    (sig,) = [sig for sig in verify.signature_corpus() if sig.label() == label]
    order_Z = verify.order_Z

    def wrong(s, n0, point):
        return order_Z(s, n0, point) + (delta if (s, point) == (sig, -k) else 0)

    monkeypatch.setattr(verify, "order_Z", wrong)
    return {c["name"]: c["passed"] for c in verify.order_checks()}


@pytest.mark.parametrize("k", [1, 2, 27, 50])
@pytest.mark.parametrize("delta", [1, -1])
def test_linkage_reads_the_order_table(monkeypatch, k, delta):
    # the corpus R orders are differences of the table's Z orders, so one Z
    # order off by +-1 makes a difference next to it odd
    passed = _order_checks_with_one_wrong(monkeypatch, "(0;1;2,3)", k, delta)
    assert not passed["R orders even (corpus)"]
    assert passed["Z orders at -k are non-negative (corpus, k <= 50)"]


def test_non_negativity_reads_the_order_table(monkeypatch):
    # the order of Z at -1 is 0 on (0;0;2,3,7)
    passed = _order_checks_with_one_wrong(monkeypatch, "(0;0;2,3,7)", 1, -1)
    assert not passed["Z orders at -k are non-negative (corpus, k <= 50)"]
