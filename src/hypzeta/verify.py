"""The reproducible identity-verification suite.

Every closed-form identity the package implements is checked here at
pinned sample points, with both sides and the tolerance recorded, so a
failure is reproducible from the report alone. The sample points for
branch-sensitive identities are versioned data: they were screened so
that principal-branch evaluation of both sides agrees there.

Also reproduces the scattering constants: phi(1/2) = (-1)^(A/2) for
each bundled model, the order and signed leading coefficient of the
modular phi at 0, and the signed Ruelle leading coefficient at 0.
"""

from __future__ import annotations

import cmath
import math

from . import euler_product, length_spectrum, zeta_factors
from .scattering import (
    ScatteringModel,
    modular_model,
    phi_leading_at_zero,
    trivial_model,
)
from .special_functions import (
    ZETA_PRIME_MINUS_ONE,
    _kernel_memo,
    digamma,
    gauss_multiplication_defect,
    log_barnes_gamma2,
    log_gamma,
    riemann_zeta,
)
from .surface import Signature, order_R, order_Z

POINTS_VERSION = "v1"

# Cut-safe sample points for branch-sensitive factor identities: at these
# points principal-branch evaluation of both sides of every checked
# identity agrees for all bundled signatures (screened at build time).
CUT_SAFE_POINTS = (
    complex(0.12, -3.0),
    complex(0.12, -1.0667),
    complex(0.1504, -2.0333),
    complex(0.1808, -3.0),
    complex(0.1808, -0.8733),
    complex(0.2112, -1.84),
    complex(0.2416, -2.8067),
    complex(0.2416, -0.68),
    complex(0.272, -1.6467),
    complex(0.3024, -2.6133),
    complex(0.3024, -0.68),
    complex(0.3328, -1.6467),
    complex(0.3632, -2.6133),
    complex(0.3632, -0.4867),
    complex(0.3936, -1.4533),
    complex(0.424, -2.42),
    complex(0.424, -0.2933),
    complex(0.4544, -1.26),
    complex(0.4848, -2.2267),
    complex(0.4848, -0.1),
)

# signature/model pairs exercised by the factor-identity suite
def identity_pairs() -> list[tuple[Signature, ScatteringModel]]:
    return [
        (Signature(0, 1, (2, 3)), modular_model()),
        (Signature(0, 0, (2, 3, 7)), trivial_model()),
        (Signature(1, 1, (2,)), modular_model()),
    ]


# multiplicities of the modular length spectrum for traces 3..12, frozen
# from the exhaustive cyclic-word oracle (see tests for the recomputation)
SPECTRUM_MULTIPLICITY = {3: 1, 4: 2, 5: 2, 6: 3, 7: 2, 8: 4, 9: 2, 10: 6, 11: 3, 12: 4}

# hand-substituted order tables for the modular surface and a genus-2
# compact surface; Z at 1, 0, -1/2..-9/2, -1..-10 and R at 2..-10
MODULAR_Z_ORDERS = {
    1: 1, 0: -1,
    -0.5: -1, -1.5: -1, -2.5: -1, -3.5: -1, -4.5: -1,
    -1: 1, -2: 1, -3: 1, -4: 1, -5: 3, -6: 1, -7: 3, -8: 3, -9: 3, -10: 3,
}
MODULAR_R_ORDERS = {
    2: 0, 1: 1, 0: -2, -1: 2, -2: 0, -3: 0, -4: 0, -5: 2,
    -6: -2, -7: 2, -8: 0, -9: 0, -10: 0,
}
COMPACT_Z_ORDERS = {
    1: 1, 0: 3,
    -0.5: 0, -1.5: 0, -2.5: 0, -3.5: 0, -4.5: 0,
    -1: 6, -2: 10, -3: 14, -4: 18, -5: 22, -6: 26, -7: 30, -8: 34, -9: 38, -10: 42,
}
COMPACT_R_ORDERS = {
    2: 0, 1: 1, 0: 2, -1: 3, -2: 4, -3: 4, -4: 4, -5: 4,
    -6: 4, -7: 4, -8: 4, -9: 4, -10: 4,
}


def _row(name: str, lhs: complex, rhs: complex, diff: float, tolerance: float) -> dict:
    """One verified identity instance as its report row, both sides on
    record; `s` is the sample point of a worst-of-grid check, None for
    checks without one."""
    return {"name": name, "lhs": lhs, "rhs": rhs, "abs_diff": diff,
            "tolerance": tolerance, "passed": bool(diff <= tolerance), "s": None}


def _check(name: str, lhs, rhs, tolerance: float) -> dict:
    lhs = complex(lhs)
    rhs = complex(rhs)
    return _row(name, lhs, rhs, abs(lhs - rhs), tolerance)


def _rel_check(name: str, lhs, rhs, tolerance: float) -> dict:
    """Check |lhs/rhs - 1| <= tolerance, recording the raw sides."""
    lhs = complex(lhs)
    rhs = complex(rhs)
    return _row(name, lhs, rhs, abs(lhs - rhs) / max(abs(rhs), 1e-300), tolerance)


def _worst(samples) -> dict:
    """The row with the largest abs_diff among (s, row) pairs, the first
    of equals, with its sample point recorded as `s`."""
    s, worst = max(samples, key=lambda pair: pair[1]["abs_diff"])
    worst["s"] = complex(s)
    return worst


def signature_corpus(count: int = 30) -> list[Signature]:
    """Deterministic list of valid small signatures for property sweeps."""
    order_menu = [
        (), (2,), (3,), (7,), (2, 3), (2, 4), (3, 5), (2, 3, 7),
        (2, 2, 3), (3, 3, 5), (2, 2, 2, 3),
    ]
    out: list[Signature] = []
    for g in range(0, 4):
        for n in range(0, 4):
            for orders in order_menu:
                try:
                    out.append(Signature(g, n, orders))
                except ValueError:
                    continue
                if len(out) == count:
                    return out
    return out


# ---------------------------------------------------------------------------
# check sections
# ---------------------------------------------------------------------------


def special_function_checks() -> list[dict]:
    tol = 1e-10
    checks = []
    # reflection formula on a 100-point grid avoiding integers
    pts = []
    for i in range(100):
        re = -2.3 + 4.7 * ((i * 37) % 100) / 99.0
        im = -4.0 + 8.0 * ((i * 53) % 100) / 99.0
        s = complex(round(re, 6), round(im, 6))
        if abs(s.imag) < 0.05 and abs(s.real - round(s.real)) < 0.05:
            s += 0.11 + 0.13j
        pts.append(s)
    checks.append(_worst(
        (s, _rel_check("gamma reflection",
                       cmath.exp(log_gamma(s) + log_gamma(1.0 - s)),
                       math.pi / cmath.sin(math.pi * s), tol))
        for s in pts
    ))
    # Gauss multiplication defect for m in {2,3,5,7}
    for m in (2, 3, 5, 7):
        checks.append(_worst(
            (s, _check(f"gauss multiplication m={m}",
                       gauss_multiplication_defect(s, m), 0.0, tol))
            for s in (0.3 + 0.7j, 1.0, 2.5 - 1.2j, 0.9 + 3.0j, 1.7 - 0.4j)
        ))
    # double-gamma recursion on the unit-step grid 1 <= Re s <= 5, |Im s| <= 5,
    # where both sides are products and s + 1 reuses the next row's product
    checks.append(_worst(
        (s, _rel_check("double-gamma recursion",
                       cmath.exp(log_barnes_gamma2(s)),
                       cmath.exp(log_gamma(s)) * cmath.exp(log_barnes_gamma2(s + 1.0)),
                       tol))
        for s in (complex(1 + i, -5.0 + 2.5 * j) for i in range(5) for j in range(5))
    ))
    # G2 = 1/G against Barnes' exact G(n) = prod_{k <= n-2} k! at the grid's
    # Im s = 0 products, and G(1/2) = 2^(1/24) e^(1/8) pi^(-1/4) A^(-3/2)
    checks.append(_worst(
        (n, _check("double-gamma at integers", log_barnes_gamma2(n),
                   -math.log(math.prod(math.factorial(k) for k in range(n - 1))), 1e-11))
        for n in range(2, 7)
    ))
    log_glaisher = 1.0 / 12.0 - ZETA_PRIME_MINUS_ONE
    checks.append(_check("double-gamma at 1/2", log_barnes_gamma2(0.5),
                         0.25 * math.log(math.pi) - math.log(2.0) / 24.0 - 0.125
                         + 1.5 * log_glaisher, 1e-12))
    # zeta spot values
    checks.append(_check("zeta(-1) = -1/12", riemann_zeta(-1.0), -1.0 / 12.0, 1e-12))
    checks.append(_check("zeta(2) = pi^2/6", riemann_zeta(2.0), math.pi ** 2 / 6.0, 1e-12))
    # digamma against a central difference of log_gamma
    h = 1e-4
    checks.append(_worst(
        (s, _check("digamma vs finite difference", digamma(s),
                   (log_gamma(s + h) - log_gamma(s - h)) / (2.0 * h), 1e-6))
        for s in (0.7 + 0.3j, 2.4 - 1.1j, 5.0, 1.5 + 4.0j)
    ))
    return checks


def scattering_checks() -> list[dict]:
    tol = 1e-9
    checks = []
    model = modular_model()
    # the stored A against the determinant: (-1)^(A/2) = phi(1/2)
    for sc in (model, trivial_model()):
        checks.append(_check(f"phi(1/2) = (-1)^(A/2) [{sc.label}]", sc.phi(0.5), sc.parity, 1e-10))
    # phi(s) phi(1-s) = 1 on a 50-point grid away from poles
    pts = []
    for i in range(50):
        re = 0.08 + 0.84 * ((i * 13) % 50) / 49.0
        im = -5.0 + 10.0 * ((i * 29) % 50) / 49.0
        s = complex(round(re, 6), round(im, 6))
        if abs(s - 0.5) < 0.05 or abs(s.imag) < 0.05:
            s += 0.07 + 0.09j
        pts.append(s)
    checks.append(_worst(
        (s, _check("phi(s) phi(1-s) = 1", model.phi(s) * model.phi(1.0 - s), 1.0, tol))
        for s in pts
    ))
    # symmetry of the logarithmic derivative via a fourth-order central
    # difference of log phi (truncation ~h^4, rounding ~1e-16/h)
    h = 1e-3

    def logderiv(z):
        def step(d):
            return cmath.log(model.phi(z + d)) - cmath.log(model.phi(z - d))
        return (8.0 * step(h) - step(2.0 * h)) / (12.0 * h)

    checks.append(_worst(
        (s, _check("phi'/phi symmetry under s -> 1-s", logderiv(s), logderiv(1.0 - s), tol))
        for s in (0.3 + 0.4j, 0.7 - 1.2j, 0.41 + 2.0j)
    ))
    # numerically fitted order and coefficient at 0
    n0, coeff = phi_leading_at_zero(model)
    checks.append(_check("modular n0 from slope fit", n0, model.n0, 0))
    checks.append(_check("modular phi~(0) = stored phi_tilde_0", coeff, model.phi_tilde_0, tol))
    checks.append(_check("n0 <= n (modular)", float(n0 <= model.n), 1.0, 0))
    trivial_n0, trivial_coeff = phi_leading_at_zero(trivial_model())
    checks.append(_check("trivial model leading (0, 1)", complex(trivial_n0, trivial_coeff), complex(0, 1.0), 1e-12))
    return checks


def _factor_identities_at(sig: Signature, sc: ScatteringModel, s: complex,
                          tol: float) -> list[dict]:
    """The factor identities of one signature at one sample point, sorted by name."""
    chi = float(sig.normalized_area())
    ze = zeta_factors.z_ell(sig, s).log_value
    ze1m = zeta_factors.z_ell(sig, 1.0 - s).log_value
    ze1p = zeta_factors.z_ell(sig, s + 1.0).log_value
    zem = zeta_factors.z_ell(sig, -s).log_value
    zi = zeta_factors.z_infty(sig, s).log_value
    zi1m = zeta_factors.z_infty(sig, 1.0 - s).log_value
    zi1p = zeta_factors.z_infty(sig, s + 1.0).log_value
    zim = zeta_factors.z_infty(sig, -s).log_value
    rhs_log = 0.0 + 0.0j
    for m in sig.orders:
        rhs_log += (
            2.0 / m * cmath.log(cmath.sin(math.pi * s))
            - (m - 1) / m * cmath.log(-4.0 + 0.0j)
            - 2.0 * cmath.log(cmath.sin(math.pi * s / m))
        )
    kap = zeta_factors.kappa(sig, sc, s).value
    kap1m = zeta_factors.kappa(sig, sc, 1.0 - s).value
    kap1p = zeta_factors.kappa(sig, sc, s + 1.0).value
    sides = {
        "cone-factor ratio vs sine product":
            (cmath.exp(ze - ze1m), cmath.exp(zeta_factors._log_sine_block(sig, s))),
        "archimedean four-point identity":
            (cmath.exp(zi1p - zi + zi1m - zim),
             cmath.exp(chi * cmath.log(-4.0 * cmath.sin(math.pi * s) ** 2))),
        "cone-factor four-point identity":
            (cmath.exp(ze1p - ze + ze1m - zem), cmath.exp(rhs_log)),
        "kappa(s) kappa(1-s) = 1": (kap * kap1m, 1.0),
        "Ruelle functional-equation consistency":
            (kap1p / kap, zeta_factors.ruelle_fe_rhs(sig, sc, s)),
    }
    return [_rel_check(f"{key} [{sig.label()}]", lhs, rhs, tol)
            for key, (lhs, rhs) in sorted(sides.items())]


def factor_identity_checks() -> list[dict]:
    tol = 1e-9
    checks = []
    for sig, sc in identity_pairs():
        rows = [_factor_identities_at(sig, sc, s, tol) for s in CUT_SAFE_POINTS]
        checks.extend(_worst(zip(CUT_SAFE_POINTS, column)) for column in zip(*rows))
        checks.append(_check(f"kappa(1/2) = phi(1/2) [{sig.label()}]",
                             zeta_factors.kappa(sig, sc, 0.5).value, sc.phi(0.5), tol))
        # magnitude of the leading coefficient against the functional equation
        order, coeff = zeta_factors.ruelle_leading_at_zero(sig, sc)
        d = order
        samples = []
        for r in (1e-2, 1e-3):
            rhs = zeta_factors.ruelle_fe_rhs(sig, sc, complex(r, 0.0))
            samples.append(math.sqrt(abs(rhs)) * r ** (-d))
        extrap = (samples[1] * 1e-4 - samples[0] * 1e-6) / (1e-4 - 1e-6)
        checks.append(_check(
            f"Ruelle leading magnitude vs functional equation [{sig.label()}]",
            extrap, abs(coeff), 1e-6 * max(1.0, abs(coeff)),
        ))
    return checks


def order_checks() -> list[dict]:
    checks = []
    modular = Signature(0, 1, (2, 3))
    compact = Signature(2, 0)
    for point, expected in MODULAR_Z_ORDERS.items():
        checks.append(_check(f"Z order modular s={point}", order_Z(modular, 1, point), expected, 0))
    for point, expected in MODULAR_R_ORDERS.items():
        checks.append(_check(f"R order modular s={point}", order_R(modular, 1, point), expected, 0))
    for point, expected in COMPACT_Z_ORDERS.items():
        checks.append(_check(f"Z order compact s={point}", order_Z(compact, 0, point), expected, 0))
    for point, expected in COMPACT_R_ORDERS.items():
        checks.append(_check(f"R order compact s={point}", order_R(compact, 0, point), expected, 0))
    corpus = signature_corpus()
    # z_orders[sig][k] is the order of Z at -k, k = 0..50
    z_orders = {sig: [order_Z(sig, 0, -k) for k in range(51)] for sig in corpus}
    nonneg = all(order >= 0 for orders in z_orders.values() for order in orders[1:])
    checks.append(_check("Z orders at -k are non-negative (corpus, k <= 50)", float(nonneg), 1.0, 0))
    ok_even = True
    floor_ok = True
    linkage = True
    for sig, z in z_orders.items():
        lower = 2 * (2 * sig.g - 2 + sig.n)
        for k in range(2, 51):
            ok = order_R(sig, 0, -k)
            ok_even &= ok % 2 == 0
            floor_ok &= ok >= lower and ok >= -4
            linkage &= ok == z[k] - z[k - 1]
    checks.append(_check("R orders even (corpus)", float(ok_even), 1.0, 0))
    checks.append(_check("R orders >= max(2(2g-2+n), -4) (corpus)", float(floor_ok), 1.0, 0))
    checks.append(_check("R order equals difference of Z orders (corpus)", float(linkage), 1.0, 0))
    return checks


def spectrum_checks() -> list[dict]:
    checks = []
    spectrum = length_spectrum.enumerate_spectrum(12)
    for trace, count in SPECTRUM_MULTIPLICITY.items():
        checks.append(_check(f"multiplicity of trace {trace}", spectrum.mult(trace), count, 0))
    return checks


def euler_checks() -> list[dict]:
    checks = []
    spectrum = length_spectrum.enumerate_spectrum(40)
    larger = length_spectrum.enumerate_spectrum(60)
    z40 = euler_product.selberg_Z(spectrum, 2.0)
    z60 = euler_product.selberg_Z(larger, 2.0)
    oracle = _double_sum_oracle(spectrum, 2.0)
    checks.append(_check("Selberg product vs expanded double sum at s=2",
                         z40.value, oracle, 1e-8))
    checks.append(_check("trace-cutoff stability at s=2",
                         z40.value, z60.value, z40.abs_error_estimate))
    checks.append(_check(
        "error estimate shrinks with max_trace",
        float(z60.abs_error_estimate < z40.abs_error_estimate), 1.0, 0,
    ))
    for s in (1.5, 2.0, 3.0, complex(1.5, 1.0), complex(2.0, 5.0), complex(3.0, 1.0)):
        quotient = euler_product.ruelle_R(spectrum, s, method="quotient")
        direct = euler_product.ruelle_R(spectrum, s, method="direct")
        budget = quotient.abs_error_estimate + direct.abs_error_estimate
        checks.append(_check(f"Ruelle two-path agreement s={s}",
                             quotient.value, direct.value, budget))
    z_far = euler_product.selberg_Z(spectrum, 20.0)
    r_far = euler_product.ruelle_R(spectrum, 20.0)
    checks.append(_check("Z(20) = 1", z_far.value, 1.0, 1e-12))
    checks.append(_check("R(20) = 1", r_far.value, 1.0, 1e-12))
    return checks


def _double_sum_oracle(spectrum, s, tail: float = 1e-12) -> complex:
    """Mercator-expanded triple sum; the independent route to log Z."""
    total = 0.0 + 0.0j
    s = complex(s)
    for _, count, _, length in spectrum.columns.T.tolist():
        for k in range(0, 200):
            x = cmath.exp(-(s + k) * length)
            if abs(x) < tail * 1e-6:
                break
            xm = x
            inner = 0.0 + 0.0j
            for m in range(1, 400):
                inner += xm / m
                xm *= x
                if abs(xm) < tail * 1e-6:
                    break
            total -= count * inner
    return cmath.exp(total)


def constants_checks() -> list[dict]:
    checks = []
    for sig, sc in [(Signature(0, 1, (2, 3)), modular_model()),
                    (Signature(2, 0), trivial_model())]:
        # the main theorem's signed coefficient ties the two constants
        _, coeff = zeta_factors.ruelle_leading_at_zero(sig, sc)
        relation = zeta_factors.c1(sig, sc) / coeff
        checks.append(_rel_check(f"c0 against c1 relation [{sig.label()}]",
                                 zeta_factors.c0(sig, sc), relation, 1e-10))
    modular = Signature(0, 1, (2, 3))
    order, coeff = zeta_factors.ruelle_leading_at_zero(modular, modular_model())
    checks.append(_check("modular Ruelle order at 0", order, -2, 0))
    checks.append(_check("modular Ruelle leading = +9/pi^2", coeff, 9.0 / math.pi ** 2, 1e-10))
    return checks


def run_verify() -> dict:
    """Run the whole suite; returns a JSON-ready report dictionary.

    The sections share one kernel memo, so log_gamma and riemann_zeta
    each evaluate an argument once per run, a memo hit skipping their
    argument checks, and the product behind log_barnes_gamma2 runs once
    per conjugate pair of arguments (62 products).
    """
    with _kernel_memo():
        sections = {
            "special_functions": special_function_checks(),
            "scattering": scattering_checks(),
            "factor_identities": factor_identity_checks(),
            "orders": order_checks(),
            "length_spectrum": spectrum_checks(),
            "euler_product": euler_checks(),
            "constants": constants_checks(),
        }
    all_checks = [c for section in sections.values() for c in section]
    failed = [c for c in all_checks if not c["passed"]]
    return {
        "points_version": POINTS_VERSION,
        "sections": sections,
        "total_checks": len(all_checks),
        "failed_checks": len(failed),
        "passed": not failed,
    }
