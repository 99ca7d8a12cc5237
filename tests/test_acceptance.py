"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (also on the unredirected stream so
the line survives pytest's capture) and then asserts.
"""

import cmath
import io
import itertools
import json
import math
import sys
import time
from contextlib import redirect_stdout

from cut_safe_points import CUT_SAFE_POINTS
from word_oracle import canonical_rotation, is_primitive, necklace_count, trace_of_word

from hypzeta.cli import run as cli_run
from hypzeta.euler_product import ruelle_R, selberg_Z
from hypzeta.length_spectrum import enumerate_spectrum
from hypzeta.scattering import builtin_model, modular_model, phi_leading_at_zero, trivial_model
from hypzeta.special_functions import log_barnes_gamma2, log_gamma
from hypzeta.surface import Signature, order_R, order_Z
from hypzeta.verify import (
    COMPACT_R_ORDERS,
    COMPACT_Z_ORDERS,
    IDENTITY_GRID,
    MODULAR_R_ORDERS,
    MODULAR_Z_ORDERS,
    _gauss_multiplication_defect,
    identity_pairs,
    signature_corpus,
)
from hypzeta.zeta_factors import c0, c1, kappa, ruelle_fe_rhs, z_ell, z_infty


def announce(number, title, ok):
    line = f"ACCEPTANCE {number:2d} [{title}]: {'PASS' if ok else 'FAIL'}"
    print(line)
    print(line, file=sys.__stdout__)
    assert ok, line


def test_criterion_01_special_function_suite():
    start = time.perf_counter()
    ok = True
    # reflection formula, relative 1e-10, pinned grid
    for i in range(100):
        re = -2.3 + 4.7 * ((i * 37) % 100) / 99.0
        im = -4.0 + 8.0 * ((i * 53) % 100) / 99.0
        s = complex(round(re, 6), round(im, 6))
        if abs(s.imag) < 0.05 and abs(s.real - round(s.real)) < 0.05:
            s += 0.11 + 0.13j
        lhs = cmath.exp(log_gamma(s) + log_gamma(1.0 - s))
        rhs = math.pi / cmath.sin(math.pi * s)
        ok &= abs(lhs - rhs) <= 1e-10 * abs(rhs)
    # multiplication formula for m in {2,3,5,7}
    for m in (2, 3, 5, 7):
        for s in (0.3 + 0.7j, 1.0 + 0j, 2.5 - 1.2j, 0.9 + 3.0j, 1.7 - 0.4j):
            ok &= _gauss_multiplication_defect(s, m) <= 1e-10
    # double-gamma recursion
    for i in range(6):
        for j in range(5):
            s = complex(0.5 + 0.9 * i, -5.0 + 2.5 * j)
            lhs = cmath.exp(log_barnes_gamma2(s))
            rhs = cmath.exp(log_gamma(s)) * cmath.exp(log_barnes_gamma2(s + 1.0))
            ok &= abs(lhs - rhs) <= 1e-10 * abs(lhs)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    announce(1, f"special functions, {elapsed:.2f}s", ok)


def _sine_ratio_log(sig, s):
    total = 0.0 + 0.0j
    for m in sig.orders:
        for k in range(m):
            total += (m - 2 * k - 1) / m * cmath.log(cmath.sin(math.pi * (s + k) / m))
    return total


def test_criterion_02_cone_factor_ratio_identity():
    ok = True
    for sig, _ in identity_pairs():
        for s in CUT_SAFE_POINTS:
            lhs = cmath.exp(z_ell(sig, s).log_value - z_ell(sig, 1.0 - s).log_value)
            rhs = cmath.exp(_sine_ratio_log(sig, s))
            ok &= abs(lhs - rhs) <= 1e-9 * abs(rhs)
    announce(2, "cone-factor ratio identity at pinned points", ok)


def test_criterion_03_archimedean_four_point_identity():
    ok = True
    for sig, _ in identity_pairs():
        chi = float(sig.normalized_area())
        for s in CUT_SAFE_POINTS:
            lhs = cmath.exp(
                z_infty(sig, s + 1.0).log_value - z_infty(sig, s).log_value
                + z_infty(sig, 1.0 - s).log_value - z_infty(sig, -s).log_value
            )
            rhs = cmath.exp(chi * cmath.log(-4.0 * cmath.sin(math.pi * s) ** 2))
            ok &= abs(lhs - rhs) <= 1e-9 * abs(rhs)
    announce(3, "archimedean four-point identity", ok)


def test_criterion_04_ruelle_functional_equation_consistency():
    ok = True
    for sig, sc in identity_pairs():
        for s in IDENTITY_GRID:
            lhs = kappa(sig, sc, s + 1.0).value / kappa(sig, sc, s).value
            rhs = ruelle_fe_rhs(sig, sc, s)
            ok &= abs(lhs - rhs) <= 1e-9 * abs(rhs)
    announce(4, "Ruelle functional-equation consistency", ok)


def test_criterion_05_kappa_involution():
    ok = True
    for sig, sc in identity_pairs():
        for s in IDENTITY_GRID:
            value = kappa(sig, sc, s).value * kappa(sig, sc, 1.0 - s).value
            ok &= abs(value - 1.0) <= 1e-9
    announce(5, "kappa(s) kappa(1-s) = 1", ok)


def test_criterion_06_modular_reproduction():
    model = modular_model()
    ok = abs(model.phi(0.5) + 1.0) <= 1e-10
    n0, coeff = phi_leading_at_zero(model)
    ok &= n0 == 1
    ok &= abs(coeff + math.pi / 3.0) <= 1e-9
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli_run(["ruelle-leading", "--signature", "0,1,2:3", "--json"])
    ok &= code == 0
    report = json.loads(buffer.getvalue())
    results = {item["name"]: item["value"] for item in report["results"]}
    ok &= results["order"] == -2
    ok &= abs(results["coefficient"] - 9.0 / math.pi ** 2) <= 1e-10
    announce(6, "modular reproduction, signed", ok)


def test_criterion_07_order_tables():
    start = time.perf_counter()
    modular = Signature(0, 1, (2, 3))
    compact = Signature(2, 0)
    ok = all(order_Z(modular, 1, p) == v for p, v in MODULAR_Z_ORDERS.items())
    ok &= all(order_R(modular, 1, p) == v for p, v in MODULAR_R_ORDERS.items())
    ok &= all(order_Z(compact, 0, p) == v for p, v in COMPACT_Z_ORDERS.items())
    ok &= all(order_R(compact, 0, p) == v for p, v in COMPACT_R_ORDERS.items())
    ok &= order_Z(modular, 1, -1) == 1  # s_1 = 1
    ok &= order_R(modular, 1, -6) == -2  # o_6 = -2
    corpus = signature_corpus(30)
    ok &= len(corpus) == 30
    for sig in corpus:
        for k in range(1, 51):
            ok &= order_Z(sig, 0, -k) >= 0
        for k in range(2, 51):
            o_k = order_R(sig, 0, -k)
            ok &= o_k % 2 == 0 and o_k >= -4
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    announce(7, f"order tables, {elapsed:.3f}s", ok)


def test_criterion_08_length_spectrum():
    # exhaustive word oracle for multiplicities up to trace 12
    oracle = {}
    for ell in range(2, 12):
        for bits in itertools.product("LR", repeat=ell):
            word = "".join(bits)
            if not is_primitive(word):
                continue
            canon = canonical_rotation(word)
            if canon in oracle:
                continue
            trace = trace_of_word(canon)
            if trace <= 12:
                oracle[canon] = trace
    counts = {}
    for trace in oracle.values():
        counts[trace] = counts.get(trace, 0) + 1
    spectrum = enumerate_spectrum(12)
    ok = all(spectrum.mult(t) == counts.get(t, 0) for t in range(3, 13))
    ok &= abs(spectrum.columns[3, 0] - 2.0 * math.acosh(1.5)) <= 1e-12
    # necklace counts against the divisor-sum formula via exhaustive listing
    for ell in range(2, 13):
        seen = set()
        for bits in itertools.product("LR", repeat=ell):
            word = "".join(bits)
            if is_primitive(word):
                seen.add(canonical_rotation(word))
        ok &= necklace_count(ell) == len(seen)
    start = time.perf_counter()
    big = enumerate_spectrum(200)
    elapsed = time.perf_counter() - start
    ok &= big.class_count > 1000 and elapsed < 60.0
    announce(8, f"length spectrum, trace<=200 in {elapsed:.2f}s", ok)


def test_criterion_09_euler_product():
    start = time.perf_counter()
    spectrum = enumerate_spectrum(40)
    z = selberg_Z(spectrum, 2.0)
    # Mercator triple-sum oracle at 1e-12 inner tail
    total = 0.0
    for shell in spectrum.shells:
        for k in range(0, 300):
            x = math.exp(-(2.0 + k) * shell.length)
            if x < 1e-18:
                break
            xm, inner = x, 0.0
            for m in range(1, 500):
                inner += xm / m
                xm *= x
                if xm < 1e-18:
                    break
            total -= shell.count * inner
    oracle = math.exp(total)
    ok = abs(z.value - oracle) <= 1e-8
    quotient = ruelle_R(spectrum, 2.0, method="quotient")
    direct = ruelle_R(spectrum, 2.0, method="direct")
    ok &= abs(quotient.value - direct.value) <= (
        quotient.abs_error_estimate + direct.abs_error_estimate
    )
    spectra = [enumerate_spectrum(t) for t in (30, 40, 55)]
    for re in (1.5, 2.0, 3.0):
        for im in (0.0, 1.0, 5.0):
            s = complex(re, im)
            estimates = [selberg_Z(sp, s).abs_error_estimate for sp in spectra]
            ok &= estimates[0] > estimates[1] > estimates[2]
            q = ruelle_R(spectra[1], s, method="quotient")
            d = ruelle_R(spectra[1], s, method="direct")
            ok &= abs(q.value - d.value) <= q.abs_error_estimate + d.abs_error_estimate
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    announce(9, f"Euler product, {elapsed:.2f}s", ok)


def test_criterion_10_constants():
    ok = True
    for sig, sc in [(Signature(0, 1, (2, 3)), modular_model()),
                    (Signature(2, 0), trivial_model())]:
        relation = -c1(sig, sc) * (2.0 * math.pi) ** (2 - 2 * sig.g - sig.n) * sc.phi_tilde_0
        for m in sig.orders:
            relation /= m
        ok &= abs(c0(sig, sc) - relation) <= 1e-10 * abs(relation)
    for label in ("modular", "trivial"):
        ok &= builtin_model(label).A % 2 == 0
    announce(10, "constants c0/c1 and A", ok)
