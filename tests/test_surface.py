"""Signature, area, constants, and order-table tests."""

import math
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypzeta.errors import DomainError, MismatchError
from hypzeta.scattering import modular_model, trivial_model
from hypzeta.special_functions import ZETA_PRIME_MINUS_ONE
from hypzeta.surface import (
    Signature,
    area,
    constants,
    geometric_constants,
    order_R,
    order_Z,
    parse_signature,
)

MODULAR = Signature(0, 1, (2, 3))
COMPACT = Signature(2, 0)


@st.composite
def signatures(draw):
    g = draw(st.integers(0, 4))
    n = draw(st.integers(0, 4))
    orders = tuple(draw(st.lists(st.integers(2, 9), max_size=4)))
    total = Fraction(2 * g - 2 + n) + sum(1 - Fraction(1, m) for m in orders)
    if total <= 0:
        return draw(st.just(None))
    return Signature(g, n, orders)


class TestSignature:
    def test_modular_area(self):
        assert abs(area(MODULAR) - math.pi / 3.0) < 1e-15

    def test_compact_area(self):
        assert abs(area(COMPACT) - 4.0 * math.pi) < 1e-15

    def test_thrice_punctured_sphere(self):
        assert abs(area(Signature(0, 3)) - 2.0 * math.pi) < 1e-15

    @pytest.mark.parametrize(
        "g,n,orders",
        [(0, 0, ()), (0, 1, ()), (0, 2, ()), (0, 1, (2, 2)), (0, 0, (2, 3)), (1, 0, ())],
    )
    def test_non_positive_area_rejected(self, g, n, orders):
        with pytest.raises(ValueError):
            Signature(g, n, orders)

    def test_bad_cone_order_rejected(self):
        with pytest.raises(ValueError):
            Signature(1, 1, (1,))

    @pytest.mark.parametrize("g,n,orders", [
        (0.5, 1, (2, 3)), (0, 1, (2.5, 3)), (0, 1, (3.0, 2)), (0, 1, ("2", 3)),
        (0, 1.0, (2, 3)), ("1", 1, ()),
    ])
    def test_non_integral_entries_rejected(self, g, n, orders):
        with pytest.raises(TypeError):
            Signature(g, n, orders)

    def test_numpy_integers_stored_as_int(self):
        sig = Signature(np.int64(0), np.int64(1), (np.int64(2), np.int64(3)))
        assert sig == MODULAR
        assert all(type(x) is int for x in (sig.g, sig.n, *sig.orders))

    def test_parse_round_trip(self):
        sig = parse_signature("0,1,2:3")
        assert sig == MODULAR
        for sig in (MODULAR, COMPACT, Signature(1, 2, (2, 3, 7))):
            text = f"{sig.g},{sig.n}," + ":".join(str(m) for m in sig.orders)
            assert parse_signature(text) == sig
        assert parse_signature("2,0,") == COMPACT

    @pytest.mark.parametrize("text", ["", "1,2", "a,b,c", "0,1,2:x", "1,1"])
    def test_parse_rejections(self, text):
        with pytest.raises(ValueError):
            parse_signature(text)


class TestConstants:
    def test_modular(self):
        c = constants(MODULAR, modular_model())
        assert [f.name for f in fields(c)] == ["B", "C", "D", "log_E"]
        assert abs(c.B + 1.0 / 6.0) < 1e-15
        assert abs(c.C + math.log(2.0)) < 1e-15

    def test_compact(self):
        c = constants(COMPACT, trivial_model())
        assert c.C == 0.0
        expected_d = -2.0 * (0.5 * math.log(2.0 * math.pi) - 2.0 * ZETA_PRIME_MINUS_ONE)
        assert abs(c.D - expected_d) < 1e-14

    def test_cusp_free_log_e_reduces_to_area_term(self):
        # no cusps, no cone points: log E = (area/2pi)(2 zeta'(-1) - 1/4)
        c = constants(COMPACT, trivial_model())
        assert abs(c.log_E - 2.0 * (2.0 * ZETA_PRIME_MINUS_ONE - 0.25)) < 1e-15

    def test_geometric_constants_are_the_model_free_part(self):
        for sig, model in ((MODULAR, modular_model()), (COMPACT, trivial_model())):
            c = constants(sig, model)
            assert geometric_constants(sig) == (c.B, c.C) == (
                -float(sig.normalized_area()), -sig.n * math.log(2.0))
        # no bundled model has two cusps; the geometric part needs none
        two_cusps = Signature(0, 2, (2, 2))
        assert geometric_constants(two_cusps) == (-1.0, -2.0 * math.log(2.0))
        assert area(two_cusps) == 2.0 * math.pi

    def test_cusp_count_mismatch(self):
        with pytest.raises(MismatchError):
            constants(MODULAR, trivial_model())
        with pytest.raises(MismatchError):
            constants(COMPACT, modular_model())


MODULAR_Z = {
    1: 1, 0: -1,
    -0.5: -1, -1.5: -1, -2.5: -1, -3.5: -1, -4.5: -1,
    -1: 1, -2: 1, -3: 1, -4: 1, -5: 3, -6: 1, -7: 3, -8: 3, -9: 3, -10: 3,
}
MODULAR_R = {
    2: 0, 1: 1, 0: -2, -1: 2, -2: 0, -3: 0, -4: 0, -5: 2,
    -6: -2, -7: 2, -8: 0, -9: 0, -10: 0,
}
COMPACT_Z = {
    1: 1, 0: 3,
    -0.5: 0, -1.5: 0, -2.5: 0, -3.5: 0, -4.5: 0,
    -1: 6, -2: 10, -3: 14, -4: 18, -5: 22, -6: 26, -7: 30, -8: 34, -9: 38, -10: 42,
}
COMPACT_R = {
    2: 0, 1: 1, 0: 2, -1: 3, -2: 4, -3: 4, -4: 4, -5: 4,
    -6: 4, -7: 4, -8: 4, -9: 4, -10: 4,
}


class TestOrders:
    @pytest.mark.parametrize("point,expected", sorted(MODULAR_Z.items()))
    def test_modular_Z(self, point, expected):
        assert order_Z(MODULAR, 1, point) == expected

    @pytest.mark.parametrize("point,expected", sorted(MODULAR_R.items()))
    def test_modular_R(self, point, expected):
        assert order_R(MODULAR, 1, point) == expected

    @pytest.mark.parametrize("point,expected", sorted(COMPACT_Z.items()))
    def test_compact_Z(self, point, expected):
        assert order_Z(COMPACT, 0, point) == expected

    @pytest.mark.parametrize("point,expected", sorted(COMPACT_R.items()))
    def test_compact_R(self, point, expected):
        assert order_R(COMPACT, 0, point) == expected

    def test_regular_above_one(self):
        assert order_Z(MODULAR, 1, 2) == 0
        assert order_Z(MODULAR, 1, 7) == 0
        assert order_R(MODULAR, 1, 5) == 0

    def test_uncovered_points_rejected(self):
        with pytest.raises(DomainError):
            order_Z(MODULAR, 1, 1.5)
        with pytest.raises(DomainError):
            order_Z(MODULAR, 1, 0.3)

    @pytest.mark.parametrize("point", [0.5, -1.5, 2.7, 0.3, -2.001])
    def test_R_refuses_non_integers(self, point):
        # truncated once: 0.5, -1.5 and 2.7 read the orders at 0, -1 and 2
        with pytest.raises(DomainError, match="only defined at integers"):
            order_R(MODULAR, 1, point)

    @pytest.mark.parametrize("order", [order_Z, order_R])
    @pytest.mark.parametrize("point", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_refused(self, order, point):
        with pytest.raises(DomainError, match="finite"):
            order(MODULAR, 1, point)

    @pytest.mark.parametrize("order, n0, point", [
        (order_Z, math.nan, 0), (order_Z, 1.0, 0), (order_Z, "1", -1),
        (order_R, 1.5, -1), (order_R, math.inf, 0), (order_R, 1.0, 2),
    ])
    def test_non_integral_n0_refused(self, order, n0, point):
        with pytest.raises(TypeError):
            order(MODULAR, n0, point)

    def test_R_takes_integral_floats(self):
        for point in range(-10, 4):
            assert order_R(MODULAR, 1, float(point)) == order_R(MODULAR, 1, point)

    @pytest.mark.parametrize("k", [2**60 + j for j in range(6)] + [int(1e308)],
                             ids=[f"2^60+{j}" for j in range(6)] + ["int(1e308)"])
    def test_exact_at_any_size(self, k):
        # below -1 the order of R at -k depends on k mod 6 alone; k is read
        # exactly, as ints past 2^53 are not doubles and 2 * 1e308 is past their range
        assert order_R(MODULAR, 1, -k) == order_R(MODULAR, 1, -(k % 6) - 6)
        assert order_R(MODULAR, 1, k) == order_R(MODULAR, 1, float(k)) == 0

    @given(signatures())
    @settings(max_examples=150, deadline=None)
    def test_Z_orders_nonnegative_at_negative_integers(self, sig):
        if sig is None:
            return
        for k in range(1, 51):
            assert order_Z(sig, 0, -k) >= 0

    @given(signatures(), st.integers(-2, 2))
    @settings(max_examples=150, deadline=None)
    def test_R_orders_even_and_bounded(self, sig, n0):
        if sig is None:
            return
        lower = 2 * (2 * sig.g - 2 + sig.n)
        assert lower >= -4
        for k in range(2, 51):
            o_k = order_R(sig, n0, -k)
            assert o_k % 2 == 0
            assert o_k >= lower >= -4

    @given(signatures(), st.integers(-2, 2))
    @settings(max_examples=150, deadline=None)
    def test_R_is_difference_of_Z_orders(self, sig, n0):
        if sig is None:
            return
        for k in range(2, 51):
            assert order_R(sig, n0, -k) == order_Z(sig, n0, -k) - order_Z(sig, n0, -k + 1)

    def test_R_at_minus_one_uses_n0(self):
        # order at -1 equals order_Z(-1) - order_Z(0), which brings n0 in
        for sig, n0 in [(MODULAR, 1), (COMPACT, 0), (Signature(1, 1, (2,)), 1)]:
            assert order_R(sig, n0, -1) == order_Z(sig, n0, -1) - order_Z(sig, n0, 0)
