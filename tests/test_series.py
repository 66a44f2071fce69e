"""Series algebra: exact power series, float series, Laurent, bivariate."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iselab.series import (
    BivariateSeries,
    FloatSeries,
    LaurentPoly,
    PowerSeries,
    sqrt_one_minus,
    sqrt_one_minus_4t,
)

fractions = st.fractions(
    min_value=-8, max_value=8, max_denominator=6
)
ints = st.integers(min_value=-(2**70), max_value=2**70)
coeff_lists = st.lists(fractions, min_size=1, max_size=8)
int_lists = st.lists(ints, min_size=1, max_size=8)
mixed_lists = st.lists(st.one_of(ints, fractions), min_size=1, max_size=8)


def ps(coeffs, order=7):
    return PowerSeries(list(coeffs) + [0] * (order + 1 - len(coeffs)), order=order)


def padded(coeffs, order=7):
    return [Fraction(c) for c in coeffs] + [Fraction(0)] * (order + 1 - len(coeffs))


def naive_mul(xs, ys, order=7):
    """Reference Cauchy product: a Fraction double loop."""
    a, b = padded(xs, order), padded(ys, order)
    out = [Fraction(0)] * (order + 1)
    for i in range(order + 1):
        for j in range(order + 1 - i):
            out[i + j] += a[i] * b[j]
    return out


def naive_div(xs, ys, order=7):
    """Reference quotient for a nonzero constant term: a Fraction double loop."""
    a, b = padded(xs, order), padded(ys, order)
    q = []
    for i in range(order + 1):
        acc = a[i]
        for j in range(1, i + 1):
            acc -= b[j] * q[i - j]
        q.append(acc / b[0])
    return q


def types(s):
    return {type(c) for c in s.coeffs}


class TestPowerSeries:
    def test_constructors(self):
        z = PowerSeries.zero(4)
        assert z.is_zero()
        one = PowerSeries.one(4)
        assert one.coeff(0) == 1 and one.coeff(3) == 0
        m = PowerSeries.monomial(Fraction(3, 2), 2, 5)
        assert m.coeff(2) == Fraction(3, 2) and m.coeff(1) == 0

    def test_coeff_out_of_range(self):
        with pytest.raises(IndexError):
            PowerSeries.one(3).coeff(4)

    def test_mul_matches_cauchy(self):
        a = ps([1, 2, 3])
        b = ps([0, 1, 1])
        c = a * b
        assert [c.coeff(k) for k in range(5)] == [0, 1, 3, 5, 3]

    def test_scalar_mul_both_sides(self):
        a = ps([1, 2])
        assert (2 * a).coeff(1) == 4
        assert (a * Fraction(1, 2)).coeff(0) == Fraction(1, 2)

    def test_division_roundtrip(self):
        a = ps([1, 5, 7, 2])
        b = ps([2, 1, 3])
        assert ((a * b) / b) == a

    def test_division_valuation_shift(self):
        # dividing by t*(1+t) drops the order by the divisor valuation
        num = ps([0, 1, 1], order=5)  # t + t^2 = t(1+t)
        den = ps([0, 1, 1], order=5)
        q = num / den
        assert q.order == 4
        assert q.coeff(0) == 1 and q.coeff(1) == 0

    def test_division_requires_valuation(self):
        with pytest.raises(ArithmeticError):
            ps([1, 1]) / ps([0, 1])

    def test_t_ddt(self):
        a = ps([5, 1, 4])
        d = a.t_ddt()
        assert [d.coeff(k) for k in range(3)] == [0, 1, 8]

    def test_shift(self):
        a = ps([1, 2], order=4)
        s = a.shift(2)
        assert s.coeff(2) == 1 and s.coeff(3) == 2 and s.coeff(0) == 0

    def test_truncate_cannot_extend(self):
        a = ps([1, 2], order=3)
        assert a.truncate(2).order == 2
        with pytest.raises(ValueError):
            a.truncate(5)

    def test_sqrt_one_minus(self):
        s = sqrt_one_minus(4, 6)
        assert (s * s).coeff(0) == 1
        assert (s * s).coeff(1) == -4
        assert all((s * s).coeff(k) == 0 for k in range(2, 7))
        assert sqrt_one_minus_4t(6) == s

    @pytest.mark.parametrize("c", [4, 8, 12])
    def test_sqrt_one_minus_integer_coefficients(self, c):
        s = sqrt_one_minus(c, 40)
        assert types(s) == {int}
        assert s * s == PowerSeries([1, -c], order=40)

    def test_sqrt_one_minus_rational_base(self):
        s = sqrt_one_minus(2, 6)
        assert s.coeff(1) == -1 and s.coeff(2) == Fraction(-1, 2)
        assert s * s == PowerSeries([1, -2], order=6)

    @given(int_lists, int_lists)
    @settings(max_examples=60, deadline=None)
    def test_int_inputs_give_int_coefficients(self, xs, ys):
        a, b = ps(xs), ps(ys)
        unit = ps([1] + ys[1:])
        for s in (a * b, a + b, a - b, -a, a * 3, a.t_ddt(), a.shift(2), a / unit, a / -unit):
            assert types(s) == {int}

    @given(mixed_lists, mixed_lists)
    @settings(max_examples=80, deadline=None)
    def test_mul_matches_naive_fraction_loop(self, xs, ys):
        assert list((ps(xs) * ps(ys)).coeffs) == naive_mul(xs, ys)

    @given(mixed_lists, mixed_lists)
    @settings(max_examples=80, deadline=None)
    def test_div_matches_naive_fraction_loop(self, xs, ys):
        if not ys[0]:
            ys = [1] + ys[1:]
        assert list((ps(xs) / ps(ys)).coeffs) == naive_div(xs, ys)

    def test_division_by_non_unit_constant_term_is_exact(self):
        a = ps([1, 1, 1])
        b = ps([2, 1])
        q = a / b
        assert types(q) == {Fraction}
        assert [q.coeff(k) for k in range(3)] == [Fraction(1, 2), Fraction(1, 4), Fraction(3, 8)]
        assert q * b == a

    def test_scalar_division_returns_fractions(self):
        a = ps([2, 4, 6])
        for c, want in [(2, [1, 2, 3]), (Fraction(2, 3), [3, 6, 9]), (3, [Fraction(2, 3), Fraction(4, 3), 2])]:
            q = a / c
            assert types(q) == {Fraction}
            assert [q.coeff(k) for k in range(3)] == want
        with pytest.raises(ZeroDivisionError):
            a / 0

    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError):
            PowerSeries([1, 0.5])
        with pytest.raises(TypeError):
            PowerSeries.monomial(0.5, 1, 3)
        with pytest.raises(TypeError):
            ps([1, 2]) * 0.5
        with pytest.raises(TypeError):
            ps([1, 2]) / 0.5
        with pytest.raises(TypeError):
            sqrt_one_minus(4.0, 3)

    def test_coeffs_immutable(self):
        a = ps([1, 2]) * ps([3, 4])
        assert isinstance(a.coeffs, tuple)

    @given(coeff_lists, coeff_lists, coeff_lists)
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, xs, ys, zs):
        a, b, c = ps(xs), ps(ys), ps(zs)
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert a + b == b + a
        assert a - a == PowerSeries.zero(a.order)

    @given(coeff_lists)
    @settings(max_examples=40, deadline=None)
    def test_t_ddt_is_derivation_on_products(self, xs):
        a = ps(xs)
        b = ps([1, 1, 2])
        lhs = (a * b).t_ddt()
        rhs = a.t_ddt() * b + a * b.t_ddt()
        assert lhs == rhs


class TestFloatSeries:
    def test_from_exact_and_ops(self):
        a = FloatSeries(np.array([1.0, 2.0, 3.0]))
        b = FloatSeries(np.array([0.0, 1.0, 1.0]))
        c = a * b
        assert c.coeff(2) == pytest.approx(3.0)
        assert (a + b).coeff(1) == pytest.approx(3.0)
        assert (a - b).coeff(2) == pytest.approx(2.0)

    def test_division(self):
        a = FloatSeries(np.array([1.0, 4.0, 1.0, 0.5]))
        b = FloatSeries(np.array([2.0, 1.0, 0.0, 0.0]))
        q = (a * b) / b
        for k in range(4):
            assert q.coeff(k) == pytest.approx(a.coeff(k), abs=1e-14)

    def test_shift_and_t_ddt(self):
        a = FloatSeries(np.array([1.0, 2.0, 0.0]))
        assert a.shift(1).coeff(1) == 1.0
        assert a.t_ddt().coeff(1) == 2.0

    def test_write_locked(self):
        a = FloatSeries(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            a.coeffs[0] = 5.0


class TestLaurentPoly:
    def test_basic_algebra(self):
        x = LaurentPoly.x_power(1)
        xinv = LaurentPoly.x_power(-1)
        s = x + xinv
        assert s.coeff(1) == 1 and s.coeff(-1) == 1 and s.coeff(0) == 0
        sq = s * s
        assert sq.coeff(0) == 2 and sq.coeff(2) == 1 and sq.coeff(-2) == 1

    def test_at_one_and_palindromic(self):
        p = LaurentPoly([1, 4, 1], lo=-1)
        assert p.at_one() == 6
        assert p.is_palindromic()
        assert not LaurentPoly([1, 2], lo=0).is_palindromic()

    def test_eval_unit_circle(self):
        p = LaurentPoly([1, 0, 1], lo=-1)  # x + 1/x
        val = p.eval_unit_circle(0.5)
        assert val.real == pytest.approx(2 * np.cos(0.5))
        assert val.imag == pytest.approx(0.0, abs=1e-15)

    def test_divide_monomial(self):
        p = LaurentPoly([2, 4], lo=1)
        q = p.divide_monomial(2, 1)
        assert q.coeff(0) == 1 and q.coeff(1) == 2

    def test_divide_monomial_by_unit_stays_int(self):
        p = LaurentPoly([3, -5, 7], lo=-1)
        for c in (1, -1):
            q = p.divide_monomial(c, 2)
            assert all(type(a) is int for a in q.coeffs)
            assert q == LaurentPoly([Fraction(a) / c for a in p.coeffs], lo=-3)
        half = LaurentPoly([1, Fraction(1, 2)]).divide_monomial(-1, 0)
        assert half == LaurentPoly([-1, Fraction(-1, 2)])
        assert all(type(a) is Fraction for a in p.divide_monomial(3, 0).coeffs)

    def test_monomial_term_detection(self):
        assert LaurentPoly([5], lo=3).monomial_term() == (5, 3)
        assert LaurentPoly([1, 1], lo=0).monomial_term() is None


class TestBivariateSeries:
    def test_round_trip_and_product(self):
        one = LaurentPoly([1], lo=0)
        s = LaurentPoly([1, 0, 1], lo=-1)
        a = BivariateSeries((one, s), order=1)
        b = a * a
        assert b.coeff(0) == one
        assert b.coeff(1) == s + s

    def test_division_by_unit(self):
        one = LaurentPoly([1], lo=0)
        s = LaurentPoly([1, 0, 1], lo=-1)
        a = BivariateSeries((one, s, s * s), order=2)
        d = BivariateSeries((one, s), order=2)
        q = (a * d) / d
        assert q.coeff(0) == a.coeff(0)
        assert q.coeff(1) == a.coeff(1)
        assert q.coeff(2) == a.coeff(2)

    def test_division_requires_monomial_lead(self):
        s = LaurentPoly([1, 0, 1], lo=-1)
        a = BivariateSeries((s,), order=0)
        with pytest.raises(ArithmeticError):
            a / BivariateSeries((s,), order=0)

    def test_t_shift(self):
        one = LaurentPoly([1], lo=0)
        s = LaurentPoly([1, 0, 1], lo=-1)
        a = BivariateSeries((one, s), order=1)
        shifted = a.shift(1)
        assert shifted.order == 1
        assert shifted.coeff(0).is_zero()
        assert shifted.coeff(1) == one
