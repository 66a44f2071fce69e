"""Limit moment recurrences and closed forms: ladder anchors and identities."""

import math
from fractions import Fraction

import pytest

from iselab.grandmoments import (
    a_coeff,
    a_coeff2,
    abs_moment_ise,
    c_lambda,
    d_lambda,
    density0_moment,
    limit_moment_exc,
    limit_moment_ise,
)
from iselab.partitions import positive_partitions


def _naive_rec(lam, cache, zero_slope, lower_terms):
    """Reference c/d recursion summing over all 2^p index masks."""
    if lam == ():
        return Fraction(-2)
    if lam in cache:
        return cache[lam]
    p = len(lam)
    if lam[0] == 0:
        val = (p + Fraction(sum(lam)) * zero_slope - Fraction(3, 2)) * _naive_rec(
            lam[1:], cache, zero_slope, lower_terms
        )
    else:
        val = Fraction(0)
        for mask in range(1, (1 << p) - 1):
            left = tuple(lam[i] for i in range(p) if mask >> i & 1)
            right = tuple(lam[i] for i in range(p) if not mask >> i & 1)
            val += _naive_rec(left, cache, zero_slope, lower_terms) * _naive_rec(
                right, cache, zero_slope, lower_terms
            )
        val /= 4
        for w, sub in lower_terms(lam):
            val += w * _naive_rec(tuple(sorted(sub)), cache, zero_slope, lower_terms)
    cache[lam] = val
    return val


def _c_lower(lam):
    for i, k in enumerate(lam):
        if k >= 2:
            yield k * (k - 1) // 2, lam[:i] + (k - 2,) + lam[i + 1 :]
    for i in range(len(lam)):
        for j in range(i + 1, len(lam)):
            parts = list(lam)
            parts[i] -= 1
            parts[j] -= 1
            yield lam[i] * lam[j], parts


def _d_lower(lam):
    for i, k in enumerate(lam):
        yield k, lam[:i] + (k - 1,) + lam[i + 1 :]


class TestExactConstants:
    def test_c_single_part_ladder(self):
        assert [c_lambda((2 * k,)) for k in range(1, 5)] == [1, 6, 90, 2520]

    def test_c_multi_part_values(self):
        assert c_lambda((1, 1)) == Fraction(1, 2)
        assert c_lambda((2, 2)) == Fraction(9, 2)
        assert c_lambda((1, 1, 2)) == Fraction(29, 4)

    def test_c_odd_weight_zero(self):
        assert c_lambda((1,)) == 0
        assert c_lambda((1, 2)) == 0

    def test_d_values(self):
        assert d_lambda((1,)) == 1
        assert d_lambda((2,)) == 2
        assert d_lambda((1, 1)) == Fraction(5, 2)

    def test_a_coefficients(self):
        # a_0 = -2 seeds the quadratic recurrence; a_k for k >= 1 equals
        # the all-ones constant c_(1^2k).
        assert a_coeff(0) == -2
        assert a_coeff(1) == Fraction(1, 2)
        assert a_coeff2(1, 1) == Fraction(29, 4)
        assert a_coeff(2) == Fraction(147, 8)

    def test_a_matches_c_on_ones_twos(self):
        for k in range(4):
            for ell in range(4):
                if k + ell == 0:
                    continue
                lam = (1,) * (2 * k) + (2,) * ell
                assert a_coeff2(k, ell) == c_lambda(lam)


class TestSubMultisetRecursion:
    CASES = list(positive_partitions(8, 6)) + [(1,) * 12, (0, 1, 1, 2)]

    def test_c_matches_mask_recursion(self):
        cache: dict = {}
        for lam in self.CASES:
            assert c_lambda(lam) == _naive_rec(lam, cache, Fraction(1, 4), _c_lower)

    def test_d_matches_mask_recursion(self):
        cache: dict = {}
        for lam in self.CASES:
            assert d_lambda(lam) == _naive_rec(lam, cache, Fraction(1, 2), _d_lower)


class TestLimitMoments:
    def test_ise_first_moments(self):
        assert limit_moment_ise((2,)) == pytest.approx(math.sqrt(math.pi / 2), rel=1e-15)
        assert limit_moment_ise((1, 1)) == pytest.approx(
            math.sqrt(math.pi) / (2 * math.sqrt(2)), rel=1e-15
        )

    def test_exc_first_moment(self):
        assert limit_moment_exc((1,)) == pytest.approx(math.sqrt(math.pi / 8), rel=1e-15)

    def test_odd_weight_limits_vanish(self):
        assert limit_moment_ise((1,)) == 0.0
        assert limit_moment_ise((1, 2)) == 0.0

    def test_zero_parts_are_neutral(self):
        for lam in [(2,), (1, 1), (4,), (2, 2)]:
            assert limit_moment_ise((0,) + lam) == pytest.approx(
                limit_moment_ise(lam), rel=1e-15
            )
            assert limit_moment_exc((0,) + lam) == pytest.approx(
                limit_moment_exc(lam), rel=1e-15
            )

    def test_abs_moment_interpolates_even_ladder(self):
        for k in range(1, 5):
            want = limit_moment_ise((2 * k,))
            got = abs_moment_ise(2 * k)
            assert abs(got - want) <= 1e-12 * want

    def test_density0_values(self):
        assert density0_moment(0.0) == pytest.approx(1.0, abs=1e-15)
        # r = 4 gives integer gamma arguments: 2 * Gamma(4)/(81*Gamma(3)).
        assert density0_moment(4.0) == pytest.approx(2.0 / 27.0, rel=1e-14)

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            density0_moment(-2.0)
        with pytest.raises(ValueError):
            abs_moment_ise(-1.0)
