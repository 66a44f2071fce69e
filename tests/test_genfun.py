"""Generating-series engine: hand anchors, oracle cross-checks, float twins."""

import math
from fractions import Fraction

import pytest

from iselab import genfun
from iselab.families import BINARY, COMPLETE_BINARY, FAMILIES, PLANE_0PM1, PLANE_PM1
from iselab.genfun import (
    PROFILE_MAX_EXACT_ORDER,
    exact_moment,
    f_series,
    float_moment,
    fourier_second_moment,
    horizontal_partial_F,
    lemma_L3_ratio,
    partial_F,
    power_product_series,
    profile_correlation_series,
)
from iselab.grandmoments import c_lambda, d_lambda
from iselab.numerics import ToleranceError
from iselab.partitions import positive_partitions, weight
from iselab.series import LaurentPoly
from iselab.trees import enumerate_trees, oracle_power_product_totals


class TestBaseSeries:
    def test_counting_coefficients(self):
        s = f_series(BINARY, 5)
        assert [s.coeff(k) for k in range(6)] == [1, 1, 2, 5, 14, 42]
        assert [f_series(PLANE_PM1, 3).coeff(k) for k in range(4)] == [1, 2, 8, 40]
        assert [f_series(PLANE_0PM1, 2).coeff(k) for k in range(3)] == [1, 3, 18]

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            f_series(BINARY, -1)
        with pytest.raises(ValueError):
            partial_F(BINARY, (2,), -1)
        with pytest.raises(ValueError):
            power_product_series(BINARY, (2,), -2)


class TestFactorialAnchors:
    def test_odd_weight_vanishes(self):
        # Power-basis series of odd total weight vanish by label sign
        # symmetry; fall(l, 1) = l so the first factorial column does too.
        assert partial_F(BINARY, (1,), 6).is_zero()
        assert power_product_series(PLANE_PM1, (3,), 5).is_zero()
        assert power_product_series(PLANE_0PM1, (1, 2), 5).is_zero()

    def test_factorial_column_mixes_parities(self):
        # fall(l, 3) = l^3 - 3l^2 + 2l keeps an even part, so the odd
        # factorial column is -3 times the quadratic power column.
        fac = partial_F(PLANE_PM1, (3,), 5)
        quad = power_product_series(PLANE_PM1, (2,), 5)
        assert fac == quad * -3

    def test_binary_quadratic_column(self):
        s = partial_F(BINARY, (2,), 4)
        assert [s.coeff(k) for k in range(5)] == [0, 0, 2, 14, 74]

    def test_horizontal_first_column(self):
        s = horizontal_partial_F((1,), 3)
        assert s.coeff(2) == 2
        assert s.coeff(3) == 14

    def test_horizontal_second_factorial_column(self):
        # Falling-power sums of depths: 2 per path of length >= 2, so the
        # five shapes at t^3 holding four such paths give 8.
        assert horizontal_partial_F((2,), 3).coeff(3) == 8


CASES = [
    (BINARY, (2, 3)),
    (PLANE_PM1, (1, 2)),
    (PLANE_0PM1, (1, 2)),
    (COMPLETE_BINARY, (3, 5)),
]


class TestOracleAgreement:
    @pytest.mark.parametrize("family,sizes", CASES)
    def test_power_product_totals(self, family, sizes):
        lams = tuple(positive_partitions(4, 2))
        for n in sizes:
            totals, count = oracle_power_product_totals(family, n, lams)
            idx = family.series_index(n)
            assert count == family.count(n)
            for lam in lams:
                assert power_product_series(family, lam, idx).coeff(idx) == totals[lam]

    @pytest.mark.parametrize(
        "lam",
        [(0,), (1,), (2,), (3,), (0, 1), (1, 1), (1, 2), (0, 0, 2)],
        ids=str,
    )
    def test_horizontal_partial_F_matches_depth_enumeration(self, lam):
        order = 9
        series = horizontal_partial_F(lam, order)
        for n in range(1, order + 1):
            total = 0
            for tree in enumerate_trees(BINARY, n):
                depths = [int(d) for d in tree.depth]
                term = 1
                for k in lam:
                    term *= sum(math.perm(d, k) for d in depths)
                total += term
            assert series.coeff(n) == total

    @pytest.mark.parametrize("family,sizes", CASES)
    def test_pair_correlation_polynomial(self, family, sizes):
        for n in sizes:
            idx = family.series_index(n)
            got = profile_correlation_series(family, idx).coeff(idx)
            want = LaurentPoly.zero()
            for tree in enumerate_trees(family, n):
                for lv in tree.label:
                    for lw in tree.label:
                        want = want + LaurentPoly.x_power(int(lv) - int(lw))
            assert got == want


class TestMoments:
    def test_binary_anchor(self):
        em = exact_moment(BINARY, (2,), 2)
        assert em.exact == 1
        assert type(em.exact) is Fraction
        assert em.normalized == pytest.approx(0.25, abs=1e-15)
        assert exact_moment(BINARY, (2,), 3).exact == Fraction(14, 5)

    def test_plane_pm1_anchor(self):
        em = exact_moment(PLANE_PM1, (2,), 1)
        assert em.exact == 1
        assert em.normalized == pytest.approx(0.5, abs=1e-15)

    def test_complete_anchor(self):
        em = exact_moment(COMPLETE_BINARY, (1, 1), 5)
        assert em.exact == 4
        assert em.normalized == pytest.approx(4 * 5**-2.5, rel=1e-15)

    def test_partition_order_irrelevant(self):
        a = exact_moment(PLANE_0PM1, (1, 2, 1), 3)
        b = exact_moment(PLANE_0PM1, (2, 1, 1), 3)
        assert a == b

    @pytest.mark.parametrize(
        "family,lam,n",
        [
            (BINARY, (2,), 64),
            (BINARY, (2, 2), 32),
            (PLANE_PM1, (1, 1), 16),
            (PLANE_0PM1, (2,), 16),
            (COMPLETE_BINARY, (4,), 33),
        ],
    )
    def test_float_twin_matches_exact(self, family, lam, n):
        want = exact_moment(family, lam, n).normalized
        got = float_moment(family, lam, n)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_moment_table(self):
        # A table of moments over several sizes is one exact_moment per
        # size; rows follow the order the sizes are given in.
        sizes = (2, 3, 4)
        rows = [(n, exact_moment(BINARY, (2,), n).exact) for n in sizes]
        assert [r[0] for r in rows] == [2, 3, 4]
        assert rows[0][1] == 1
        assert rows[1][1] == Fraction(14, 5)


class TestFourier:
    def test_zero_angle_is_square_node_count(self):
        for family, n in [(BINARY, 6), (PLANE_PM1, 4), (PLANE_0PM1, 3), (COMPLETE_BINARY, 7)]:
            nodes = family.node_count(n)
            assert fourier_second_moment(family, n, 0.0) == pytest.approx(
                nodes**2, rel=1e-12
            )
            assert lemma_L3_ratio(family, n, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_ratio_bounded_on_sample_grid(self):
        for u in (0.3, 1.0, 2.4):
            assert 0.0 <= lemma_L3_ratio(BINARY, 20, u) < 20.0

    @pytest.mark.parametrize(
        "family,at_zero,at_three,at_minus_seven",
        [
            (BINARY, 570118457724510880, 245607651289765958, 22831488131227788),
            (COMPLETE_BINARY, 1947689831988295440, 1105145592854153614, 139473678532309154),
        ],
    )
    def test_profile_series_stays_in_integers(
        self, family, at_zero, at_three, at_minus_seven
    ):
        series = profile_correlation_series(family, 30)
        assert all(type(c) is int for poly in series.coeffs for c in poly.coeffs)
        top = series.coeff(30)
        assert (top.coeff(0), top.coeff(3), top.coeff(-7)) == (
            at_zero,
            at_three,
            at_minus_seven,
        )
        n = next(n for n in range(62) if family.valid_size(n) and family.series_index(n) == 30)
        assert sum(top.coeffs) == family.count(n) * family.node_count(n) ** 2

    def test_max_order_guard(self):
        with pytest.raises(ValueError, match="PROFILE_MAX_EXACT_ORDER"):
            fourier_second_moment(BINARY, PROFILE_MAX_EXACT_ORDER + 1, 0.5)

    def test_profile_order_guard_below_engine_cap(self):
        assert PROFILE_MAX_EXACT_ORDER == 512
        with pytest.raises(ValueError, match="PROFILE_MAX_EXACT_ORDER=512"):
            profile_correlation_series(BINARY, PROFILE_MAX_EXACT_ORDER + 1)


def _valid_size(family, n):
    return n if family.valid_size(n) else n + 1


class TestOrderGuard:
    def test_exact_moment_has_no_order_cap(self):
        for n in (1025, 4097):
            em = exact_moment(BINARY, (2,), n)
            assert em.exact > 0
            got = float_moment(BINARY, (2,), n)
            assert abs(got - em.normalized) <= 1e-12 * abs(em.normalized)


def _closed_form(family, lam):
    """The closed-form value t^(-m) P(Z) of a family's power-sum series."""
    return genfun._family_series(family, None, lam, power_basis=True)[1]


# Lead of P at Z^k0 over c_lambda, with p parts of total weight w.
LEAD_FACTORS = {
    BINARY: lambda p, w: 1,
    PLANE_PM1: lambda p, w: Fraction(1, 2 ** (w // 2)),
    PLANE_0PM1: lambda p, w: Fraction(1, 3 ** (w // 2)),
    COMPLETE_BINARY: lambda p, w: 2**p,
}


class TestClosedForm:
    @pytest.mark.parametrize("family", list(FAMILIES.values()), ids=lambda f: f.name)
    def test_lead_coefficients_are_grand_moments(self, family):
        checked = 0
        for lam in positive_partitions(8, 4):
            s = _closed_form(family, lam)
            w, p = weight(lam), len(lam)
            if w % 2:
                # Label sign symmetry: no negative power of Z survives.
                assert s.poly.is_zero() or s.poly.lo >= 0, lam
                continue
            k0 = -(2 * p + w // 2 - 1)
            assert s.poly.lo >= k0, lam
            lead = s.base**s.m * Fraction(s.poly.coeff(k0), s.den)
            assert lead == LEAD_FACTORS[family](p, w) * c_lambda(lam), lam
            checked += 1
        assert checked == 31

    def test_horizontal_leads_are_excursion_moments(self):
        eng = genfun._engine(BINARY, None, genfun._HORIZONTAL_TEMPLATE)
        for lam in positive_partitions(8, 4):
            s = eng.pf(lam)
            k0 = -(2 * len(lam) + weight(lam) - 1)
            assert s.poly.lo >= k0, lam
            assert s.base**s.m * Fraction(s.poly.coeff(k0), s.den) == d_lambda(lam), lam

    @pytest.mark.parametrize("family", list(FAMILIES.values()), ids=lambda f: f.name)
    def test_coefficients_match_series_reference(self, family):
        order = 30
        lams = [(), (0,), (2,), (0, 2), (1, 1), (4,), (2, 2), (0, 0, 2),
                (1, 3), (1, 1, 2), (0, 1, 1), (6,)]
        for lam in lams:
            s = _closed_form(family, lam)
            want = power_product_series(family, lam, order)
            got = [sum(genfun._z_terms(s, i, True), Fraction(0)) * s.base**i
                   for i in range(order + 1)]
            assert got == list(want.coeffs), lam

    @pytest.mark.parametrize("n", [64, 1024, 4096])
    @pytest.mark.parametrize("family", list(FAMILIES.values()), ids=lambda f: f.name)
    def test_float_matches_exact(self, family, n):
        n = _valid_size(family, n)
        for lam in [(2,), (1, 1), (4,), (2, 2), (1, 1, 2)]:
            want = exact_moment(family, lam, n).normalized
            got = float_moment(family, lam, n)
            assert abs(got - want) <= 1e-12 * abs(want), lam

    def test_rounding_bound_refusal(self, monkeypatch):
        monkeypatch.setattr(genfun, "_TERM_EPS", 1e-3)
        with pytest.raises(ToleranceError, match="rounding bound"):
            float_moment(BINARY, (2, 2), 1024)
