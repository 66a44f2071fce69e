"""Generating-series engine: hand anchors, oracle cross-checks, float twins."""

from fractions import Fraction

import pytest

from iselab import genfun
from iselab.families import BINARY, COMPLETE_BINARY, PLANE_0PM1, PLANE_PM1
from iselab.genfun import (
    MAX_EXACT_ORDER,
    PROFILE_MAX_EXACT_ORDER,
    exact_moment,
    f_series,
    float_moment,
    fourier_second_moment,
    horizontal_partial_F,
    lemma_L3_ratio,
    moment_table,
    partial_F,
    power_product_series,
    profile_correlation_series,
)
from iselab.partitions import positive_partitions
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
        tab = moment_table(BINARY, (2,), (2, 3, 4))
        assert tab.family is BINARY
        assert tab.partition == (2,)
        assert [r[0] for r in tab.rows] == [2, 3, 4]
        assert tab.rows[0][1] == 1
        assert tab.rows[1][1] == Fraction(14, 5)

    def test_moment_table_builds_engine_once_in_typed_order(self, monkeypatch):
        built = []
        real_ops = genfun._ExactOps

        def counting_ops(family, order):
            built.append(order)
            return real_ops(family, order)

        monkeypatch.setattr(genfun, "_ENGINES", {})
        monkeypatch.setattr(genfun, "_ExactOps", counting_ops)
        sizes = (3, 12, 5)
        tab = moment_table(PLANE_PM1, (2,), sizes)
        assert built == [12]
        assert [r[0] for r in tab.rows] == list(sizes)
        assert [r[1] for r in tab.rows] == [
            exact_moment(PLANE_PM1, (2,), n).exact for n in sizes
        ]


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
        n = family.size_of_index(30)
        assert top.at_one() == family.count(n) * family.node_count(n) ** 2

    def test_max_order_guard(self):
        with pytest.raises(ValueError, match="MAX_EXACT_ORDER"):
            profile_correlation_series(BINARY, MAX_EXACT_ORDER + 1)

    def test_profile_order_guard_below_engine_cap(self):
        assert PROFILE_MAX_EXACT_ORDER == 512 < MAX_EXACT_ORDER
        with pytest.raises(ValueError, match="PROFILE_MAX_EXACT_ORDER=512"):
            profile_correlation_series(BINARY, PROFILE_MAX_EXACT_ORDER + 1)


class TestOrderGuard:
    def test_engine_refuses_above_cap(self):
        assert MAX_EXACT_ORDER == 1024
        with pytest.raises(ValueError, match="MAX_EXACT_ORDER=1024"):
            partial_F(BINARY, (2,), MAX_EXACT_ORDER + 1)
        with pytest.raises(ValueError, match="MAX_EXACT_ORDER=1024"):
            exact_moment(BINARY, (2,), MAX_EXACT_ORDER + 1)
