"""Analytic layer: densities, branch tracking, and the contour transform."""

import math

import numpy as np
import pytest

from iselab.grandmoments import density0_moment
from iselab.numerics import (
    DEFAULT_QUADRATURE,
    MGF_A_RADIUS,
    QuadratureConfig,
    ToleranceError,
    contour_point,
    gamma_fn,
    mean_density_quadrature,
    mean_density_series,
    mgf_L,
    mgf_L_with_error,
    solve_A,
)


class TestGammaAndConfig:
    def test_gamma_values(self):
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
        assert gamma_fn(-0.5) == pytest.approx(-2 * math.sqrt(math.pi), rel=1e-15)
        assert gamma_fn(5.0) == 24.0

    def test_gamma_poles(self):
        for z in (0.0, -1.0, -2.0):
            with pytest.raises(ValueError):
                gamma_fn(z)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureConfig(max_subdivisions=5)
        with pytest.raises(ValueError):
            QuadratureConfig(truncation_length=1.0)
        assert DEFAULT_QUADRATURE.abs_tol == 1e-10


class TestMeanDensity:
    def test_value_at_origin(self):
        want = 2.0**-0.75 * math.gamma(0.75) / math.sqrt(math.pi)
        assert mean_density_series(0.0) == pytest.approx(want, rel=1e-12)
        assert mean_density_quadrature(0.0) == pytest.approx(want, rel=1e-10)

    def test_quadrature_matches_series(self):
        for lam in (-2.5, -1.0, -0.25, 0.5, 1.5, 3.0):
            q = mean_density_quadrature(lam)
            s = mean_density_series(lam)
            assert abs(q - s) <= 1e-8 * max(1.0, abs(q))

    def test_even_function(self):
        for lam in (0.7, 1.9):
            assert mean_density_series(lam) == pytest.approx(
                mean_density_series(-lam), rel=1e-13
            )

    def test_series_guard(self):
        with pytest.raises(ValueError):
            mean_density_series(6.5)


class TestBranchTracking:
    def test_small_y_linearization(self):
        # 24 A (1 - A) = y (1 + A)^3 gives A ~ y/24 near 0.
        a = solve_A(1e-6)
        assert a.imag == 0
        assert a.real == pytest.approx(1e-6 / 24.0, rel=1e-4)

    def test_zero(self):
        assert solve_A(0.0) == 0

    def test_residual_everywhere_on_disk(self):
        for r in (0.5, 1.5, 2.2):
            for arg in (0.0, 1.0, 2.5, 4.0):
                y = r * complex(math.cos(arg), math.sin(arg))
                a = solve_A(y)
                assert abs(24 * a * (1 - a) - y * (1 + a) ** 3) <= 1e-10

    def test_real_positive_root_below_branch_point(self):
        # At the branch point y = 4/sqrt(3) the root reaches 2 - sqrt(3).
        a = solve_A(4.0 / math.sqrt(3.0) - 1e-9)
        assert a.imag == pytest.approx(0.0, abs=1e-12)
        assert a.real < 2.0 - math.sqrt(3.0)
        assert a.real == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-3)

    def test_array_matches_scalar_calls(self):
        ys = np.array(
            [r * complex(math.cos(arg), math.sin(arg))
             for r in (0.0, 0.3, 1.5, 2.2) for arg in (0.0, 1.0, 2.5, 4.0)]
        ).reshape(4, 4)
        got = solve_A(ys)
        assert got.shape == ys.shape
        for y, a in zip(ys.ravel(), got.ravel()):
            assert abs(a - solve_A(complex(y))) <= 1e-15

    def test_array_near_branch_point(self):
        ys = np.linspace(-0.999, 0.999, 2001) * MGF_A_RADIUS
        got = solve_A(ys)
        for y, a in zip(ys, got):
            assert abs(a - solve_A(y)) <= 1e-15

    def test_scalar_returns_complex(self):
        for y in (0.5, 1.5 + 0.5j, np.float64(0.5), np.complex128(0.3j)):
            assert type(solve_A(y)) is complex

    def test_contour_point_rays(self):
        up = contour_point(1.0)
        lo = contour_point(-1.0)
        assert up.v == pytest.approx(1.0 + math.sqrt(0.5) * (1 + 1j))
        assert lo.v == pytest.approx(1.0 + math.sqrt(0.5) * (1 - 1j))
        assert up.A_value == 0
        mid = contour_point(0.5, a=1.0)
        assert abs(mid.A_value) > 0


class TestContourTransform:
    def test_unit_at_zero_argument(self):
        for x in (0.0, 0.5, 1.0):
            assert mgf_L(x, 0.0) == 1.0

    def test_slope_at_origin(self):
        # d/da L(0, 2^(-1/4) a) at 0 is the first moment of the density
        # value at the origin.
        h = 1e-4
        scale = 2.0**-0.25
        slope = (mgf_L(0.0, scale * h) - mgf_L(0.0, -scale * h)) / (2 * h)
        assert abs(slope - density0_moment(1.0)) <= 1e-6

    def test_even_in_a_at_positive_x_is_false(self):
        # L is not even in a; the odd part carries the first moment.
        assert mgf_L(0.0, 0.3) != pytest.approx(mgf_L(0.0, -0.3), abs=1e-6)

    def test_monotone_in_a(self):
        vals = [mgf_L(0.5, a) for a in (0.0, 0.4, 0.8, 1.2)]
        assert vals == sorted(vals)

    def test_domain_refusals(self):
        with pytest.raises(ValueError, match="x >= 0"):
            mgf_L(-0.1, 0.5)
        with pytest.raises(ValueError, match="4/sqrt"):
            mgf_L(0.0, MGF_A_RADIUS)
        with pytest.raises(ValueError, match="4/sqrt"):
            mgf_L(0.0, -MGF_A_RADIUS - 0.5)

    def test_radius_value(self):
        assert MGF_A_RADIUS == pytest.approx(4.0 / math.sqrt(3.0), rel=1e-16)


# L(x, f * 4/sqrt(3)) from 30-digit mpmath quadrature of the same contour.
PINNED_L = {
    (0.0, -0.98): 0.380390175761856756,
    (0.0, 0.3): 1.42232488526682395,
    (0.0, 0.98): 3.49500113121325915,
    (1.0, -0.98): 0.680921763557383185,
    (1.0, 0.3): 1.17220478641641206,
    (1.0, 0.98): 1.85304446315168320,
    (2.0, -0.98): 0.927350451114292400,
    (2.0, 0.3): 1.03216620546350706,
    (2.0, 0.98): 1.13696662284279425,
}


@pytest.mark.filterwarnings("error")
class TestContourRule:
    @pytest.mark.parametrize("x, frac", sorted(PINNED_L))
    def test_pinned_values(self, x, frac):
        assert mgf_L(x, frac * MGF_A_RADIUS) == pytest.approx(
            PINNED_L[(x, frac)], rel=1e-12
        )

    @pytest.mark.parametrize("x", (0.0, 0.5, 1.0, 2.05))
    def test_benchmark_domain_accepted(self, x):
        for frac in np.linspace(-0.985, 0.985, 21):
            value, err = mgf_L_with_error(x, frac * MGF_A_RADIUS)
            assert math.isfinite(value) and value > 0
            assert err <= DEFAULT_QUADRATURE.abs_tol
            assert mgf_L(x, frac * MGF_A_RADIUS) == value

    def test_error_at_zero(self):
        assert mgf_L_with_error(0.5, 0.0) == (1.0, 0.0)

    def test_refused_near_branch_radius(self):
        with pytest.raises(ToleranceError, match="gap .* exceeds bound"):
            mgf_L(0.0, 0.995 * MGF_A_RADIUS)

    def test_tolerance_is_honoured(self):
        a = 0.99 * MGF_A_RADIUS
        _, err = mgf_L_with_error(0.0, a)
        assert 0.0 < err <= DEFAULT_QUADRATURE.abs_tol
        tight = QuadratureConfig(abs_tol=err / 2, rel_tol=err / 8)
        with pytest.raises(ToleranceError):
            mgf_L(0.0, a, tight)
