"""Analytic layer: densities, branch tracking, and the contour transform."""

import math

import numpy as np
import pytest

from iselab import numerics
from iselab.grandmoments import density0_moment, limit_moment_ise
from iselab.numerics import (
    DEFAULT_QUADRATURE,
    MGF_A_RADIUS,
    QuadratureConfig,
    ToleranceError,
    contour_point,
    gamma_fn,
    mean_density_quadrature,
    mean_density_quadrature_with_error,
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


# q(lambda) from 50-digit mpmath: Gauss-Legendre and tanh-sinh quadrature in
# y with breakpoints every y0/64 up to 4 y0, y0 = (lambda^2/2)^(1/3), and
# the entire series at 200 digits (900 from 60 on, where tanh-sinh is left
# out) agree to 2e-20 or better; at 0, the closed form
# 2^(-3/4) Gamma(3/4)/sqrt(pi) and the series.  At 100 a fixed upper limit
# s = 4.2 would cut into the peak at s = (lambda/sqrt(2))^(1/3) = 4.13.
PINNED_Q = {
    0.0: 0.41108947933122927617,
    1e-4: 0.4110894750313626626,
    0.01: 0.41104680963748458266,
    0.05: 0.41005545386938267296,
    0.1: 0.4071123469683262956,
    0.5: 0.33898062198987474315,
    1.0: 0.21963779591516989924,
    1.5: 0.12329230125376453492,
    2.0: 0.062455752307475996872,
    4.0: 0.0020588983750499347083,
    6.0: 3.1676230776172227583e-5,
    10.0: 1.6047065881533670189e-9,
    20.0: 7.3592319303103242118e-23,
    30.0: 8.902934705200529062e-39,
    60.0: 8.101809861695475049596e-97,
    100.0: 7.85818434199043172562e-191,
}


@pytest.mark.filterwarnings("error")
class TestDensityRule:
    @pytest.mark.parametrize("lam", sorted(PINNED_Q))
    def test_pinned_values(self, lam):
        for x in (lam, -lam):
            assert mean_density_quadrature(x) == pytest.approx(
                PINNED_Q[lam], rel=1e-12, abs=0.0
            )

    def test_no_refusal_on_sweeps(self):
        # 4001 points over [-10, 10], then 2001 in (0, 0.2], where a single
        # panel cannot resolve the layer near s ~ lambda.
        sweep = np.concatenate([np.linspace(-10.0, 10.0, 4001), np.linspace(0.0, 0.2, 2002)[1:]])
        worst = 0.0
        for lam in sweep:
            value, err = mean_density_quadrature_with_error(lam, DEFAULT_QUADRATURE)
            assert mean_density_quadrature(lam) == value
            worst = max(worst, err)
        assert worst <= DEFAULT_QUADRATURE.abs_tol

    def test_far_tail_underflows_to_zero(self):
        for lam in (150.0, 1e6, -1e300):
            assert mean_density_quadrature_with_error(lam) == (0.0, 0.0)

    def test_domain_refusals(self):
        for lam in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                mean_density_quadrature(lam)

    def test_tolerance_is_honoured(self):
        _, err = mean_density_quadrature_with_error(0.0)
        assert 0.0 < err <= 1e-14
        tight = QuadratureConfig(abs_tol=err / 2, rel_tol=err / 8)
        with pytest.raises(ToleranceError, match="gap .* exceeds bound"):
            mean_density_quadrature(0.0, tight)

    def test_integrates_to_the_moment_ladder(self):
        # 2 int_0^oo x^(2k) q(x) dx is the ISE moment (2k) and 1 at k = 0;
        # past x = 20 the integrand is below 1e-12.
        t, w = np.polynomial.legendre.leggauss(160)
        x, w = 10.0 * (t + 1.0), 10.0 * w
        q = np.array([mean_density_quadrature(v) for v in x])
        assert 2.0 * np.dot(w, q) == pytest.approx(1.0, rel=1e-12)
        for k in range(1, 5):
            assert 2.0 * np.dot(w, x ** (2 * k) * q) == pytest.approx(
                limit_moment_ise((2 * k,)), rel=1e-12
            )


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

    def test_array_settles_rounding_cycles_near_branch_point(self):
        # At 0.9995 of the radius rounding makes Newton cycle above its
        # tolerance on some element at every step size of the shared schedule.
        ys = np.linspace(-0.9995, 0.9995, 5001) * MGF_A_RADIUS
        got = solve_A(ys)
        assert np.max(np.abs(24 * got * (1 - got) - ys * (1 + got) ** 3)) <= 1e-12
        for y, a in zip(ys, got):
            assert abs(a - solve_A(y)) <= 1e-14

    def test_newton_settles_on_a_rounding_cycle_only_when_asked(self):
        # From this start the steps cycle at about 2.3e-15, above the tolerance.
        y, start = 2.3071 + 0j, 0.11137 + 0j
        assert numerics._newton(y, start, float, settle=False) is None
        a = numerics._newton(y, start, float, settle=True)
        assert abs(24 * a * (1 - a) - y * (1 + a) ** 3) <= 1e-14

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
