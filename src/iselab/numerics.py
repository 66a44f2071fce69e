"""Fixed Gauss-Legendre rules, a stable series, and a contour integral for
the limit constants.

Three independent numeric routes live here, all in numpy: a pair of fixed
Gauss-Legendre rules on panels placed around the integrand's peak and an
alternating series for the mean rescaled density, and a two-ray contour
integral for the moment generating function of the density at a point, by
a pair of fixed Gauss-Legendre rules over one vectorised branch solve.
Each rule pair returns its fine rule's value and prices it by the gap to
the coarse one.  Failures surface as ToleranceError rather than silently
degraded output.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre


class ToleranceError(RuntimeError):
    """A numeric routine could not certify its requested tolerance."""


@dataclass(frozen=True)
class QuadratureConfig:
    """Shared knobs for the density rules and the contour integral."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    truncation_length: float = 5.0

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.truncation_length < 2.0:
            raise ValueError("contour truncation below 2 loses the tail")


DEFAULT_QUADRATURE = QuadratureConfig()


def gamma_fn(z: float) -> float:
    """Gamma function for real arguments, rejecting the poles explicitly."""
    z = float(z)
    if not math.isfinite(z):
        raise ValueError("gamma_fn needs a finite argument")
    if z <= 0 and z == int(z):
        raise ValueError(f"gamma pole at non-positive integer {z}")
    return math.gamma(z)


# Gauss-Legendre node counts of the coarse and the fine density rule, and
# the reach of the density panels around the integrand's peak.
_DENSITY_NODES = (64, 80)
_DENSITY_REACH = 3.0


def _rule_pair(counts: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of two Gauss-Legendre rules on [-1, 1], the coarse
    rule's first."""
    ts, ws = zip(*(legendre.leggauss(n) for n in counts))
    return np.concatenate(ts), np.concatenate(ws)


# Built at import, like the numpy.polynomial import, so no first call pays.
_DENSITY_T, _DENSITY_W = _rule_pair(_DENSITY_NODES)


def _rule_gap(value, coarse_value, cfg: QuadratureConfig, where: str) -> float:
    """|value - coarse_value|, refused past max(cfg.abs_tol, cfg.rel_tol * |value|)."""
    err = abs(value - coarse_value)
    bound = max(cfg.abs_tol, cfg.rel_tol * abs(value))
    if err > bound:
        raise ToleranceError(f"{where}: gap {err:.3e} exceeds bound {bound:.3e}")
    return err


def mean_density_quadrature_with_error(
    lambda_x: float, cfg: QuadratureConfig | None = None
) -> tuple[float, float]:
    """mean_density_quadrature(lambda_x, cfg) and its error estimate, the
    gap between the 80- and the 64-node rule, from one evaluation."""
    cfg = cfg or DEFAULT_QUADRATURE
    x = abs(float(lambda_x))
    if not math.isfinite(x):
        raise ValueError("mean_density_quadrature needs a finite argument")
    # The exponent -x^2/(2s^2) - s^4/2 peaks at s^3 = x/sqrt(2).  In
    # u = s/peak it reads -peak^4 (1/u^2 + u^4/2 - 3/2) below its peak, with
    # second derivative at most -11.3 peak^4, so it has fallen by over 50 at
    # _DENSITY_REACH/peak either side.  For peak < 1 the upper end
    # peak + _DENSITY_REACH leaves a tail below e^-40 of the integral.
    peak = (x / math.sqrt(2.0)) ** (1.0 / 3.0)
    lo = peak - _DENSITY_REACH / peak if peak * peak > _DENSITY_REACH else 0.0
    hi = peak + _DENSITY_REACH / max(peak, 1.0)
    cut = peak if peak > 0.0 else 1.0  # at lambda = 0 any split will do
    ends = np.array([[lo, cut], [cut, hi]])
    half = 0.5 * (ends[:, 1:] - ends[:, :1])
    s = ends[:, :1] + half * (_DENSITY_T + 1.0)
    r = x / (math.sqrt(2.0) * s)
    # Past |lambda| ~ 1e100 the squares overflow to inf and the terms to 0,
    # which is q to double precision: q underflows from |lambda| ~ 145 on.
    with np.errstate(over="ignore"):
        terms = half * _DENSITY_W * s * s * np.exp(-r * r - 0.5 * (s * s) ** 2)
    coarse = _DENSITY_NODES[0]
    coarse_value, value = (
        math.sqrt(2.0 / math.pi) * float(part.sum())
        for part in (terms[:, :coarse], terms[:, coarse:])
    )
    err = _rule_gap(value, coarse_value, cfg, f"density rules disagree at lambda = {lambda_x}")
    return value, err


def mean_density_quadrature(
    lambda_x: float, cfg: QuadratureConfig | None = None
) -> float:
    """Mean rescaled density at lambda_x via the one-dimensional integral

    (2 pi)^(-1/2) * integral_0^inf  y^(1/2) exp(-lambda^2/(2y) - y^2/2) dy.

    With y = s^2 the integrand is 2 s^2 exp(-lambda^2/(2s^2) - s^4/2), whose
    exponent peaks at s = (|lambda|/sqrt(2))^(1/3).  Two panels meet at
    that peak: the left one takes the layer near s ~ |lambda| that a single
    panel cannot resolve for small lambda, and both shrink like 1/peak as
    the peak narrows for large lambda.  Each panel is integrated by a 64-
    and an 80-node Gauss-Legendre rule.  The fine rule's value is returned;
    the gap between the two rules is the error estimate, and an input whose
    gap exceeds max(cfg.abs_tol, cfg.rel_tol * |q|) is refused with a
    ToleranceError.  The relative error stays below 1e-13 while q is a
    normal float (|lambda| up to about 140); beyond, q underflows to 0
    with a zero gap.
    """
    return mean_density_quadrature_with_error(lambda_x, cfg)[0]


_SQRT_HALF = math.sqrt(0.5)
# cos((m+1) pi/4) for (m+1) mod 8 = 0..7, exact up to the sqrt(1/2) rounding
_COS_TABLE = (1.0, _SQRT_HALF, 0.0, -_SQRT_HALF, -1.0, -_SQRT_HALF, 0.0, _SQRT_HALF)
_SERIES_MAX_ARG = 6.0
_SERIES_MAX_TERMS = 400


def mean_density_series(lambda_x: float) -> float:
    """Mean rescaled density at lambda_x by its entire-series expansion

    2^(-1/4) pi^(-1/2) * sum_m (-2^(3/4)|lambda|)^m / m!
                               * cos((m+1) pi/4) * Gamma((m+3)/4).

    The series is entire but alternating; beyond |lambda| = 6 the leading
    terms outgrow the sum by ~10 digits, so larger arguments are refused.
    """
    x = abs(float(lambda_x))
    if not math.isfinite(x):
        raise ValueError("mean_density_series needs a finite argument")
    if x > _SERIES_MAX_ARG:
        raise ValueError(
            f"series cancellation is unstable beyond |lambda| = {_SERIES_MAX_ARG}"
        )
    z = -(2.0**0.75) * x
    total = 0.0
    term = 1.0  # z^m / m!
    quiet = 0
    for m in range(_SERIES_MAX_TERMS):
        bound = abs(term) * math.gamma((m + 3) / 4.0)
        total += term * _COS_TABLE[(m + 1) % 8] * math.gamma((m + 3) / 4.0)
        quiet = quiet + 1 if bound < 1e-17 else 0
        if quiet >= 4:
            break
        term *= z / (m + 1)
    else:
        raise ToleranceError("density series did not settle within term budget")
    return (2.0**-0.25 / math.sqrt(math.pi)) * total


# Branch points of A(y) sit at y = +-4/sqrt(3) (where A = 2 - sqrt(3)).
MGF_A_RADIUS = 4.0 / math.sqrt(3.0)

_NEWTON_ITERS = 50
_NEWTON_TOL = 1e-15
_ROUNDING_STEP = 1e-12
_BRANCH_JUMP = 0.25
_RESIDUAL_TOL = 1e-12


def _newton(y, start, peak, settle):
    """Newton on the branch equation, elementwise; None if any element fails.

    y and start are both complex scalars or both complex arrays, and peak
    takes the largest element of a real or boolean result of the same kind
    (float for scalars, ndarray.max for arrays).  An element stops moving once
    its own step falls below _NEWTON_TOL.  Near the branch point rounding
    alone can keep a step above _NEWTON_TOL, and Newton then cycles instead
    of converging.  With settle set, an element still moving after the last
    iteration is accepted once its step has stopped shrinking at rounding
    level: below _ROUNDING_STEP and no smaller than two iterations before.
    Converging elements never reach that test.
    """
    a = start
    live = True
    sizes = []
    for _ in range(_NEWTON_ITERS):
        one_plus = 1.0 + a
        y_sq = y * one_plus * one_plus
        num = 24.0 * a * (1.0 - a) - y_sq * one_plus
        den = 24.0 - 48.0 * a - 3.0 * y_sq
        if peak(den == 0):
            return None
        step = num / den * live
        a = a - step
        size = abs(step)
        if peak(size) < _NEWTON_TOL:
            return a
        live = size >= _NEWTON_TOL
        sizes.append(size)
    if not settle:
        return None
    moving = live & ((size >= _ROUNDING_STEP) | (size < sizes[-3]))
    return None if peak(moving) else a


def solve_A(y):
    """Principal branch of 24 A (1 - A) = y (1 + A)^3 with A(0) = 0.

    y is a complex scalar (the result is a Python complex) or an array (the
    result is a complex array of its shape).  Every element is continued
    along its straight segment from 0 on one common schedule s: 0 -> 1,
    with Newton correction at each waypoint; the step halves whenever
    Newton stalls on any element or any root moves further than the
    branch-jump guard allows.  Within about 1e-3 of the branch point
    y = 4/sqrt(3), rounding can make Newton cycle on some element at every
    step size.  So once the step has halved more than 60 times, tracking
    goes on from the last waypoint with the step reset and Newton settling
    on such cycles.  Settling only then leaves every input that tracks
    without it on the same result; the residual check bounds every result.
    """
    if isinstance(y, np.ndarray):
        y, a, peak = y.astype(complex), np.zeros(y.shape, complex), np.ndarray.max
    else:
        y, a, peak = complex(y), 0j, float
    s = 0.0
    step = 0.25
    halvings = 0
    settle = False
    while s < 1.0:
        target = min(1.0, s + step)
        trial = _newton(target * y, a, peak, settle)
        if trial is None or peak(abs(trial - a)) > _BRANCH_JUMP:
            step /= 2.0
            halvings += 1
            if halvings > 60:
                if settle:
                    raise ToleranceError(
                        f"branch tracking failed for |y| up to {peak(abs(y)):.6g}"
                    )
                settle, step, halvings = True, 0.25, 0
            continue
        a = trial
        s = target
        step = min(0.25, step * 2.0)
    residual = peak(abs(a - (y / 24.0) * (1.0 + a) ** 3 / (1.0 - a)))
    if residual > _RESIDUAL_TOL:
        raise ToleranceError(f"A(y) residual {residual:.3e} exceeds tolerance")
    return a


_RAY_UP = cmath.exp(1j * math.pi / 4.0)
_RAY_DOWN = cmath.exp(-1j * math.pi / 4.0)


@dataclass(frozen=True)
class ContourPoint:
    """One point of the two-ray contour through 1: v(t) and A(a / v^3)."""

    t_param: float
    v: complex
    A_value: complex


def contour_point(t_param: float, a: float = 0.0) -> ContourPoint:
    """Contour point at parameter t: the upper ray for t >= 0, lower below."""
    t = float(t_param)
    v = 1.0 + t * _RAY_UP if t >= 0 else 1.0 - t * _RAY_DOWN
    return ContourPoint(t, v, solve_A(a / v**3))


# Gauss-Legendre node counts of the coarse and the fine contour rule.
_MGF_NODES = (160, 200)


@functools.lru_cache(maxsize=8)
def _ray_rules(span: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both Gauss-Legendre rules on both rays, as arrays of shape (2, N).

    Row 0 is the upper ray v = 1 + t e^(i pi/4), row 1 the lower ray; the
    columns hold the coarse rule's nodes, then the fine rule's, on
    t in [0, span].  Returns v, v^(-3) and the part of each weighted term
    that depends on neither x nor a: weight * dv/dt * v^5 e^(v^4), with the
    lower ray's minus sign.
    """
    t, w = _rule_pair(_MGF_NODES)
    t = 0.5 * span * (t + 1.0)
    w = 0.5 * span * w
    rays = np.array([[_RAY_UP], [_RAY_DOWN]])
    v = 1.0 + t * rays
    kernel = w * rays * np.array([[1.0], [-1.0]]) * v**5 * np.exp(v**4)
    out = (v, v**-3, kernel)
    for arr in out:
        arr.setflags(write=False)
    return out


def mgf_L_with_error(
    x: float, a: float, cfg: QuadratureConfig | None = None
) -> tuple[float, float]:
    """mgf_L(x, a, cfg) and its error estimate |L_200 - L_160|, the gap
    between the fine and the coarse rule, from one evaluation."""
    cfg = cfg or DEFAULT_QUADRATURE
    x = float(x)
    a = float(a)
    if x < 0:
        raise ValueError("mgf_L is defined for x >= 0 only")
    if abs(a) >= MGF_A_RADIUS:
        raise ValueError(f"mgf_L needs |a| < 4/sqrt(3) ~ {MGF_A_RADIUS:.6f}")
    if a == 0.0:
        return 1.0, 0.0
    v, inv_cube, kernel = _ray_rules(cfg.truncation_length)
    ae = solve_A(a * inv_cube) * np.exp(-2.0 * x * v)
    terms = kernel * ae / ((1.0 + ae) * (1.0 + ae))
    coarse = _MGF_NODES[0]
    rules = (terms[:, :coarse].sum(), terms[:, coarse:].sum())
    coarse_value, value = (1.0 + 48.0 / (1j * math.sqrt(math.pi)) * r for r in rules)
    err = _rule_gap(value, coarse_value, cfg, f"contour rules disagree at x = {x}, a = {a}")
    if abs(value.imag) > 1e-8:
        raise ToleranceError(
            f"contour symmetry violated: imaginary residue {value.imag:.3e}"
        )
    return float(value.real), float(err)


def mgf_L(x: float, a: float, cfg: QuadratureConfig | None = None) -> float:
    """Moment generating function of the density at a point, via the contour

    L(x, a) = 1 + 48 / (i sqrt(pi)) * integral_Gamma
              A e^(-2xv) / (1 + A e^(-2xv))^2 * v^5 e^(v^4) dv,

    with A = A(a / v^3) and Gamma the two rays through 1 at angles +-pi/4,
    cut at t = cfg.truncation_length.  Defined for x >= 0 and
    |a| < 4/sqrt(3); L(x, 0) is the literal 1.

    Each ray is integrated by a 160- and a 200-node Gauss-Legendre rule,
    with A solved for all 720 nodes in one solve_A call.  The fine rule's
    value is returned; the gap between the two rules is the error estimate,
    and an input whose gap exceeds max(cfg.abs_tol, cfg.rel_tol * |L|) is
    refused with a ToleranceError (near the branch radius the integrand
    sharpens, so |a| close to 4/sqrt(3) is refused rather than degraded).
    The imaginary residue of the symmetric contour must also vanish to
    1e-8.  With both rays on one node set that residue is zero up to
    rounding, so it is not an error estimate: the branch tracking is tested
    by solve_A's residual bound and by pinned high-precision values.
    """
    return mgf_L_with_error(x, a, cfg)[0]
