"""Generating-function engine: factorial-sum series, exact finite-size
moments, and label pair correlations for the four tree families.

The core recursion computes, for an extended partition lam, the series
whose t^idx coefficient is the total over all labelled objects of index
idx of prod_i sum_v fall(label(v), lam_i).  Zero parts strip off as a
node-count multiplier; all-positive partitions expand through the two
sides of the root, each with its labels shifted by an increment of the
family (the two children of a binary node; a plane tree's first subtree
and the rest of the tree, unshifted), the self-terms on both ends are
excluded, and the result is divided by sqrt(1 - base*t).  The parts
are split between the two subtrees once per sub-multiset, with the number
of index splits it stands for as its weight.

A family with an engine_family (complete binary trees, on the binary
engine) reduces to it through the label multiset identity: the labels of
a complete tree are {0} plus, for every internal node with label l, the
pair {l-1, l+1}.  Every per-family constant comes from the TreeFamily.

Moments run the recursion in closed form: every series is t^(-m) P(Z)
with Z = sqrt(1 - base*t) and P a Laurent polynomial of a few terms, so
its t^n coefficient is a sum of binomials C(k/2, n + m), summed in
rationals or float64 at any n.  Truncated integer PowerSeries remain for
partial_F, horizontal_partial_F and power_product_series, the
independent reference the closed form is tested against.

The pair correlation at one series index, a Laurent polynomial in x, comes
from each family's closed form as a sum of s^m A(t) / (1 - s h(t))^e with
s = x + 1/x: one univariate integer series product per power of h, then
a binomial expansion of the powers of s.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from functools import lru_cache
from math import comb, isfinite, lcm, pi, prod, sqrt
from operator import mul
from typing import NamedTuple, Sequence, Union

from .families import (
    BINARY,
    COMPLETE_BINARY,
    PLANE_0PM1,
    PLANE_PM1,
    TreeFamily,
    catalan,
)
from .numerics import ToleranceError
from .partitions import (
    canonical_partition,
    falling_poly,
    power_shift_poly,
    stirling_expansions,
    sub_multisets,
    weight,
)
from .series import LaurentPoly, PowerSeries, sqrt_one_minus

# Cap on the series index of pair_correlation_coeff.  Its work grows like
# the cube of the index: a cold call took 5-7 ms at index 60, 35-65 ms at
# 120, 0.3-0.45 s at 240 and 4.5-9 s at 512 (2 vCPUs, CPython 3.11).
PROFILE_MAX_EXACT_ORDER = 512


class ExactMoment(NamedTuple):
    """Exact power-sum product expectation and its normalized float value."""

    exact: Fraction
    normalized: float


def f_series(family: TreeFamily, order: int) -> PowerSeries:
    """Exact base series: t^idx carries the labelled-object count at idx."""
    if order < 0:
        raise ValueError("truncation order must be non-negative")
    lab = family.labellings_per_edge
    return PowerSeries(
        [catalan(k) * lab**k for k in range(order + 1)], order=order
    )


class _ExactOps:
    """Truncated PowerSeries primitives for one family at a fixed order."""

    def __init__(self, family: TreeFamily, order: int):
        self.order = order
        self.f0 = f_series(family, order)
        self._sqrt = sqrt_one_minus(family.growth_base, order)

    def zero(self) -> PowerSeries:
        return PowerSeries.zero(self.order)

    def t_shift(self, s: PowerSeries) -> PowerSeries:
        return s.shift(1)

    def sqrt_div(self, s: PowerSeries) -> PowerSeries:
        return s / self._sqrt


_ONE_MINUS_Z2 = LaurentPoly([1, 0, -1])  # base*t, in Z


class _ZForm:
    """t^(-m) P(Z) / den with Z = sqrt(1 - base*t), P an integer Laurent
    polynomial: the value type of the closed-form backend.  A sum brings
    the smaller m up to the larger through t = (1 - Z^2)/base."""

    __slots__ = ("base", "m", "poly", "den")

    def __init__(self, base: int, m: int, poly: LaurentPoly, den: int = 1):
        self.base, self.m, self.poly, self.den = base, m, poly, den

    def _lift(self, m: int) -> tuple[LaurentPoly, int]:
        poly = self.poly
        for _ in range(m - self.m):
            poly = poly * _ONE_MINUS_Z2
        return poly, self.den * self.base ** (m - self.m)

    def __add__(self, other: "_ZForm") -> "_ZForm":
        if other.poly.is_zero() or self.poly.is_zero():
            return other if self.poly.is_zero() else self
        m = max(self.m, other.m)
        (p, dp), (q, dq) = self._lift(m), other._lift(m)
        den = lcm(dp, dq)
        return _ZForm(self.base, m, p * (den // dp) + q * (den // dq), den)

    def __mul__(self, other):
        if isinstance(other, _ZForm):
            return _ZForm(self.base, self.m + other.m, self.poly * other.poly, self.den * other.den)
        return _ZForm(self.base, self.m, self.poly * other, self.den)

    __rmul__ = __mul__

    def t_ddt(self) -> "_ZForm":
        """t d/dt, which is -m P - (1 - Z^2)/(2Z) P'(Z) on P."""
        p, m = self.poly, self.m
        coeffs = [p.coeff(k) * (k - 2 * m) - p.coeff(k + 2) * (k + 2)
                  for k in range(p.lo - 2, p.hi + 1)]
        return _ZForm(self.base, m, LaurentPoly(coeffs, lo=p.lo - 2), 2 * self.den)


class _ClosedOps:
    """Closed-form primitives: F = t^(-1) (2/base)(1 - Z), division by Z."""

    def __init__(self, family: TreeFamily):
        b = family.growth_base
        self.f0 = _ZForm(b, 1, LaurentPoly([2, -2]), b)

    def zero(self) -> _ZForm:
        return self.f0 * 0

    def t_shift(self, s: _ZForm) -> _ZForm:
        if not s.m:  # t = (1 - Z^2)/base
            return _ZForm(s.base, 0, s.poly * _ONE_MINUS_Z2, s.den * s.base)
        return _ZForm(s.base, s.m - 1, s.poly, s.den)

    def sqrt_div(self, s: _ZForm) -> _ZForm:
        return _ZForm(s.base, s.m, s.poly.divide_monomial(1, 1), s.den)


Series = Union[PowerSeries, _ZForm]


def _apply_node_mult(s: Series, a: int, b: int) -> Series:
    """a * t d/dt + b, the node-count multiplier of a family."""
    out = s.t_ddt()
    if a != 1:
        out = out * a
    if b:
        out = out + s * b
    return out


@lru_cache(maxsize=None)
def _shift_terms(k: int, inc: int) -> tuple[tuple[int, int], ...]:
    """The nonzero (s, C(k, s) fall(inc, k - s)) of one part k on a side
    shifted by inc: fall(l + inc, k) = sum_s C(k, s) fall(inc, k - s) fall(l, s)."""
    terms = ((s, comb(k, s) * prod(range(inc, inc - k + s, -1))) for s in range(k + 1))
    return tuple((s, c) for s, c in terms if c)


class _Engine:
    """Memoized recursion over one ops backend.

    template holds one (inc_i, inc_j) pair per way of splitting an object
    at its root into two sides, with the label shift of each side.
    mult = (a, b) encodes the node count at series index n as a*n + b.
    The memo tables are write-once: values are deterministic, so a
    concurrent duplicate store is harmless.
    """

    def __init__(self, ops, template, mult: tuple[int, int]):
        self.ops = ops
        self.template = template
        self.mult = mult
        self.pf_memo: dict[tuple[int, ...], Series] = {(): ops.f0}
        self.pps_memo: dict[tuple[int, ...], Series] = {(): ops.f0}
        # Sums of the families that ride on this engine (_rider_series),
        # keyed by (family, power_basis, partition).
        self.rider_memo: dict[tuple, Series] = {}

    def node_mult(self, s: Series) -> Series:
        return _apply_node_mult(s, *self.mult)

    def pf(self, lam: tuple[int, ...]) -> Series:
        """Factorial-sum product series for a sorted extended partition."""
        hit = self.pf_memo.get(lam)
        if hit is not None:
            return hit
        if lam[0] == 0:
            val = self.node_mult(self.pf(lam[1:]))
        else:
            rhs = self.ops.zero()
            for inc_i, inc_j in self.template:
                for w, parts_i, parts_j in sub_multisets(lam):
                    side_i = self._side(inc_i, parts_i, not parts_j)
                    if side_i is None:
                        continue
                    side_j = self._side(inc_j, parts_j, not parts_i)
                    if side_j is None:
                        continue
                    term = side_i * side_j
                    rhs = rhs + (term * w if w != 1 else term)
            val = self.ops.sqrt_div(self.ops.t_shift(rhs))
        self.pf_memo[lam] = val
        return val

    def _side(self, inc: int, parts: tuple[int, ...], excl: bool):
        """Series for one side shifted by inc; None when it has no terms.

        excl marks the side holding every part while the other side is
        empty: the term equal to the series being solved for (every s = k)
        is skipped there (it is accounted for by the sqrt division).
        """
        total = None
        for choice in itertools.product(*(_shift_terms(k, inc) for k in parts)):
            sigma = tuple(s for s, _ in choice)
            if excl and sigma == parts:
                continue
            w = prod(c for _, c in choice)
            term = self.pf(tuple(sorted(sigma)))
            term = term * w if w != 1 else term
            total = term if total is None else total + term
        return total

    def pps(self, rs: tuple[int, ...]) -> Series:
        """Power-sum product series via Stirling expansion into pf values."""
        hit = self.pps_memo.get(rs)
        if hit is not None:
            return hit
        if rs[0] == 0:
            val = self.node_mult(self.pps(rs[1:]))
        else:
            val = self.ops.zero()
            for w, js in stirling_expansions(rs):
                val = val + self.pf(tuple(sorted(js))) * w
        self.pps_memo[rs] = val
        return val


# Engines by (family, template, order): order None is the closed form, an
# int the PowerSeries backend truncated there.
_ENGINES: dict[tuple, _Engine] = {}

# Depths in place of labels: both children of a binary node one deeper.
_HORIZONTAL_TEMPLATE = ((1, 1),)


def _template(family: TreeFamily) -> tuple[tuple[int, int], ...]:
    """The side shifts of a family's recursion: one increment per child
    role, or a plane tree's first subtree at every increment beside the
    unshifted rest of the tree."""
    if family.plane:
        return tuple((inc, 0) for inc in family.increments)
    return (family.increments,)


def _engine(family: TreeFamily, order: int | None = None, template: tuple | None = None) -> _Engine:
    """The engine of a family's template, or of another template (the
    horizontal one) over the same base series and node rule.  f_series
    refuses a negative order."""
    template = template or _template(family)
    key = (family, template, order)
    eng = _ENGINES.get(key)
    if eng is None:
        ops = _ClosedOps(family) if order is None else _ExactOps(family, order)
        eng = _ENGINES[key] = _Engine(ops, template, family.node_mult)
    return eng


def _family_series(family: TreeFamily, order: int | None, lam: tuple[int, ...],
                   power_basis: bool) -> tuple[_Engine, Series]:
    """Power-sum (power_basis) or factorial-sum product series of a family,
    with the engine it came from: its own, or the one it rides on."""
    if family.engine_family is None:
        eng = _engine(family, order)
        return eng, eng.pps(lam) if power_basis else eng.pf(lam)
    eng = _engine(family.engine_family, order)
    return eng, _rider_series(eng, family, lam, power_basis)


def _shift_sum_poly(k: int, power_basis: bool, incs: tuple[int, ...]) -> tuple[int, ...]:
    """Power-basis coefficients of sum_inc f(l + inc) for f = x^k or fall(x, k)."""
    poly = power_shift_poly if power_basis else falling_poly
    return tuple(map(sum, zip(*(poly(k, inc) for inc in incs))))


def _rider_series(
    eng: _Engine, family: TreeFamily, lam: tuple[int, ...], power_basis: bool
) -> Series:
    """Sums over a family that rides on eng's family.

    Its labels are {0} plus, for every internal node with label l, the
    children's labels l + inc over the family's increments.  So each part k
    contributes f(l + inc) summed over internal-node labels l; expanding in
    the power basis turns the product into a combination of the engine's
    power-sum product series.
    """
    key = (family, power_basis, lam)
    hit = eng.rider_memo.get(key)
    if hit is not None:
        return hit
    if not lam:
        val = eng.ops.f0
    elif lam[0] == 0:
        val = _apply_node_mult(
            _rider_series(eng, family, lam[1:], power_basis), *family.node_mult
        )
    else:
        polys = [_shift_sum_poly(k, power_basis, family.increments) for k in lam]
        val = eng.ops.zero()
        for qs in itertools.product(*(range(len(p)) for p in polys)):
            c = 1
            for poly, q in zip(polys, qs):
                c *= poly[q]
            if not c:
                continue
            val = val + eng.pps(tuple(sorted(qs))) * c
    eng.rider_memo[key] = val
    return val


def partial_F(family: TreeFamily, lam: Sequence[int], order: int) -> PowerSeries:
    """Exact factorial-sum product series, truncated at the given order.

    t^idx carries the total over all labelled objects of index idx of
    prod_i sum_v fall(label(v), lam_i); the empty partition gives the
    base counting series.
    """
    return _family_series(family, order, canonical_partition(lam), power_basis=False)[1]


def horizontal_partial_F(lam: Sequence[int], order: int) -> PowerSeries:
    """Binary-tree analogue of partial_F with depths in place of labels."""
    return _engine(BINARY, order, _HORIZONTAL_TEMPLATE).pf(canonical_partition(lam))


def power_product_series(family: TreeFamily, lam: Sequence[int], order: int) -> PowerSeries:
    """Exact series totalling prod_i sum_v label(v)^lam_i over objects."""
    return _family_series(family, order, canonical_partition(lam), power_basis=True)[1]


# sqrt(pi N) C(2N, N) / 4^N = sum_j _CENTRAL_ASYMPTOTIC[j] N^(-j) + O(N^-8),
# within 3e-16 of the exact value for every N >= _FLOAT_FROM_INDEX (6e-14
# at N = 16), so float_moment evaluates smaller indices exactly.
_CENTRAL_ASYMPTOTIC = (1.0, -1 / 8, 1 / 128, 5 / 1024, -21 / 32768, -399 / 262144,
                       869 / 4194304, 39325 / 33554432)
_FLOAT_FROM_INDEX = 32
# Relative rounding error allowed for one float term c_k R_k(n): the
# asymptotic series, up to a dozen contiguous steps, and the products.
_TERM_EPS = 64 * sys.float_info.epsilon
_FLOAT_MOMENT_TOL = 1e-12


@lru_cache(maxsize=256)
def _half_binomial(k: int, N: int, exact: bool) -> Fraction | float:
    """(-1)^N C(k/2, N) for odd k, from C(2N, N)/4^N at k = -1 through the
    contiguous relation C(a - 1, N) = C(a, N) (a - N)/a."""
    if k < -1:
        return _half_binomial(k + 2, N, exact) * (k + 2 - 2 * N) / (k + 2)
    if k > -1:
        return _half_binomial(k - 2, N, exact) * k / (k - 2 * N)
    if exact:
        return Fraction(comb(2 * N, N), 4**N)
    acc = 0.0
    for c in reversed(_CENTRAL_ASYMPTOTIC):
        acc = acc / N + c
    return acc / sqrt(pi * N)


def _z_terms(s: _ZForm, idx: int, exact: bool) -> list:
    """The terms of [t^idx] s / base^idx, one per power Z^k of s, exact or
    in float64 (idx >= 32): [t^idx] t^(-m) Z^k = (-1)^N C(k/2, N) base^N
    with N = idx + m, an integer binomial for even k."""
    N = idx + s.m
    scale = Fraction(s.base**s.m, s.den) if exact else s.base**s.m / s.den
    terms = []
    for k, c in enumerate(s.poly.coeffs, s.poly.lo):
        if k % 2:
            terms.append(c * scale * _half_binomial(k, N, exact))
        elif c:
            j = k // 2
            terms.append(c * scale * (comb(N - j - 1, N) if j < 0 else (-1) ** N * comb(j, N)))
    return terms


def _normalizer(family: TreeFamily, lam: tuple[int, ...], n: int) -> float:
    w = weight(lam)
    p = len(lam)
    nodes = family.node_count(n)
    return family.gamma**w * float(nodes) ** -(p + w / 4.0)


def exact_moment(family: TreeFamily, lam: Sequence[int], n: int) -> ExactMoment:
    """Exact expectation of prod_i sum_v label(v)^lam_i at one size.

    Returns the rational expectation together with the rescaled moment
    gamma^|lam| * nodes^(-p - |lam|/4) * expectation as a float.
    """
    lam_t = canonical_partition(lam)
    idx = family.series_index(n)
    eng, s = _family_series(family, None, lam_t, power_basis=True)
    exact = sum(_z_terms(s, idx, True), Fraction(0)) / sum(_z_terms(eng.ops.f0, idx, True))
    return ExactMoment(exact, _normalizer(family, lam_t, n) * float(exact))


def float_moment(family: TreeFamily, lam: Sequence[int], n: int) -> float:
    """float64 twin of exact_moment's normalized value, at any size.

    Series indices below 32 are evaluated exactly.  Above, the value is a
    sum of terms c_k R_k(n) with the rounding bound eps * sum |c_k R_k(n)|;
    a bound over 1e-12 of the value is refused with a ToleranceError.
    """
    lam_t = canonical_partition(lam)
    idx = family.series_index(n)
    if idx < _FLOAT_FROM_INDEX:
        return exact_moment(family, lam_t, n).normalized
    eng, s = _family_series(family, None, lam_t, power_basis=True)
    count = sum(_z_terms(eng.ops.f0, idx, False))
    terms = [t / count for t in _z_terms(s, idx, False)]
    value = sum(terms)
    bound = _TERM_EPS * sum(map(abs, terms))
    if bound > _FLOAT_MOMENT_TOL * abs(value):
        raise ToleranceError(f"float_moment rounding bound {bound:.2e} exceeds "
                             f"{_FLOAT_MOMENT_TOL:g} of the value {value:.6e}")
    return _normalizer(family, lam_t, n) * value


def _catalan_series(order: int, scale: int = 1) -> PowerSeries:
    """B(scale*t) = sum_{n>=1} Catalan(n) scale^n t^n."""
    return PowerSeries(
        [0] + [catalan(n) * scale**n for n in range(1, order + 1)], order=order
    )


# Each family's pair-correlation series is sum_terms s^m A(t) / (1 - s h(t))^e
# with s = x + 1/x (2cos(u) on the unit circle) and e in {0, 1, 2}.  A
# builder returns (h, [(m, e, A), ...]) as integer series at the given order.

def _pair_binary(order: int) -> tuple[PowerSeries, list]:
    one = PowerSeries.one(order)
    b = _catalan_series(order)
    f0 = one + b
    num = b * f0 * (one + 2 * b - b * b) / (one - b)
    return b / f0, [(0, 2, num / (f0 * f0))]


def _pair_complete(order: int) -> tuple[PowerSeries, list]:
    # Complete-tree transform is 1 + 2cos(u) * (binary transform), so the
    # pair series is f0 + 2s f1 + s^2 (binary pair series), with the binary
    # one-point series f1 = b / (1 - s h).
    h, [(_, e, a)] = _pair_binary(order)
    b = _catalan_series(order)
    return h, [(0, 0, PowerSeries.one(order) + b), (1, 1, 2 * b), (2, e, a)]


def _pair_plane_pm1(order: int) -> tuple[PowerSeries, list]:
    # (1 + T)(1 + h^2 s^2) / ((1 - T)(1 - s h)^2) with T = B(2t), h = T/2.
    one = PowerSeries.one(order)
    t_ser = _catalan_series(order, 2)
    h = PowerSeries([c // 2 for c in t_ser.coeffs])  # exact: Catalan(n) 2^n, n >= 1
    a = (one + t_ser) / (one - t_ser)
    return h, [(0, 2, a), (2, 2, a * h * h)]


def _pair_plane_0pm1(order: int) -> tuple[PowerSeries, list]:
    # (1 + T)(1 + T'^2 (1 + s)^2) / ((1 - T)(1 - T' - s T')^2) with T = B(3t),
    # T' = T/3, and h = T'/(1 - T').
    one = PowerSeries.one(order)
    t_ser = _catalan_series(order, 3)
    third = PowerSeries([c // 3 for c in t_ser.coeffs])  # exact: Catalan(n) 3^n, n >= 1
    rest = one - third
    a = (one + t_ser) / ((one - t_ser) * rest * rest)
    a2 = a * third * third
    return third / rest, [(0, 2, a + a2), (1, 2, 2 * a2), (2, 2, a2)]


_PAIR_BUILDERS = {
    BINARY: _pair_binary,
    COMPLETE_BINARY: _pair_complete,
    PLANE_PM1: _pair_plane_pm1,
    PLANE_0PM1: _pair_plane_0pm1,
}


@lru_cache(maxsize=64)
def pair_correlation_coeff(family: TreeFamily, idx: int) -> LaurentPoly:
    """Exact pair correlation of vertical labels at one series index.

    The Laurent polynomial summing x^(label(v) - label(w)) over all node
    pairs of all objects at index idx, with integer coefficients.
    """
    if idx < 0:
        raise ValueError("series index must be non-negative")
    if idx > PROFILE_MAX_EXACT_ORDER:
        raise ValueError(
            f"exact truncation order {idx} exceeds "
            f"PROFILE_MAX_EXACT_ORDER={PROFILE_MAX_EXACT_ORDER}"
        )
    build = _PAIR_BUILDERS.get(family)
    if build is None:
        raise ValueError(f"no profile-correlation series for {family.name}")
    h, terms = build(idx + 1)
    # [t^idx] s^m A / (1 - s h)^e = sum_k C(k+e-1, e-1) s^(k+m) [t^idx] A h^k,
    # and h = t g, so [t^idx] A h^k = [t^(idx-k)] A g^k.
    g = PowerSeries(h.coeffs[1:], order=idx)
    s_coeffs = [0] * (idx + 3)
    g_pow = PowerSeries.one(idx)
    for k in range(idx + 1):
        if k:
            g_pow = g_pow.truncate(idx - k) * g
        for m, e, a in terms:
            if e or not k:
                c = sum(map(mul, a.coeffs[idx - k :: -1], g_pow.coeffs))
                s_coeffs[k + m] += comb(k + e - 1, e - 1) * c if e else c
    # s^p = sum_j C(p, j) x^(p - 2j)
    top = len(s_coeffs) - 1
    x_coeffs = [0] * (2 * top + 1)
    for p, c in enumerate(s_coeffs):
        if c:
            for j in range(p + 1):
                x_coeffs[top + p - 2 * j] += comb(p, j) * c
    return LaurentPoly(x_coeffs, lo=-top)


def fourier_second_moment(family: TreeFamily, n: int, u: float) -> float:
    """Mean squared modulus of the label Fourier transform at angle u.

    Equals P_idx(e^(iu)) / count(n); exactly nodes^2 at u = 0.
    """
    if not isfinite(u):
        raise ValueError(f"angle u must be finite, got {u}")
    poly = pair_correlation_coeff(family, family.series_index(n))
    val = poly.eval_unit_circle(u)
    scale = max(1.0, abs(val.real))
    if abs(val.imag) > 1e-8 * scale:
        raise ArithmeticError(
            f"pair-correlation value has imaginary part {val.imag} at u={u}"
        )
    return max(val.real, 0.0) / family.count(n)


def lemma_L3_ratio(family: TreeFamily, n: int, u: float) -> float:
    """(1 + nodes*u^4) * E|transform/nodes|^2, the uniformly bounded ratio."""
    nodes = family.node_count(n)
    return (1.0 + nodes * u**4) * fourier_second_moment(family, n, u) / nodes**2
