"""Generating-function engine: factorial-sum series, exact finite-size
moments, and profile-correlation series for the four tree families.

The core recursion computes, for an extended partition lam, the series
whose t^idx coefficient is the total over all labelled objects of index
idx of prod_i sum_v fall(label(v), lam_i).  Zero parts strip off as a
node-count multiplier; all-positive partitions expand through the family
template (subtree label shifts down/up/none), the self-terms on both ends
are excluded, and the result is divided by sqrt(1 - base*t).  The parts
are split between the two subtrees once per sub-multiset, with the number
of index splits it stands for as its weight.

Complete binary trees reduce to the binary engine through the label
multiset identity: the labels of a complete tree are {0} plus, for every
internal node with label l, the pair {l-1, l+1}.

Everything runs twice: exactly, and in float64 over the scaled variable
tau = base*t (whose coefficients stay O(1) at any order).  The exact run
stays in the integers: every coefficient counts labelled objects, and
sqrt(1 - base*t) has integer coefficients with constant term 1 for every
base used here, so dividing by it never leaves Z.  The only rational is
the final quotient total / count in exact_moment.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import NamedTuple, Sequence, Union

from .families import BINARY, TreeFamily, catalan
from .partitions import (
    canonical_partition,
    falling_poly,
    power_shift_poly,
    stirling_expansions,
    sub_multisets,
    weight,
)
from .series import (
    BivariateSeries,
    FloatSeries,
    LaurentPoly,
    PowerSeries,
    sqrt_one_minus,
)

# Hard cap for exact-arithmetic truncation orders; float engines are not
# capped (their cost per coefficient is constant).
MAX_EXACT_ORDER = 1024

# The exact bivariate profile series carries a Laurent polynomial per
# coefficient and already takes seconds at order 120, so it keeps a lower cap.
PROFILE_MAX_EXACT_ORDER = 512

Series = Union[PowerSeries, FloatSeries]

# x + 1/x, the symbolic stand-in for 2*cos(u).
_S_POLY = LaurentPoly([1, 0, 1], lo=-1)


class ExactMoment(NamedTuple):
    """Exact power-sum product expectation and its normalized float value."""

    exact: Fraction
    normalized: float


@dataclass(frozen=True)
class MomentTable:
    """Rows of (size, exact expectation, normalized moment) for one partition."""

    family: TreeFamily
    partition: tuple[int, ...]
    rows: tuple[tuple[int, Fraction, float], ...]


def f_series(family: TreeFamily, order: int) -> PowerSeries:
    """Exact base series: t^idx carries the labelled-object count at idx."""
    if order < 0:
        raise ValueError("truncation order must be non-negative")
    lab = family.labellings_per_edge if family.size_unit == "edges" else 1
    return PowerSeries(
        [catalan(k) * lab**k for k in range(order + 1)], order=order
    )


class _ExactOps:
    """Exact-series primitives for one family at a fixed order."""

    kind = "exact"

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


class _FloatOps:
    """float64 primitives over the scaled variable tau = base*t.

    Scaled coefficients of the base series are Catalan(n)/4^n for every
    family, so they decay like n^(-3/2) and never overflow.
    """

    kind = "float"

    def __init__(self, family: TreeFamily, order: int):
        import numpy as np

        self.order = order
        self._base = family.growth_base
        k = np.arange(order, dtype=np.float64)

        def from_ratios(r):
            return FloatSeries(np.cumprod(np.concatenate([[1.0], r])))

        self.f0 = from_ratios((4 * k + 2) / (4 * (k + 2)))
        # 1/sqrt(1 - tau) = sum C(2k,k)/4^k tau^k, so dividing by the root
        # is one product.
        self._inv_sqrt = from_ratios((2 * k + 1) / (2 * k + 2))

    def zero(self) -> FloatSeries:
        return FloatSeries.zero(self.order)

    def t_shift(self, s: FloatSeries) -> FloatSeries:
        return s.shift(1) * (1.0 / self._base)

    def sqrt_div(self, s: FloatSeries) -> FloatSeries:
        return s * self._inv_sqrt


def _apply_node_mult(s: Series, a: int, b: int) -> Series:
    """a * t d/dt + b, the node-count multiplier of a family."""
    out = s.t_ddt()
    if a != 1:
        out = out * a
    if b:
        out = out + s * b
    return out


class _Engine:
    """Memoized template recursion over one ops backend.

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
        # Reduction memos used only when this is a binary engine backing
        # the complete-binary family.
        self.complete_pf: dict[tuple[int, ...], Series] = {(): ops.f0}
        self.complete_pps: dict[tuple[int, ...], Series] = {(): ops.f0}

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
            for kind_i, kind_j in self.template:
                for w, parts_i, parts_j in sub_multisets(lam):
                    side_i = self._side(kind_i, parts_i, not parts_j)
                    if side_i is None:
                        continue
                    side_j = self._side(kind_j, parts_j, not parts_i)
                    if side_j is None:
                        continue
                    term = side_i * side_j
                    rhs = rhs + (term * w if w != 1 else term)
            val = self.ops.sqrt_div(self.ops.t_shift(rhs))
        self.pf_memo[lam] = val
        return val

    def _side(self, kind: str, parts: tuple[int, ...], excl: bool):
        """Series for one template side; None when the side is excluded.

        excl marks the side holding every part while the other side is
        empty: the term equal to the series being solved for is skipped
        there (it is accounted for by the sqrt division).
        """
        if kind == "plain":
            return None if excl else self.pf(parts)
        total = self.ops.zero()
        if kind == "down":
            for sigma in itertools.product(*(range(k + 1) for k in parts)):
                if excl and sigma == parts:
                    continue
                w = 1
                for k, s in zip(parts, sigma):
                    w *= (-1) ** (k - s) * (factorial(k) // factorial(s))
                total = total + self.pf(tuple(sorted(sigma))) * w
            return total
        if kind == "up":
            for eps in itertools.product((0, 1), repeat=len(parts)):
                if excl and not any(eps):
                    continue
                w = 1
                for k, e in zip(parts, eps):
                    if e:
                        w *= k
                arg = tuple(sorted(k - e for k, e in zip(parts, eps)))
                total = total + self.pf(arg) * w
            return total
        raise ValueError(f"unknown template side kind {kind!r}")

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


def _family_mult(family: TreeFamily) -> tuple[int, int]:
    if family.name == "complete":
        return (2, 1)
    if family.size_unit == "edges":
        return (1, 1)
    return (1, 0)


# Engines are grow-only per (variant, kind): a request above the current
# order rebuilds from scratch at the larger order (no cross-order reuse),
# so callers looping over sizes first call build_exact_engine.
_ENGINES: dict[tuple[str, str], _Engine] = {}

_HORIZONTAL_TEMPLATE = (("up", "up"),)


def _engine(variant: str, kind: str, order: int) -> _Engine:
    if kind == "exact" and order > MAX_EXACT_ORDER:
        raise ValueError(
            f"exact truncation order {order} exceeds MAX_EXACT_ORDER={MAX_EXACT_ORDER}"
        )
    key = (variant, kind)
    eng = _ENGINES.get(key)
    if eng is not None and eng.ops.order >= order:
        return eng
    if variant == "horizontal":
        family, template, mult = BINARY, _HORIZONTAL_TEMPLATE, (1, 0)
    else:
        from .families import get_family

        family = get_family(variant)
        template, mult = family.template, _family_mult(family)
    ops = _ExactOps(family, order) if kind == "exact" else _FloatOps(family, order)
    eng = _Engine(ops, template, mult)
    _ENGINES[key] = eng
    return eng


def _engine_for(family: TreeFamily, kind: str, order: int) -> _Engine:
    """Engine backing a family: complete-binary rides on the binary engine."""
    variant = "binary" if family.name == "complete" else family.name
    return _engine(variant, kind, order)


def _u_poly_pair(k: int, power_basis: bool) -> tuple[int, ...]:
    """Power-basis coefficients of f(l-1) + f(l+1) for f = x^k or fall(x, k)."""
    if power_basis:
        lo = power_shift_poly(k, -1)
        hi = power_shift_poly(k, 1)
    else:
        lo = falling_poly(k, -1)
        hi = falling_poly(k, 1)
    return tuple(a + b for a, b in zip(lo, hi))


def _complete_expand(eng: _Engine, lam: tuple[int, ...], power_basis: bool) -> Series:
    """Sum over per-part basis expansions of binary power-sum series.

    Each part k of a complete-tree sum contributes f(l-1)+f(l+1) summed
    over internal-node labels l; expanding in the power basis turns the
    product into a combination of binary power-sum product series.
    """
    polys = [_u_poly_pair(k, power_basis) for k in lam]
    val = eng.ops.zero()
    for qs in itertools.product(*(range(len(p)) for p in polys)):
        c = 1
        for poly, q in zip(polys, qs):
            c *= poly[q]
        if not c:
            continue
        val = val + eng.pps(tuple(sorted(qs))) * c
    return val


def _complete_pf(eng: _Engine, lam: tuple[int, ...]) -> Series:
    hit = eng.complete_pf.get(lam)
    if hit is not None:
        return hit
    if lam[0] == 0:
        val = _apply_node_mult(_complete_pf(eng, lam[1:]), 2, 1)
    else:
        val = _complete_expand(eng, lam, power_basis=False)
    eng.complete_pf[lam] = val
    return val


def _complete_pps(eng: _Engine, lam: tuple[int, ...]) -> Series:
    hit = eng.complete_pps.get(lam)
    if hit is not None:
        return hit
    if lam[0] == 0:
        val = _apply_node_mult(_complete_pps(eng, lam[1:]), 2, 1)
    else:
        val = _complete_expand(eng, lam, power_basis=True)
    eng.complete_pps[lam] = val
    return val


def partial_F(
    family: TreeFamily, lam: Sequence[int], order: int
) -> PowerSeries:
    """Exact factorial-sum product series, truncated at the given order.

    t^idx carries the total over all labelled objects of index idx of
    prod_i sum_v fall(label(v), lam_i); the empty partition gives the
    base counting series.
    """
    lam_t = canonical_partition(lam)
    if order < 0:
        raise ValueError("truncation order must be non-negative")
    eng = _engine_for(family, "exact", order)
    s = _complete_pf(eng, lam_t) if family.name == "complete" else eng.pf(lam_t)
    return s.truncate(order) if s.order > order else s


def horizontal_partial_F(lam: Sequence[int], order: int) -> PowerSeries:
    """Binary-tree analogue of partial_F with depths in place of labels."""
    lam_t = canonical_partition(lam)
    if order < 0:
        raise ValueError("truncation order must be non-negative")
    eng = _engine("horizontal", "exact", order)
    s = eng.pf(lam_t)
    return s.truncate(order) if s.order > order else s


def power_product_series(
    family: TreeFamily, lam: Sequence[int], order: int
) -> PowerSeries:
    """Exact series totalling prod_i sum_v label(v)^lam_i over objects."""
    lam_t = canonical_partition(lam)
    if order < 0:
        raise ValueError("truncation order must be non-negative")
    eng = _engine_for(family, "exact", order)
    s = _complete_pps(eng, lam_t) if family.name == "complete" else eng.pps(lam_t)
    return s.truncate(order) if s.order > order else s


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
    pps = power_product_series(family, lam_t, idx)
    exact = Fraction(pps.coeff(idx), family.count(n))
    return ExactMoment(exact, _normalizer(family, lam_t, n) * float(exact))


def float_moment(family: TreeFamily, lam: Sequence[int], n: int) -> float:
    """float64 twin of exact_moment's normalized value, any order."""
    lam_t = canonical_partition(lam)
    idx = family.series_index(n)
    eng = _engine_for(family, "float", idx)
    s = _complete_pps(eng, lam_t) if family.name == "complete" else eng.pps(lam_t)
    expectation = s.coeff(idx) / eng.ops.f0.coeff(idx)
    return _normalizer(family, lam_t, n) * expectation


def build_exact_engine(family: TreeFamily, sizes: Sequence[int]) -> None:
    """Build the family's exact engine once, at the largest requested order.

    Engines rebuild from scratch when a larger order is requested, so
    callers about to run over several sizes in any order call this first.
    An order above MAX_EXACT_ORDER is left for the per-size call to refuse.
    """
    top = max((family.series_index(n) for n in sizes), default=0)
    if top <= MAX_EXACT_ORDER:
        _engine_for(family, "exact", top)


def moment_table(
    family: TreeFamily, lam: Sequence[int], sizes: Sequence[int]
) -> MomentTable:
    """Exact and normalized moments for one partition across sizes."""
    lam_t = canonical_partition(lam)
    build_exact_engine(family, sizes)
    rows = []
    for n in sizes:
        em = exact_moment(family, lam_t, n)
        rows.append((n, em.exact, em.normalized))
    return MomentTable(family=family, partition=lam_t, rows=tuple(rows))


def _catalan_series(order: int, scale: int = 1) -> PowerSeries:
    """B(scale*t) = sum_{n>=1} Catalan(n) scale^n t^n."""
    return PowerSeries(
        [0] + [catalan(n) * scale**n for n in range(1, order + 1)], order=order
    )


def _build_profile(family: TreeFamily, order: int) -> BivariateSeries:
    one = PowerSeries.one(order)
    s = _S_POLY
    if family.name == "binary":
        b = _catalan_series(order)
        f0 = one + b
        num = b * f0 * (one + 2 * b - b * b) / (one - b)
        den1 = BivariateSeries.from_power_series(f0) - (
            BivariateSeries.from_power_series(b) * s
        )
        return BivariateSeries.from_power_series(num) / (den1 * den1)
    if family.name == "plane_pm1":
        t_ser = _catalan_series(order, 2)
        ft = one + t_ser
        num = BivariateSeries.from_power_series(ft) + (
            BivariateSeries.from_power_series(ft * t_ser * t_ser)
            * (s * s * Fraction(1, 4))
        )
        half = BivariateSeries.from_power_series(one) - (
            BivariateSeries.from_power_series(t_ser) * (s * Fraction(1, 2))
        )
        den = BivariateSeries.from_power_series(one - t_ser) * half * half
        return num / den
    if family.name == "plane_0pm1":
        t_ser = _catalan_series(order, 3)
        ft = one + t_ser
        one_plus_s = LaurentPoly([1, 1, 1], lo=-1)
        num = BivariateSeries.from_power_series(ft * 9) + (
            BivariateSeries.from_power_series(ft * t_ser * t_ser)
            * (one_plus_s * one_plus_s)
        )
        lin = BivariateSeries.from_laurent(LaurentPoly.const(3), order) - (
            BivariateSeries.from_power_series(t_ser) * one_plus_s
        )
        den = BivariateSeries.from_power_series(one - t_ser) * lin * lin
        return num / den
    if family.name == "complete":
        # Complete-tree transform is 1 + 2cos(u) * (binary transform), so
        # the pair series assembles from the binary one-point and two-point
        # series with s = 2cos(u).
        pb = profile_correlation_series(BINARY, order)
        b = _catalan_series(order)
        f0 = one + b
        den_f1 = BivariateSeries.from_power_series(f0) - (
            BivariateSeries.from_power_series(b) * s
        )
        f1 = BivariateSeries.from_power_series(b * f0) / den_f1
        return (
            BivariateSeries.from_power_series(f0)
            + f1 * (s * 2)
            + pb * (s * s)
        )
    raise ValueError(f"no profile-correlation series for {family.name}")


_PROFILE_CACHE: dict[str, BivariateSeries] = {}


def profile_correlation_series(family: TreeFamily, order: int) -> BivariateSeries:
    """Exact pair-correlation series of vertical labels.

    The t^idx coefficient is the Laurent polynomial summing
    x^(label(v) - label(w)) over all node pairs of all objects at idx.
    """
    if order < 0:
        raise ValueError("truncation order must be non-negative")
    if order > PROFILE_MAX_EXACT_ORDER:
        raise ValueError(
            f"exact truncation order {order} exceeds "
            f"PROFILE_MAX_EXACT_ORDER={PROFILE_MAX_EXACT_ORDER}"
        )
    cached = _PROFILE_CACHE.get(family.name)
    if cached is None or cached.order < order:
        cached = _build_profile(family, order)
        _PROFILE_CACHE[family.name] = cached
    if cached.order == order:
        return cached
    return BivariateSeries(cached.coeffs[: order + 1], order=order)


def fourier_second_moment(family: TreeFamily, n: int, u: float) -> float:
    """Mean squared modulus of the label Fourier transform at angle u.

    Equals P_idx(e^(iu)) / count(n); exactly nodes^2 at u = 0.
    """
    idx = family.series_index(n)
    poly = profile_correlation_series(family, idx).coeff(idx)
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
