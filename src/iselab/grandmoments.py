"""Limit moment constants via quadratic recurrences, and closed-form limits.

All recurrences work over exact rationals on sorted partitions; closed
forms are evaluated in floats through the gamma function.  The quadratic
term of the c and d recurrences sums over the ordered splits of lam into
two nonempty index sets; equal parts make many splits give the same pair
of sub-partitions, so the sum runs once per sub-multiset with the number
of index splits as its weight (2^p terms become prod_j (m_j + 1) for the
multiplicities m_j).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Sequence

from .partitions import canonical_partition, sub_multisets, weight

_C_CACHE: dict[tuple[int, ...], Fraction] = {}
_D_CACHE: dict[tuple[int, ...], Fraction] = {}


def c_lambda(lam: Sequence[int]) -> Fraction:
    """Limit constant for an integrated-profile moment, exact.

    Empty partition gives -2 by convention; odd total weight comes out 0
    from the recurrence itself.
    """
    lam_t = canonical_partition(lam, allow_zero=True)
    return _c_rec(lam_t)


def _c_rec(lam: tuple[int, ...]) -> Fraction:
    if lam == ():
        return Fraction(-2)
    hit = _C_CACHE.get(lam)
    if hit is not None:
        return hit
    p = len(lam)
    if lam[0] == 0:
        # Dropping one zero part multiplies by the shifted gamma-ratio slope.
        val = (Fraction(p) + Fraction(weight(lam), 4) - Fraction(3, 2)) * _c_rec(
            lam[1:]
        )
        _C_CACHE[lam] = val
        return val
    total = Fraction(0)
    for w, lam_l, lam_r in sub_multisets(lam):
        if lam_l and lam_r:
            total += w * _c_rec(lam_l) * _c_rec(lam_r)
    total /= 4
    # Lower-weight terms: second derivative in one slot, or first in two.
    for i in range(p):
        if lam[i] >= 2:
            sub = tuple(sorted(lam[:i] + (lam[i] - 2,) + lam[i + 1 :]))
            total += comb(lam[i], 2) * _c_rec(sub)
    for i in range(p):
        for j in range(i + 1, p):
            parts = list(lam)
            parts[i] -= 1
            parts[j] -= 1
            sub = tuple(sorted(parts))
            total += lam[i] * lam[j] * _c_rec(sub)
    _C_CACHE[lam] = total
    return total


def d_lambda(lam: Sequence[int]) -> Fraction:
    """Limit constant for a normalized-excursion moment, exact."""
    lam_t = canonical_partition(lam, allow_zero=True)
    return _d_rec(lam_t)


def _d_rec(lam: tuple[int, ...]) -> Fraction:
    if lam == ():
        return Fraction(-2)
    hit = _D_CACHE.get(lam)
    if hit is not None:
        return hit
    p = len(lam)
    if lam[0] == 0:
        val = (Fraction(p) + Fraction(weight(lam), 2) - Fraction(3, 2)) * _d_rec(
            lam[1:]
        )
        _D_CACHE[lam] = val
        return val
    total = Fraction(0)
    for w, lam_l, lam_r in sub_multisets(lam):
        if lam_l and lam_r:
            total += w * _d_rec(lam_l) * _d_rec(lam_r)
    total /= 4
    for i in range(p):
        sub = tuple(sorted(lam[:i] + (lam[i] - 1,) + lam[i + 1 :]))
        total += lam[i] * _d_rec(sub)
    _D_CACHE[lam] = total
    return total


@lru_cache(maxsize=None)
def a_coeff(k: int) -> Fraction:
    """Series coefficient a_k from the single-variable quadratic recurrence."""
    if k < 0:
        raise ValueError("index must be nonnegative")
    if k == 0:
        return Fraction(-2)
    total = Fraction(0)
    for i in range(1, k):
        total += comb(2 * k, 2 * i) * a_coeff(i) * a_coeff(k - i)
    total += (
        Fraction(k * (2 * k - 1) * (5 * k - 4) * (5 * k - 6)) * a_coeff(k - 1)
    )
    return total / 4


@lru_cache(maxsize=None)
def a_coeff2(k: int, ell: int) -> Fraction:
    """Two-index coefficient a_{k,l} from the bivariate recurrence."""
    if k < 0 or ell < 0:
        raise ValueError("indices must be nonnegative")
    if (k, ell) == (0, 0):
        return Fraction(-2)
    total = Fraction(0)
    for i in range(k + 1):
        for j in range(ell + 1):
            if (i, j) in ((0, 0), (k, ell)):
                continue
            total += (
                comb(2 * k, 2 * i)
                * comb(ell, j)
                * a_coeff2(i, j)
                * a_coeff2(k - i, ell - j)
            )
    total /= 4
    if ell >= 2:
        total += 2 * ell * (ell - 1) * a_coeff2(k + 1, ell - 2)
    if k >= 1:
        total += (
            Fraction(k * (2 * k - 1) * (5 * k + 3 * ell - 4) * (5 * k + 3 * ell - 6), 4)
            * a_coeff2(k - 1, ell)
        )
    if ell >= 1:
        total += (
            Fraction((4 * k + 1) * ell * (5 * k + 3 * ell - 4), 2)
            * a_coeff2(k, ell - 1)
        )
    return total


def limit_moment_ise(lam: Sequence[int]) -> float:
    """Limiting joint moment of the integrated-profile functional.

    E prod_i m_{lam_i} for the limit object; exact constants scaled by a
    gamma-ratio prefactor.
    """
    lam_t = canonical_partition(lam, allow_zero=True)
    p = len(lam_t)
    w = weight(lam_t)
    c = c_lambda(lam_t)
    if c == 0:
        return 0.0
    return (
        2.0 ** (-w / 4)
        * float(c)
        * math.sqrt(math.pi)
        / math.gamma(p + w / 4 - 0.5)
    )


def limit_moment_exc(lam: Sequence[int]) -> float:
    """Limiting joint moment of the normalized excursion functional."""
    lam_t = canonical_partition(lam, allow_zero=True)
    p = len(lam_t)
    w = weight(lam_t)
    d = d_lambda(lam_t)
    if d == 0:
        return 0.0
    return (
        2.0 ** (-3 * w / 2)
        * float(d)
        * math.sqrt(math.pi)
        / math.gamma(p + w / 2 - 0.5)
    )


def density0_moment(r: float) -> float:
    """Moment of order r of the limit density value at the origin.

    Defined for r > -4/3.
    """
    if r <= -4.0 / 3.0:
        raise ValueError("order must exceed -4/3")
    return (
        2.0 ** (r / 4)
        * 3.0 ** (-r)
        * math.gamma(0.75 * r + 1.0)
        / math.gamma(0.5 * r + 1.0)
    )


def abs_moment_ise(a: float) -> float:
    """Absolute moment of order a of the centered limit functional.

    Defined for a > -1; at even integers it matches limit_moment_ise on
    the single-part partition of that weight.
    """
    if a <= -1.0:
        raise ValueError("order must exceed -1")
    return (
        2.0 ** (0.75 * a)
        * math.gamma(0.5 * a + 0.5)
        * math.gamma(0.25 * a + 1.0)
        / math.sqrt(math.pi)
    )
