"""Extended partitions and factorial-basis combinatorics.

An extended partition is a sorted non-decreasing tuple of non-negative
integers; ordinary partitions have all parts positive.  This module owns
the canonical form, partition enumeration, sub-multiset splits, Stirling
numbers, and the small integer-polynomial helpers used to change between
power and falling factorial bases.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator, Sequence


def canonical_partition(parts: Iterable[int], allow_zero: bool = True) -> tuple[int, ...]:
    """Sorted non-decreasing tuple of validated integer parts."""
    out = []
    for p in parts:
        if not isinstance(p, int) or isinstance(p, bool):
            raise TypeError(f"partition parts must be integers, got {p!r}")
        if p < 0:
            raise ValueError(f"partition parts must be non-negative, got {p}")
        if p == 0 and not allow_zero:
            raise ValueError("zero parts are not allowed here")
        out.append(p)
    return tuple(sorted(out))


def weight(lam: Sequence[int]) -> int:
    return sum(lam)


def positive_partitions(max_weight: int, max_length: int) -> Iterator[tuple[int, ...]]:
    """All partitions with positive parts, weight <= max_weight, length <= max_length.

    Emitted in non-decreasing part order, sorted by (weight, length, parts).
    """
    found: list[tuple[int, ...]] = []

    def rec(prefix: list[int], remaining: int, min_part: int) -> None:
        if prefix:
            found.append(tuple(prefix))
        if len(prefix) == max_length:
            return
        for p in range(min_part, remaining + 1):
            prefix.append(p)
            rec(prefix, remaining - p, p)
            prefix.pop()

    rec([], max_weight, 1)
    found.sort(key=lambda lam: (sum(lam), len(lam), lam))
    yield from found


@lru_cache(maxsize=None)
def stirling2(k: int, j: int) -> int:
    """Stirling number of the second kind S(k, j)."""
    if k < 0 or j < 0:
        raise ValueError("Stirling indices must be non-negative")
    if k == j:
        return 1
    if j == 0 or j > k:
        return 0
    return j * stirling2(k - 1, j) + stirling2(k - 1, j - 1)


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


@lru_cache(maxsize=None)
def falling_poly(k: int, shift: int) -> tuple[int, ...]:
    """Power-basis coefficients of (x+shift)(x+shift-1)...(x+shift-k+1).

    Index r holds the coefficient of x^r; k = 0 gives the constant 1.
    """
    if k < 0:
        raise ValueError("falling factorial length must be non-negative")
    poly = [1]
    for i in range(k):
        poly = _poly_mul(poly, [shift - i, 1])
    return tuple(poly)


@lru_cache(maxsize=None)
def power_shift_poly(r: int, shift: int) -> tuple[int, ...]:
    """Power-basis coefficients of (x + shift)^r."""
    if r < 0:
        raise ValueError("exponent must be non-negative")
    return tuple(comb(r, i) * shift ** (r - i) for i in range(r + 1))


def binom_product(lam: Sequence[int], sigma: Sequence[int]) -> int:
    """Componentwise product of binomial coefficients binom(lam_i, sigma_i)."""
    total = 1
    for a, b in zip(lam, sigma):
        total *= comb(a, b)
    return total


def sub_multisets(
    lam: Sequence[int],
) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """Split a sorted partition into (weight, left, right), once per sub-multiset.

    left runs over the distinct sub-multisets of lam and right is its
    complement; both come out sorted.  weight counts the index subsets of
    lam that give this split, the product of binom(m_j, k_j) over the
    multiplicities m_j of lam and k_j of left, so the weights sum to
    2^len(lam).
    """
    values: list[int] = []
    mults: list[int] = []
    for part in lam:
        if values and values[-1] == part:
            mults[-1] += 1
        else:
            values.append(part)
            mults.append(1)
    for ks in itertools.product(*(range(m + 1) for m in mults)):
        left: tuple[int, ...] = ()
        right: tuple[int, ...] = ()
        for v, m, k in zip(values, mults, ks):
            left += (v,) * k
            right += (v,) * (m - k)
        yield binom_product(mults, ks), left, right


def stirling_expansions(lam: Sequence[int]) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Expand a product of power sums into falling-factorial sums.

    Yields (weight, j) pairs so that prod_i PS_power(lam_i) equals the sum
    over pairs of weight * prod_i FF(j_i), with each j_i in 1..lam_i.  All
    lam parts must be positive.
    """
    parts = list(lam)
    if any(p <= 0 for p in parts):
        raise ValueError("stirling_expansions needs positive parts")

    def rec(i: int, w: int, js: list[int]) -> Iterator[tuple[int, tuple[int, ...]]]:
        if i == len(parts):
            yield w, tuple(js)
            return
        for j in range(1, parts[i] + 1):
            s = stirling2(parts[i], j)
            if s:
                js.append(j)
                yield from rec(i + 1, w * s, js)
                js.pop()

    yield from rec(0, 1, [])


def fraction_sum(values: Iterable[Fraction]) -> Fraction:
    total = Fraction(0)
    for v in values:
        total += v
    return total
