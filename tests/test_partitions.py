"""Partition utilities, Stirling conversions, shifted polynomial bases."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iselab.partitions import (
    binom_product,
    canonical_partition,
    falling_poly,
    positive_partitions,
    power_shift_poly,
    stirling2,
    stirling_expansions,
    sub_multisets,
    weight,
)


class TestCanonical:
    def test_sorts_and_accepts_zero(self):
        assert canonical_partition((3, 1, 2)) == (1, 2, 3)
        assert canonical_partition((0, 2)) == (0, 2)
        assert canonical_partition(()) == ()

    def test_rejects_negative_and_nonint(self):
        with pytest.raises(ValueError):
            canonical_partition((-1,))
        with pytest.raises(TypeError):
            canonical_partition((1.5,))
        with pytest.raises(TypeError):
            canonical_partition((True,))

    def test_zero_toggle(self):
        with pytest.raises(ValueError):
            canonical_partition((0, 1), allow_zero=False)

    def test_weight(self):
        assert weight((1, 2, 3)) == 6
        assert weight(()) == 0


class TestEnumeration:
    def test_positive_partitions_small(self):
        got = sorted(positive_partitions(3, 2))
        assert got == [(1,), (1, 1), (1, 2), (2,), (3,)]

    def test_length_cap(self):
        assert all(len(p) <= 3 for p in positive_partitions(6, 3))
        assert len(list(positive_partitions(6, 3))) == 22


class TestStirling:
    def test_table_values(self):
        assert stirling2(0, 0) == 1
        assert stirling2(4, 2) == 7
        assert stirling2(5, 3) == 25
        assert stirling2(3, 0) == 0

    @given(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7))
    @settings(max_examples=50, deadline=None)
    def test_power_equals_stirling_falling_sum(self, k, x):
        # x^k = sum_j S(k,j) * x falling j
        total = 0
        for j in range(k + 1):
            ff = 1
            for i in range(j):
                ff *= x - i
            total += stirling2(k, j) * ff
        assert total == x**k


class TestPolynomialBases:
    def test_falling_poly_shift_zero(self):
        # x(x-1) = -x + x^2
        assert falling_poly(2, 0) == (0, -1, 1)

    def test_falling_poly_shifted(self):
        # (x+1)x = x + x^2
        assert falling_poly(2, 1) == (0, 1, 1)
        # (x-1)(x-2) = 2 - 3x + x^2
        assert falling_poly(2, -1) == (2, -3, 1)

    def test_falling_poly_degree_zero(self):
        assert falling_poly(0, 5) == (1,)

    def test_power_shift_poly(self):
        # (x+1)^2 = 1 + 2x + x^2
        assert power_shift_poly(2, 1) == (1, 2, 1)
        # (x-1)^3 = -1 + 3x - 3x^2 + x^3
        assert power_shift_poly(3, -1) == (-1, 3, -3, 1)

    @given(st.integers(min_value=0, max_value=6), st.integers(min_value=-2, max_value=2),
           st.integers(min_value=-4, max_value=4))
    @settings(max_examples=80, deadline=None)
    def test_bases_evaluate_correctly(self, k, shift, x):
        fall = sum(c * x**i for i, c in enumerate(falling_poly(k, shift)))
        direct = 1
        for i in range(k):
            direct *= x + shift - i
        assert fall == direct
        powr = sum(c * x**i for i, c in enumerate(power_shift_poly(k, shift)))
        assert powr == (x + shift) ** k


class TestExpansions:
    def test_binom_product(self):
        assert binom_product((2, 3), (1, 2)) == 2 * 3

    def test_stirling_expansions_single(self):
        got = {js: w for w, js in stirling_expansions((2,))}
        # x^2 = x + x(x-1): factorial indices j=1 weight 1, j=2 weight 1
        assert got == {(1,): 1, (2,): 1}

    def test_stirling_expansions_product(self):
        got = {js: w for w, js in stirling_expansions((2, 2))}
        assert got == {(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 1}

    def test_rejects_zero_parts(self):
        with pytest.raises(ValueError):
            list(stirling_expansions((0, 1)))

    def test_sub_multisets_small(self):
        got = sorted(sub_multisets((1, 1, 2)))
        assert got == [
            (1, (), (1, 1, 2)),
            (1, (1, 1), (2,)),
            (1, (1, 1, 2), ()),
            (1, (2,), (1, 1)),
            (2, (1,), (1, 2)),
            (2, (1, 2), (1,)),
        ]
        assert list(sub_multisets(())) == [(1, (), ())]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=4), max_size=8))
    def test_sub_multisets_match_index_masks(self, parts):
        lam = tuple(sorted(parts))
        p = len(lam)
        splits = list(sub_multisets(lam))
        assert sum(w for w, _, _ in splits) == 2**p
        for _, left, right in splits:
            assert left == tuple(sorted(left)) and right == tuple(sorted(right))
            assert tuple(sorted(left + right)) == lam
        masks = Counter(
            (
                tuple(lam[i] for i in range(p) if mask >> i & 1),
                tuple(lam[i] for i in range(p) if not mask >> i & 1),
            )
            for mask in range(1 << p)
        )
        assert {(left, right): w for w, left, right in splits} == dict(masks)
        assert len(splits) == len(masks)
