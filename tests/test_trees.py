"""Tree encoding, profiles, exhaustive enumeration, and the brute oracle."""

from fractions import Fraction

import numpy as np
import pytest

from iselab import trees
from iselab.families import BINARY, COMPLETE_BINARY, PLANE_0PM1, PLANE_PM1, increments
from iselab.trees import (
    LabelledTree,
    Profile,
    enumerate_trees,
    horizontal_profile,
    oracle_moment,
    oracle_power_product_totals,
    shape_key,
    vertical_profile,
)


def _tree(family, parent, role, label, depth):
    arrs = [np.array(a, dtype=np.int64) for a in (parent, role, label, depth)]
    return LabelledTree(family, *arrs)


# Root, its right child, that child's left child.
CHAIN = _tree(BINARY, [-1, 0, 1], [0, 1, 0], [0, 1, 0], [0, 1, 2])


class TestLabelledTree:
    def test_size_units(self):
        assert CHAIN.n_nodes == 3
        assert CHAIN.size == 3
        edge = _tree(PLANE_PM1, [-1, 0], [0, 0], [0, 1], [0, 1])
        assert edge.n_nodes == 2
        assert edge.size == 1

    def test_validate_accepts_well_formed(self):
        CHAIN.validate()

    def test_validate_rejects_two_roots(self):
        bad = _tree(BINARY, [-1, -1], [0, 0], [0, 0], [0, 0])
        with pytest.raises(ValueError, match="one root"):
            bad.validate()

    def test_validate_rejects_root_label(self):
        bad = _tree(BINARY, [-1], [0], [3], [0])
        with pytest.raises(ValueError, match="label 0"):
            bad.validate()

    def test_validate_rejects_depth_jump(self):
        bad = _tree(BINARY, [-1, 0], [0, 1], [0, 1], [0, 2])
        with pytest.raises(ValueError, match="depth"):
            bad.validate()

    def test_validate_rejects_binary_label_rule(self):
        bad = _tree(BINARY, [-1, 0], [0, 1], [0, -1], [0, 1])
        with pytest.raises(ValueError, match="left/right"):
            bad.validate()

    def test_validate_rejects_foreign_increment(self):
        bad = _tree(PLANE_PM1, [-1, 0], [0, 0], [0, 2], [0, 1])
        with pytest.raises(ValueError, match="increment"):
            bad.validate()


class TestProfiles:
    def test_from_values(self):
        p = Profile.from_values(np.array([2, -1, 0, 0, 2]))
        assert p.offset == -1
        assert list(p.counts) == [1, 2, 0, 2]
        assert p.total == 5
        assert p.support == (-1, 2)

    def test_value_at_outside_support(self):
        p = Profile.from_values(np.array([0, 1]))
        assert p.value_at(0) == 1
        assert p.value_at(1) == 1
        assert p.value_at(2) == 0
        assert p.value_at(-5) == 0

    def test_vertical_and_horizontal(self):
        v = vertical_profile(CHAIN)
        assert v.offset == 0
        assert list(v.counts) == [2, 1]
        h = horizontal_profile(CHAIN)
        assert h.offset == 0
        assert list(h.counts) == [1, 1, 1]


class TestEnumeration:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_binary_counts(self, n):
        trees = list(enumerate_trees(BINARY, n))
        assert len(trees) == BINARY.count(n)
        keys = {shape_key(t) for t in trees}
        assert len(keys) == len(trees)

    @pytest.mark.parametrize("n", [1, 3, 5, 7])
    def test_complete_counts(self, n):
        trees = list(enumerate_trees(COMPLETE_BINARY, n))
        assert len(trees) == COMPLETE_BINARY.count(n)
        for t in trees:
            assert t.n_nodes == n

    @pytest.mark.parametrize("family", [PLANE_PM1, PLANE_0PM1])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_plane_counts(self, family, n):
        trees = list(enumerate_trees(family, n))
        assert len(trees) == family.count(n)

    def test_enumerated_trees_validate(self):
        for family, n in [(BINARY, 4), (COMPLETE_BINARY, 5), (PLANE_PM1, 3), (PLANE_0PM1, 2)]:
            for t in enumerate_trees(family, n):
                t.validate()

    def test_plane_labellings_distinct(self):
        seen = set()
        for t in enumerate_trees(PLANE_0PM1, 2):
            seen.add((shape_key(t), tuple(int(x) for x in t.label)))
        assert len(seen) == PLANE_0PM1.count(2)

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            next(enumerate_trees(BINARY, 13))
        # An explicit max_size overrides the default cap.
        it = enumerate_trees(BINARY, 13, max_size=13)
        next(it).validate()

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError, match="invalid"):
            next(enumerate_trees(COMPLETE_BINARY, 4))


class TestShapeKey:
    def test_invariant_under_id_order(self):
        # CHAIN again, nodes stored child-first instead of preorder.
        other = _tree(BINARY, [1, 2, -1], [0, 1, 0], [0, 1, 0], [2, 1, 0])
        assert shape_key(other) == shape_key(CHAIN)

    def test_separates_mirror_shapes(self):
        left = _tree(BINARY, [-1, 0], [0, 0], [0, -1], [0, 1])
        right = _tree(BINARY, [-1, 0], [0, 1], [0, 1], [0, 1])
        assert shape_key(left) != shape_key(right)

    def test_plane_sibling_order(self):
        # Root with children (leaf, 1-chain) vs (1-chain, leaf).
        a = _tree(PLANE_PM1, [-1, 0, 0, 2], [0, 0, 1, 0], [0, 1, 1, 0], [0, 1, 1, 2])
        b = _tree(PLANE_PM1, [-1, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 1], [0, 1, 2, 1])
        assert shape_key(a) != shape_key(b)


class TestOracle:
    def test_binary_quadratic(self):
        assert oracle_moment(BINARY, (2,), 2) == 1
        assert oracle_moment(BINARY, (2,), 3) == Fraction(14, 5)

    def test_plane_pm1_quadratic(self):
        assert oracle_moment(PLANE_PM1, (2,), 1) == 1

    def test_odd_weight_vanishes(self):
        # Label sign symmetry kills odd power sums on these families.
        assert oracle_moment(BINARY, (1,), 4) == 0
        assert oracle_moment(PLANE_0PM1, (3,), 2) == 0

    def test_empty_partition_counts_objects(self):
        totals, count = oracle_power_product_totals(BINARY, 3, [()])
        assert count == BINARY.count(3)
        assert totals[()] == count

    def test_plane_matches_scalar_recount(self):
        # Vectorized plane path vs a direct per-tree loop.
        lam = (1, 1, 2)
        totals, count = oracle_power_product_totals(PLANE_PM1, 3, [lam])
        slow = 0
        seen = 0
        for t in enumerate_trees(PLANE_PM1, 3):
            seen += 1
            s1 = int(sum(int(x) for x in t.label))
            s2 = int(sum(int(x) ** 2 for x in t.label))
            slow += s1 * s1 * s2
        assert seen == count
        assert totals[lam] == slow

    @pytest.mark.parametrize("family", [PLANE_PM1, PLANE_0PM1])
    @pytest.mark.parametrize("block", [None, 500])
    def test_plane_blocks_match_per_object_loop(self, family, block, monkeypatch):
        # At n <= 5 the default block holds every shape; 500 label entries
        # give blocks of one to six shapes at n = 4 and 5 and a shorter last
        # block where the shape count does not divide (14 = 6 + 6 + 2).
        if block is not None:
            monkeypatch.setattr(trees, "_ORACLE_BLOCK", block)
        # (10, 10, 10) overflows the int64 bound and takes the Python-int path.
        lams = [(), (1,), (2, 2), (1, 1, 4), (10, 10, 10)]
        for n in range(6):
            totals, count = oracle_power_product_totals(family, n, lams)
            want = {lam: 0 for lam in lams}
            seen = 0
            for t in enumerate_trees(family, n):
                seen += 1
                labels = [int(x) for x in t.label]
                for lam in lams:
                    term = 1
                    for part in lam:
                        term *= sum(x**part for x in labels)
                    want[lam] += term
            assert count == seen == family.count(n)
            assert totals == want

    def test_plane_power_sums_exact_up_to_float_range(self):
        # 5 * 4^25 < 2^53 <= 5 * 4^26: the largest power accepted at n = 4.
        totals, _ = oracle_power_product_totals(PLANE_PM1, 4, [(25,)])
        slow = sum(
            sum(int(x) ** 25 for x in t.label) for t in enumerate_trees(PLANE_PM1, 4)
        )
        assert totals[(25,)] == slow

    def test_plane_refuses_powers_past_float_range(self):
        # The true total needs more than 64 bits; int64 power sums wrapped.
        slow = sum(
            sum(int(x) ** 32 for x in t.label) for t in enumerate_trees(PLANE_PM1, 4)
        )
        assert slow == 36945373434261461040 > 2**64
        with pytest.raises(ValueError, match="exact float64 range"):
            oracle_power_product_totals(PLANE_PM1, 4, [(32,)])
        with pytest.raises(ValueError, match="exact float64 range"):
            oracle_power_product_totals(PLANE_PM1, 4, [(2,), (1, 26)])

    def test_even_complete_size_rejected(self):
        with pytest.raises(ValueError, match="invalid"):
            oracle_moment(COMPLETE_BINARY, (2,), 4)
