"""Tree encoding, profiles, exhaustive enumeration, and the brute oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest

from iselab import trees
from iselab.families import BINARY, COMPLETE_BINARY, PLANE_0PM1, PLANE_PM1
from iselab.trees import (
    LabelledTree,
    Profile,
    enumerate_trees,
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

    def test_equality_is_identity(self):
        twin = _tree(BINARY, [-1, 0, 1], [0, 1, 0], [0, 1, 0], [0, 1, 2])
        assert CHAIN == CHAIN
        assert CHAIN != twin

    def test_hash_is_identity(self):
        twin = _tree(BINARY, [-1, 0, 1], [0, 1, 0], [0, 1, 0], [0, 1, 2])
        assert hash(CHAIN) == hash(CHAIN)
        assert len({CHAIN, twin, CHAIN}) == 2

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

    def test_validate_rejects_binary_role_outside_left_right(self):
        bad = _tree(BINARY, [-1, 0], [0, 2], [0, -1], [0, 1])
        with pytest.raises(ValueError, match="roles must be 0"):
            bad.validate()

    def test_validate_rejects_binary_siblings_sharing_a_role(self):
        # Two left children: every label and depth is right.
        bad = _tree(COMPLETE_BINARY, [-1, 0, 0], [0, 0, 0], [0, -1, -1], [0, 1, 1])
        with pytest.raises(ValueError, match="distinct roles"):
            bad.validate()

    @pytest.mark.parametrize("role", [[0, 1, 0], [0, 0, 0], [0, 1, 2]])
    def test_validate_rejects_plane_sibling_ranks(self, role):
        # Root with two children: the ranks must read 0, 1 in id order.
        bad = _tree(PLANE_PM1, [-1, 0, 0], role, [0, 1, -1], [0, 1, 1])
        with pytest.raises(ValueError, match="sibling ranks"):
            bad.validate()

    @pytest.mark.parametrize(
        "parent, role, label, depth",
        [
            ([-1, 0], [0, 1], [0, 1], [0, 1]),
            ([-1, 0, 1], [0, 1, 1], [0, 1, 2], [0, 1, 2]),
            ([-1, 0, 0, 1], [0, 0, 1, 0], [0, -1, 1, -2], [0, 1, 1, 2]),
        ],
        ids=["root-one-child", "path", "deep-one-child"],
    )
    def test_validate_rejects_complete_node_with_one_child(self, parent, role, label, depth):
        # Each is a valid binary tree, so only fullness can reject it.
        _tree(BINARY, parent, role, label, depth).validate()
        bad = _tree(COMPLETE_BINARY, parent, role, label, depth)
        with pytest.raises(ValueError, match="zero or two children"):
            bad.validate()

    def test_validate_accepts_full_complete_trees(self):
        _tree(COMPLETE_BINARY, [-1], [0], [0], [0]).validate()
        _tree(COMPLETE_BINARY, [-1, 0, 0], [0, 0, 1], [0, -1, 1], [0, 1, 1]).validate()


class TestProfiles:
    def test_from_values(self):
        p = Profile.from_values(np.array([2, -1, 0, 0, 2]))
        assert p.offset == -1
        assert list(p.counts) == [1, 2, 0, 2]
        assert p.total == 5
        assert p.support == (-1, 2)

    def test_vertical_and_horizontal(self):
        v = vertical_profile(CHAIN)
        assert v.offset == 0
        assert list(v.counts) == [2, 1]


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
        cases = [(BINARY, range(1, 9)), (COMPLETE_BINARY, range(1, 12, 2)),
                 (PLANE_PM1, range(6)), (PLANE_0PM1, range(5))]
        for family, sizes in cases:
            for n in sizes:
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
        # The oracle shares the cap, plane families included.
        with pytest.raises(ValueError, match="cap"):
            oracle_power_product_totals(PLANE_PM1, PLANE_PM1.enum_cap + 1, [()])

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


class TestPlaneClasses:
    # Rooted unordered trees on n + 1 nodes (OEIS A000081).
    @pytest.mark.parametrize(
        "n, classes", list(enumerate([1, 1, 2, 4, 9, 20, 48, 115, 286]))
    )
    def test_class_counts(self, n, classes):
        shapes, mult = trees._plane_classes(n)
        assert len(shapes) == len(mult) == classes
        assert sum(mult) == len(trees._plane_shapes(n)) == math.comb(2 * n, n) // (n + 1)

    def test_largest_multiplicity_at_eight(self):
        assert max(trees._plane_classes(8)[1]) == 24


def _per_object_totals(family, n, lams):
    """(totals by partition, object count) by a Python loop over every object."""
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
    return want, seen


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

    @pytest.mark.parametrize("family", [PLANE_PM1, PLANE_0PM1, BINARY, COMPLETE_BINARY])
    @pytest.mark.parametrize("block", [None, 500])
    def test_plane_blocks_match_per_object_loop(self, family, block, monkeypatch):
        # Every family, despite the name.  The default block holds every
        # object here.  500 label entries give blocks of one to six plane
        # classes at n = 4 and 5, with plane_pm1 at n = 4 ending on a
        # shorter block (9 classes = 6 + 3); binary shapes at n = 6 and 7
        # (83 and 71 a block: 132 = 83 + 49 and 429 = 6 * 71 + 3), and
        # complete shapes at n = 13 (38 a block: 132 = 3 * 38 + 18).
        if block is not None:
            monkeypatch.setattr(trees, "_ORACLE_BLOCK", block)
        # (10, 10, 10) overflows the int64 bound and takes the Python-int path.
        lams = [(), (1,), (2, 2), (1, 1, 4), (10, 10, 10)]
        max_size = {PLANE_PM1: 5, PLANE_0PM1: 5, BINARY: 7, COMPLETE_BINARY: 13}[family]
        for n in family.sizes_upto(max_size):
            totals, count = oracle_power_product_totals(family, n, lams)
            want, seen = _per_object_totals(family, n, lams)
            assert count == seen == family.count(n)
            assert totals == want

    def test_plane_pm1_matches_per_object_loop_at_six(self):
        # 132 shapes in 48 classes with multiplicities up to 6: 8448 objects.
        lams = [(), (1,), (2, 2), (1, 1, 4)]
        totals, count = oracle_power_product_totals(PLANE_PM1, 6, lams)
        want, seen = _per_object_totals(PLANE_PM1, 6, lams)
        assert count == seen == 8448
        assert totals == want

    def test_plane_power_sums_exact_up_to_float_range(self):
        # 5 * 4^25 < 2^53 <= 5 * 4^26: the largest power summed in float64 at n = 4.
        totals, _ = oracle_power_product_totals(PLANE_PM1, 4, [(25,)])
        slow = sum(
            sum(int(x) ** 25 for x in t.label) for t in enumerate_trees(PLANE_PM1, 4)
        )
        assert totals[(25,)] == slow

    @staticmethod
    def _check_past_float_range(family, n, lams):
        nodes = family.node_count(n)
        assert nodes * (nodes - 1) ** max(max(lam) for lam in lams) >= 2**53
        totals, count = oracle_power_product_totals(family, n, lams)
        want, seen = _per_object_totals(family, n, lams)
        assert count == seen == family.count(n)
        assert totals == want
        return totals

    def test_plane_exact_past_float_range(self):
        # 5 * 4^32 >= 2^53: power sums in Python ints.  The power-32 total
        # needs more than 64 bits, so int64 power sums would wrap.
        totals = self._check_past_float_range(PLANE_PM1, 4, [(32,)])
        assert totals[(32,)] == 36945373434261461040 > 2**64
        self._check_past_float_range(PLANE_PM1, 4, [(2,), (1, 26)])

    @pytest.mark.parametrize("family", [BINARY, COMPLETE_BINARY])
    def test_binary_exact_past_float_range(self, family):
        # 9 * 8^20 >= 2^53, on 4862 binary and 14 complete shapes.
        self._check_past_float_range(family, 9, [(20,)])

    def test_even_complete_size_rejected(self):
        with pytest.raises(ValueError, match="invalid"):
            oracle_moment(COMPLETE_BINARY, (2,), 4)
