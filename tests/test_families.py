"""Family descriptors: sizes, counts, scaling constants, dispatch."""

from fractions import Fraction

import pytest

from iselab import cli
from iselab.families import (
    BINARY,
    COMPLETE_BINARY,
    FAMILIES,
    PLANE_0PM1,
    PLANE_PM1,
    catalan,
    get_family,
)
from iselab.sampler import SeedSpec, sample_tree
from iselab.trees import enumerate_trees, shape_key


def test_catalan_values():
    assert [catalan(n) for n in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]


def test_counts():
    assert BINARY.count(4) == 14
    assert COMPLETE_BINARY.count(7) == 5
    assert COMPLETE_BINARY.count(4) == 0
    assert PLANE_PM1.count(3) == 5 * 8
    assert PLANE_0PM1.count(2) == 2 * 9


def test_valid_sizes_and_indices():
    assert BINARY.sizes_upto(4) == [1, 2, 3, 4]
    assert COMPLETE_BINARY.sizes_upto(8) == [1, 3, 5, 7]
    assert PLANE_PM1.sizes_upto(3) == [0, 1, 2, 3]
    assert COMPLETE_BINARY.series_index(7) == 3
    assert BINARY.series_index(5) == 5


def test_node_count():
    assert BINARY.node_count(5) == 5
    assert PLANE_PM1.node_count(5) == 6
    assert COMPLETE_BINARY.node_count(5) == 5


def test_gamma_constants():
    assert BINARY.gamma4 == Fraction(1, 2)
    assert COMPLETE_BINARY.gamma4 == 1
    assert PLANE_PM1.gamma4 == 2
    assert PLANE_0PM1.gamma4 == Fraction(9, 2)
    assert BINARY.gamma == pytest.approx(0.5**0.25)
    assert COMPLETE_BINARY.gamma == 1.0


def test_growth_bases():
    assert [f.growth_base for f in (BINARY, COMPLETE_BINARY, PLANE_PM1, PLANE_0PM1)] == [
        4,
        4,
        8,
        12,
    ]


def test_labellings_and_increments():
    assert PLANE_PM1.increments == (-1, 1)
    assert PLANE_0PM1.increments == (-1, 0, 1)
    assert PLANE_PM1.labellings_per_edge == 2
    assert PLANE_0PM1.labellings_per_edge == 3


def test_get_family_by_name_and_tag():
    assert get_family("binary") is BINARY
    assert get_family("CompleteBinary") is COMPLETE_BINARY
    with pytest.raises(KeyError):
        get_family("nonsense")


def test_registry_complete():
    assert set(FAMILIES) == {"binary", "complete", "plane_pm1", "plane_0pm1"}


def test_invalid_sizes_rejected():
    assert not COMPLETE_BINARY.valid_size(2)
    assert not BINARY.valid_size(0)
    assert PLANE_PM1.valid_size(0)


# Counts are checked by exhausting the enumeration up to this many objects;
# every other property is checked at every size up to the enumeration cap.
COUNT_BUDGET = 5000


@pytest.mark.parametrize("family", FAMILIES.values(), ids=lambda f: f.name)
def test_family_data_agrees_with_enumeration_and_samplers(family, capsys):
    a, b = family.node_mult
    valid, steps = [], set()
    for n in range(-1, family.enum_cap + 1):
        if not family.valid_size(n):
            with pytest.raises(ValueError, match="invalid"):
                next(enumerate_trees(family, n))
            continue
        valid.append(n)
        objects = enumerate_trees(family, n)
        first = next(objects)
        assert first.size == n
        assert first.n_nodes == family.node_count(n) == a * family.series_index(n) + b
        if family.count(n) <= COUNT_BUDGET:
            trees = [first, *objects]
            assert len(trees) == family.count(n)
            shapes = {shape_key(t) for t in trees}
            assert len(shapes) == catalan(family.series_index(n))
            for t in trees:
                steps.update((t.label[1:] - t.label[t.parent[1:]]).tolist())
    assert family.sizes_upto(family.enum_cap) == valid
    with pytest.raises(ValueError, match="enumeration cap"):
        next(enumerate_trees(family, family.enum_cap + 1))
    assert sorted(steps) == sorted(family.increments)

    n = valid[-1]
    code = cli.main(["profile", "--family", family.name, "--n", "16", "--samples", "2"])
    err = capsys.readouterr().err
    if family.has_sampler:
        assert sample_tree(family, n, SeedSpec(1)).size == n
        assert code == 0
    else:
        with pytest.raises(ValueError, match=f"^no sampler for family {family.name}$"):
            sample_tree(family, n, SeedSpec(1))
        assert code == 2
        assert err == f"iselab: error: no sampler is defined for the {family.name} family\n"


def test_only_complete_trees_lack_a_sampler():
    assert [f.name for f in FAMILIES.values() if not f.has_sampler] == ["complete"]
