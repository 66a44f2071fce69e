"""The four labelled tree families, with every per-family difference as data.

A family is a value object: its counting constants, size rule, shape
class and edge increments are fields, and the other modules read those
fields instead of testing the family's name; the series engine derives
its recursion from the shape class and the increments.  Sizes are
measured in the family's own unit: edges for plane trees, nodes for
binary and complete binary trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb


@lru_cache(maxsize=None)
def catalan(n: int) -> int:
    """The n-th Catalan number, comb(2n, n) / (n + 1)."""
    if n < 0:
        raise ValueError("Catalan index must be non-negative")
    return comb(2 * n, n) // (n + 1)


@dataclass(frozen=True, eq=False)
class TreeFamily:
    """One labelled tree family.

    An object of series index i (the exponent of t that counts it) has
    node_mult[0] * i + node_mult[1] nodes, and every object has at least
    one node.  Plane trees (plane=True) are sized by edges and their
    children carry sibling ranks; the others are sized by nodes and their
    children carry a left (0) or right (1) role.  In a full tree every node
    has zero or two children.  Each edge steps the label by one of
    increments: independently per edge on plane trees, increments[role]
    on the others.

    gamma4 is the fourth power of the profile rescaling constant gamma,
    kept exact; gamma itself is irrational for three of the families.
    A family with engine_family set has no series engine of its own and
    sums over its internal nodes, which form a tree of engine_family.
    enum_cap is the largest size enumerate_trees and the oracle accept
    (the largest enumeration stays in the hundreds of thousands of
    shapes), and has_sampler says whether sample_tree can draw the family.
    Families compare by identity.
    """

    name: str
    tag: str
    gamma4: Fraction
    node_mult: tuple[int, int]
    plane: bool
    increments: tuple[int, ...]
    enum_cap: int
    full: bool = False
    engine_family: TreeFamily | None = None
    has_sampler: bool = True

    @property
    def gamma(self) -> float:
        return float(self.gamma4) ** 0.25

    @property
    def labellings_per_edge(self) -> int:
        """Label choices per edge: 1 when the shape fixes the labels."""
        return len(self.increments) if self.plane else 1

    @property
    def growth_base(self) -> int:
        """b with the counting series singular at t = 1/b."""
        return 4 * self.labellings_per_edge

    def _nodes(self, size: int) -> int:
        return size + 1 if self.plane else size

    def valid_size(self, size: int) -> bool:
        a, b = self.node_mult
        nodes = self._nodes(size)
        return nodes >= 1 and (nodes - b) % a == 0

    def series_index(self, size: int) -> int:
        """Exponent of t carrying this size in the family's series."""
        if not self.valid_size(size):
            raise ValueError(f"invalid {self.name} size {size}")
        a, b = self.node_mult
        return (self._nodes(size) - b) // a

    def count(self, size: int) -> int:
        """Number of labelled objects of the given size.

        A non-negative size that the node rule skips (an even number of
        nodes for complete binary trees) has no objects.
        """
        a, b = self.node_mult
        if size >= 0 and (self._nodes(size) - b) % a:
            return 0
        idx = self.series_index(size)
        return catalan(idx) * self.labellings_per_edge**idx

    def node_count(self, size: int) -> int:
        """Number of nodes of an object of the given size."""
        a, b = self.node_mult
        return a * self.series_index(size) + b

    def sizes_upto(self, max_size: int) -> list[int]:
        return [n for n in range(max_size + 1) if self.valid_size(n)]

    def __repr__(self):
        return f"TreeFamily({self.name})"


BINARY = TreeFamily(
    name="binary",
    tag="Binary",
    gamma4=Fraction(1, 2),
    node_mult=(1, 0),
    plane=False,
    increments=(-1, 1),
    enum_cap=12,
)

COMPLETE_BINARY = TreeFamily(
    name="complete",
    tag="CompleteBinary",
    gamma4=Fraction(1),
    node_mult=(2, 1),
    plane=False,
    increments=(-1, 1),
    enum_cap=25,
    full=True,
    engine_family=BINARY,
    has_sampler=False,
)

PLANE_PM1 = TreeFamily(
    name="plane_pm1",
    tag="PlanePM1",
    gamma4=Fraction(2),
    node_mult=(1, 1),
    plane=True,
    increments=(-1, 1),
    enum_cap=10,
)

PLANE_0PM1 = TreeFamily(
    name="plane_0pm1",
    tag="Plane0PM1",
    gamma4=Fraction(9, 2),
    node_mult=(1, 1),
    plane=True,
    increments=(-1, 0, 1),
    enum_cap=8,
)

FAMILIES: dict[str, TreeFamily] = {
    f.name: f for f in (BINARY, COMPLETE_BINARY, PLANE_PM1, PLANE_0PM1)
}


def get_family(name: str) -> TreeFamily:
    """Look up a family by registry name or tag."""
    if name in FAMILIES:
        return FAMILIES[name]
    for fam in FAMILIES.values():
        if fam.tag == name:
            return fam
    raise KeyError(f"unknown tree family {name!r}; choices: {sorted(FAMILIES)}")
