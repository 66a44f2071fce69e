"""Labelled trees, profiles, exhaustive enumeration, and the brute-force oracle.

Trees are stored as flat arrays indexed by preorder node id (samplers may
use other id orders; shape_key canonicalizes).  The enumerator yields every
labelled object of a family and size exactly once and is the ground truth
the series machinery is tested against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .families import TreeFamily, increments

# Default enumeration caps (configurable per call); chosen so the largest
# family enumeration stays in the hundreds of thousands of objects.
DEFAULT_CAPS = {"binary": 12, "complete": 25, "plane_pm1": 10, "plane_0pm1": 8}


@dataclass(frozen=True)
class LabelledTree:
    """Array-encoded rooted labelled tree.

    parent[v] is -1 at the root; child_role[v] is 0/1 for binary left and
    right children and the sibling index for plane trees; label carries the
    vertical labels and depth the root distances.
    """

    family: TreeFamily
    parent: np.ndarray
    child_role: np.ndarray
    label: np.ndarray
    depth: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.parent)

    @property
    def size(self) -> int:
        """Size in the family's own unit (nodes, or edges for plane trees)."""
        if self.family.size_unit == "edges":
            return self.n_nodes - 1
        return self.n_nodes

    def validate(self) -> None:
        """Check structural and labelling invariants; raises on violation."""
        n = self.n_nodes
        roots = np.flatnonzero(self.parent < 0)
        if len(roots) != 1:
            raise ValueError("tree must have exactly one root")
        r = roots[0]
        if self.label[r] != 0 or self.depth[r] != 0:
            raise ValueError("root must carry label 0 and depth 0")
        incs = set(increments(self.family))
        for v in range(n):
            p = self.parent[v]
            if p < 0:
                continue
            if self.depth[v] != self.depth[p] + 1:
                raise ValueError("depth must increase by 1 along edges")
            step = int(self.label[v] - self.label[p])
            if self.family.name in ("binary", "complete"):
                want = 1 if self.child_role[v] == 1 else -1
                if step != want:
                    raise ValueError("binary labels must follow the left/right rule")
            elif step not in incs:
                raise ValueError(f"label increment {step} outside {sorted(incs)}")


@dataclass(frozen=True)
class Profile:
    """Occupancy counts of an integer-valued node statistic.

    counts[i] is the number of nodes with value offset + i; both end
    entries are nonzero and the counts sum to the node count.
    """

    offset: int
    counts: np.ndarray

    @classmethod
    def from_values(cls, values: np.ndarray) -> "Profile":
        values = np.asarray(values, dtype=np.int64)
        lo = int(values.min())
        counts = np.bincount(values - lo)
        counts.setflags(write=False)
        return cls(offset=lo, counts=counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def support(self) -> tuple[int, int]:
        return self.offset, self.offset + len(self.counts) - 1

    def value_at(self, j: int) -> int:
        i = j - self.offset
        if 0 <= i < len(self.counts):
            return int(self.counts[i])
        return 0


def vertical_profile(tree: LabelledTree) -> Profile:
    """Node counts by vertical label."""
    return Profile.from_values(tree.label)


def horizontal_profile(tree: LabelledTree) -> Profile:
    """Node counts by depth."""
    return Profile.from_values(tree.depth)


# Binary shapes are nested pairs: a node is (left, right) with None for a
# missing child.  Shared substructure keeps memory modest through n = 12.
@lru_cache(maxsize=None)
def _binary_shapes(n: int) -> tuple:
    if n == 0:
        return (None,)
    out = []
    for k in range(n):
        for left in _binary_shapes(k):
            for right in _binary_shapes(n - 1 - k):
                out.append((left, right))
    return tuple(out)


# Plane shapes are tuples of child shapes.
@lru_cache(maxsize=None)
def _plane_shapes(n: int) -> tuple:
    if n == 0:
        return ((),)
    out = []
    for i in range(1, n + 1):
        for first in _plane_shapes(i - 1):
            for rest in _plane_shapes(n - i):
                out.append((first,) + rest)
    return tuple(out)


def _binary_tree_arrays(shape) -> tuple[np.ndarray, ...]:
    parent, role, label, depth = [], [], [], []

    def walk(node, par: int, rl: int) -> None:
        if node is None:
            return
        v = len(parent)
        parent.append(par)
        role.append(rl)
        if par < 0:
            label.append(0)
            depth.append(0)
        else:
            label.append(label[par] + (1 if rl == 1 else -1))
            depth.append(depth[par] + 1)
        walk(node[0], v, 0)
        walk(node[1], v, 1)

    walk(shape, -1, 0)
    return tuple(np.array(a, dtype=np.int64) for a in (parent, role, label, depth))


def _complete_tree_arrays(shape) -> tuple[np.ndarray, ...]:
    # Every shape node becomes an internal node with both child slots
    # filled, absent children becoming leaves; labels follow the same
    # left -1 / right +1 rule.
    parent, role, label, depth = [], [], [], []

    def add(par: int, rl: int) -> int:
        v = len(parent)
        parent.append(par)
        role.append(rl)
        if par < 0:
            label.append(0)
            depth.append(0)
        else:
            label.append(label[par] + (1 if rl == 1 else -1))
            depth.append(depth[par] + 1)
        return v

    def walk(node, par: int, rl: int) -> None:
        v = add(par, rl)
        if node is None:
            return
        walk(node[0], v, 0)
        walk(node[1], v, 1)

    walk(shape, -1, 0)
    return tuple(np.array(a, dtype=np.int64) for a in (parent, role, label, depth))


def _plane_parent_arrays(shape) -> tuple[np.ndarray, np.ndarray]:
    parent, role = [], []

    def walk(node, par: int, rl: int) -> None:
        v = len(parent)
        parent.append(par)
        role.append(rl)
        for i, child in enumerate(node):
            walk(child, v, i)

    walk(shape, -1, 0)
    return np.array(parent, dtype=np.int64), np.array(role, dtype=np.int64)


def _depths_from_parents(parent: np.ndarray) -> np.ndarray:
    depth = np.zeros(len(parent), dtype=np.int64)
    for v in range(1, len(parent)):
        depth[v] = depth[parent[v]] + 1
    return depth


def enumerate_trees(
    family: TreeFamily, n: int, max_size: int | None = None
) -> Iterator[LabelledTree]:
    """Yield each labelled object of the given size exactly once.

    Binary and complete trees carry their deterministic labelling; plane
    trees are yielded once per edge-increment assignment.  Sizes above the
    per-family cap (overridable via max_size) raise ValueError.
    """
    cap = max_size if max_size is not None else DEFAULT_CAPS[family.name]
    if n > cap:
        raise ValueError(f"size {n} above enumeration cap {cap} for {family.name}")
    if not family.valid_size(n):
        raise ValueError(f"invalid {family.name} size {n}")

    if family.name == "binary":
        for shape in _binary_shapes(n):
            parent, role, label, depth = _binary_tree_arrays(shape)
            yield LabelledTree(family, parent, role, label, depth)
        return

    if family.name == "complete":
        for shape in _binary_shapes((n - 1) // 2):
            parent, role, label, depth = _complete_tree_arrays(shape)
            yield LabelledTree(family, parent, role, label, depth)
        return

    incs = increments(family)
    for shape in _plane_shapes(n):
        parent, role = _plane_parent_arrays(shape)
        depth = _depths_from_parents(parent)
        for assignment in itertools.product(incs, repeat=n):
            label = np.zeros(n + 1, dtype=np.int64)
            for v in range(1, n + 1):
                label[v] = label[parent[v]] + assignment[v - 1]
            yield LabelledTree(family, parent, role, label, depth)


def shape_key(tree: LabelledTree) -> tuple:
    """Canonical structure key, independent of node id order."""
    n = tree.n_nodes
    children: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    root = -1
    for v in range(n):
        p = int(tree.parent[v])
        if p < 0:
            root = v
        else:
            children[p].append((int(tree.child_role[v]), v))
    out: list[int] = []
    if tree.family.name in ("binary", "complete"):
        # Emit per node a 2-bit presence mask for (left, right).
        stack = [root]
        while stack:
            v = stack.pop()
            mask = 0
            right = left = None
            for rl, c in children[v]:
                if rl == 1:
                    mask |= 2
                    right = c
                else:
                    mask |= 1
                    left = c
            out.append(mask)
            if right is not None:
                stack.append(right)
            if left is not None:
                stack.append(left)
    else:
        # Emit child counts in depth-first sibling order.
        stack = [root]
        while stack:
            v = stack.pop()
            kids = [c for _, c in sorted(children[v])]
            out.append(len(kids))
            stack.extend(reversed(kids))
    return tuple(out)


def _power_sums_int(labels: np.ndarray, max_power: int) -> list[int]:
    """Exact power sums of an integer label array for k = 0..max_power."""
    sums = [len(labels)]
    vals = [int(x) for x in labels]
    for k in range(1, max_power + 1):
        sums.append(sum(x**k for x in vals))
    return sums


def _assignment_matrix(incs: tuple[int, ...], n: int) -> np.ndarray:
    return np.array(list(itertools.product(incs, repeat=n)), dtype=np.int64).reshape(
        len(incs) ** n, n
    )


def _plane_root_paths(n: int) -> np.ndarray:
    """Root-path matrix of every plane shape with n edges, node-major.

    anc[v, s, e] is 1 when edge e (the edge above preorder node e + 1) lies
    on the root path of node v in shape s, so node labels are anc . a for
    an increment assignment a.
    """
    shapes = _plane_shapes(n)
    parents = np.array([_plane_parent_arrays(shape)[0] for shape in shapes])
    rows = np.arange(len(shapes))
    anc = np.zeros((n + 1, len(shapes), n))
    for v in range(1, n + 1):
        anc[v] = anc[parents[:, v], rows]
        anc[v, :, v - 1] = 1.0
    return anc


# Label entries (nodes x objects) per block of the plane oracle: big enough
# for BLAS and numpy to amortize call overhead, small enough to stay in cache.
_ORACLE_BLOCK = 2**16


def oracle_power_product_totals(
    family: TreeFamily, n: int, partitions: Sequence[tuple[int, ...]]
) -> tuple[dict[tuple[int, ...], int], int]:
    """Total of prod_i(sum_v label^lam_i) over all labelled objects of size n.

    Returns (totals by partition, object count).  Exact integers; computed
    by direct enumeration.  The plane families run in blocks of shapes: one
    float64 matmul of the block's root-path rows against every increment
    assignment gives their labels, and power sums over node rows give one
    value per object, exact while (n + 1) * n^max_power < 2^53 (larger
    powers raise ValueError).  Each partition's total is then a dot product
    of its last power sum with the product of the others, in int64 or, when
    a bound says int64 could overflow, in Python ints.
    """
    max_power = max((max(lam) for lam in partitions if lam), default=0)
    totals = {lam: 0 for lam in partitions}
    count = 0

    if family.name in ("binary", "complete"):
        for tree in enumerate_trees(family, n):
            count += 1
            ps = _power_sums_int(tree.label, max_power)
            for lam in partitions:
                term = 1
                for part in lam:
                    term *= ps[part]
                totals[lam] += term
        return totals, count

    if (n + 1) * n**max_power >= 2**53:
        raise ValueError(
            f"power {max_power} at size {n} exceeds the exact float64 range of the "
            "plane oracle"
        )
    assign_t = _assignment_matrix(increments(family), n).T.astype(np.float64)
    n_assign = assign_t.shape[1]
    anc = _plane_root_paths(n)
    n_shapes = anc.shape[1]
    step = max(1, _ORACLE_BLOCK // ((n + 1) * n_assign))
    for s0 in range(0, n_shapes, step):
        block = anc[:, s0 : s0 + step]
        rows = (n + 1) * block.shape[1]
        labels = (block.reshape(rows, n) @ assign_t).reshape(n + 1, -1)
        width = labels.shape[1]
        powers = [np.full(width, n + 1, dtype=np.int64)]
        acc = labels.copy()
        for k in range(1, max_power + 1):
            powers.append(acc.sum(axis=0).astype(np.int64))
            if k < max_power:
                acc *= labels
        # Products of all but the last power sum, shared between equal prefixes.
        heads: dict = {}
        for lam in partitions:
            if not lam:
                totals[lam] += width
                continue
            # Product of power sums can exceed int64 for heavy partitions;
            # bound it and switch to Python-int elements when needed.
            bound = (n + 1) ** len(lam) * n ** sum(lam) * width
            dtype = np.int64 if bound < 2**62 else object
            head = None
            for i in range(1, len(lam)):
                key = (lam[:i], dtype)
                if key not in heads:
                    factor = powers[lam[i - 1]].astype(dtype, copy=False)
                    heads[key] = factor if head is None else head * factor
                head = heads[key]
            last = powers[lam[-1]].astype(dtype, copy=False)
            totals[lam] += int(last.sum() if head is None else head @ last)
        count += width
    return totals, count


def oracle_moment(
    family: TreeFamily, lam: Sequence[int], n: int
) -> Fraction:
    """Exact expectation of prod_i(sum_v label^lam_i) by brute force."""
    lam_t = tuple(sorted(int(p) for p in lam))
    totals, count = oracle_power_product_totals(family, n, [lam_t])
    if count == 0:
        raise ValueError(f"no {family.name} objects of size {n}")
    return Fraction(totals[lam_t], count)
