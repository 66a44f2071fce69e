"""Labelled trees, profiles, exhaustive enumeration, and the brute-force oracle.

Trees are stored as flat arrays indexed by preorder node id (samplers may
use other id orders; shape_key canonicalizes).  The enumerator yields every
labelled object of a family and size exactly once.  The oracle, the ground
truth the series machinery is tested against, covers the same objects in
blocks of label columns, one code path for all four families.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .families import TreeFamily


@dataclass(frozen=True, eq=False)
class LabelledTree:
    """Array-encoded rooted labelled tree.

    parent[v] is -1 at the root; child_role[v] is 0/1 for binary left and
    right children and the sibling index for plane trees; label carries the
    vertical labels and depth the root distances; == and hash are identity.
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
        return self.n_nodes - 1 if self.family.plane else self.n_nodes

    def validate(self) -> None:
        """Check structural and labelling invariants; raises on violation.

        Binary and complete children must carry role 0 (left) or 1
        (right), at most one of each per parent, and in a complete tree
        every node has zero or two children; plane children must carry
        their sibling ranks 0..k-1 in id order.
        """
        roots = np.flatnonzero(self.parent < 0)
        if len(roots) != 1:
            raise ValueError("tree must have exactly one root")
        r = roots[0]
        if self.label[r] != 0 or self.depth[r] != 0:
            raise ValueError("root must carry label 0 and depth 0")
        kids = np.flatnonzero(self.parent >= 0)
        par = self.parent[kids]
        if np.any(self.depth[kids] != self.depth[par] + 1):
            raise ValueError("depth must increase by 1 along edges")
        role = self.child_role[kids]
        step = self.label[kids] - self.label[par]
        if not self.family.plane:
            if np.any((role != 0) & (role != 1)):
                raise ValueError("binary child roles must be 0 (left) or 1 (right)")
            if len(np.unique(2 * par + role)) != len(kids):
                raise ValueError("binary siblings must have distinct roles")
            if self.family.full and np.any(np.bincount(par) == 1):
                raise ValueError("complete tree nodes must have zero or two children")
            if np.any(step != 2 * role - 1):
                raise ValueError("binary labels must follow the left/right rule")
            return
        order = par.argsort(kind="stable")
        by_parent = par[order]
        rank = np.arange(len(kids)) - by_parent.searchsorted(by_parent)
        if np.any(role[order] != rank):
            raise ValueError("plane sibling ranks must run 0..k-1 in id order")
        incs = self.family.increments
        bad = ~np.isin(step, incs)
        if bad.any():
            raise ValueError(f"label increment {int(step[bad][0])} outside {sorted(incs)}")


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


def vertical_profile(tree: LabelledTree) -> Profile:
    """Node counts by vertical label."""
    return Profile.from_values(tree.label)


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


@lru_cache(maxsize=None)
def _plane_classes(n: int) -> tuple[tuple, tuple[int, ...]]:
    """Plane shapes with n edges up to reordering children: one plane shape
    per class (its canonical form, every node's children sorted) and the
    number of plane shapes in each class, counted over _plane_shapes(n)."""

    def canon(shape) -> tuple:
        return tuple(sorted(canon(child) for child in shape))

    mult = Counter(canon(shape) for shape in _plane_shapes(n))
    return tuple(mult), tuple(mult.values())


def _binary_tree_arrays(shape, full: bool) -> tuple[np.ndarray, ...]:
    """Preorder arrays of a binary shape; a full tree also gets a leaf in
    every empty child slot.  Left children step the label by -1, right
    children by +1."""
    parent, role, label, depth = [], [], [], []

    def walk(node, par: int, rl: int) -> None:
        if node is None and not full:
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
        if node is not None:
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


def _check_size(family: TreeFamily, n: int) -> None:
    if n > family.enum_cap:
        raise ValueError(f"size {n} above enumeration cap {family.enum_cap} for {family.name}")
    if not family.valid_size(n):
        raise ValueError(f"invalid {family.name} size {n}")


def enumerate_trees(family: TreeFamily, n: int) -> Iterator[LabelledTree]:
    """Yield each labelled object of the given size exactly once.

    Binary and complete trees carry their deterministic labelling; plane
    trees are yielded once per edge-increment assignment.  Sizes above the
    family's enum_cap raise ValueError.
    """
    _check_size(family, n)

    if not family.plane:
        # A shape of series index i has i nodes; full trees add the leaves.
        for shape in _binary_shapes(family.series_index(n)):
            parent, role, label, depth = _binary_tree_arrays(shape, family.full)
            yield LabelledTree(family, parent, role, label, depth)
        return

    incs = family.increments
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
    roles = tree.child_role.tolist()
    children: list[list[tuple[int, int]]] = [[] for _ in roles]
    root = -1
    for v, p in enumerate(tree.parent.tolist()):
        if p < 0:
            root = v
        else:
            children[p].append((roles[v], v))
    out: list[int] = []
    if not tree.family.plane:
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


def _assignment_matrix(incs: tuple[int, ...], n: int) -> np.ndarray:
    return np.array(list(itertools.product(incs, repeat=n)), dtype=np.int64).reshape(
        len(incs) ** n, n
    )


def _plane_root_paths(n: int) -> np.ndarray:
    """Root-path matrix of one plane shape per unordered class with n edges
    (the classes of _plane_classes), node-major.

    anc[v, s, e] is 1 when edge e (the edge above preorder node e + 1) lies
    on the root path of node v in class s, so node labels are anc . a for
    an increment assignment a.
    """
    shapes = _plane_classes(n)[0]
    parents = np.array([_plane_parent_arrays(shape)[0] for shape in shapes])
    rows = np.arange(len(shapes))
    anc = np.zeros((n + 1, len(shapes), n))
    for v in range(1, n + 1):
        anc[v] = anc[parents[:, v], rows]
        anc[v, :, v - 1] = 1.0
    return anc


# Label entries (nodes x objects) per oracle block: big enough for BLAS and
# numpy to amortize call overhead, small enough to stay in cache.
_ORACLE_BLOCK = 2**16


def _label_blocks(family: TreeFamily, n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(labels, weights) blocks covering every labelled object of size n.

    labels is nodes x columns, and weights[j] is the number of labelled
    objects column j stands for.  Binary and complete trees take one
    column per shape, of weight 1.  Edge increments are i.i.d., so
    reordering a node's children only permutes the labelled objects of a
    size: the plane families take one shape per unordered class with every
    increment assignment, its labels from one float64 matmul of the class's
    root-path rows against the assignments, weighted by the class's counted
    multiplicity.  A block holds about _ORACLE_BLOCK label entries.
    """
    nodes = family.node_count(n)
    if not family.plane:
        shapes = _binary_shapes(family.series_index(n))
        step = max(1, _ORACLE_BLOCK // nodes)
        for s0 in range(0, len(shapes), step):
            block = shapes[s0 : s0 + step]
            labels = np.array([_binary_tree_arrays(shape, family.full)[2] for shape in block])
            yield labels.T, np.ones(len(block), dtype=np.int64)
        return
    assign_t = _assignment_matrix(family.increments, n).T.astype(np.float64)
    n_assign = assign_t.shape[1]
    anc = _plane_root_paths(n)
    mult = np.array(_plane_classes(n)[1], dtype=np.int64)
    step = max(1, _ORACLE_BLOCK // (nodes * n_assign))
    for s0 in range(0, len(mult), step):
        block = anc[:, s0 : s0 + step]
        # Per-block weights: one vector over all objects would cost memory.
        # They are made before the labels: made after, while the caller
        # still holds the last block, they cost 16 times the page faults
        # (plane_0pm1, n = 8) and about 15 % of the time.
        weight = np.repeat(mult[s0 : s0 + step], n_assign)
        yield (block.reshape(nodes * block.shape[1], n) @ assign_t).reshape(nodes, -1), weight


def oracle_power_product_totals(
    family: TreeFamily, n: int, partitions: Sequence[tuple[int, ...]]
) -> tuple[dict[tuple[int, ...], int], int]:
    """Total of prod_i(sum_v label^lam_i) over all labelled objects of size n.

    Returns (totals by partition, object count).  Exact integers; computed
    by direct enumeration, in the label blocks of _label_blocks.  Power
    sums over node rows give one value per column, in the labels' own
    dtype (float64 for the plane families, int64 for the others) while
    nodes * (nodes - 1)^max_power < 2^53 (|label| < nodes) and in Python
    ints past it.  Each partition's total is then a dot product of its
    last power sum with the weighted product of the others, in int64 or,
    when a bound says int64 could overflow, in Python ints.
    """
    _check_size(family, n)
    nodes = family.node_count(n)
    max_power = max((max(lam) for lam in partitions if lam), default=0)
    in_float = nodes * (nodes - 1) ** max_power < 2**53
    totals = {lam: 0 for lam in partitions}
    count = 0
    for labels, weight in _label_blocks(family, n):
        block_count = int(weight.sum())
        if not in_float:
            # Through int64, so the objects are Python ints and not floats.
            labels = labels.astype(np.int64).astype(object)
        powers = [np.full(labels.shape[1], nodes, dtype=np.int64)]
        acc = labels.copy()
        for k in range(1, max_power + 1):
            sums = acc.sum(axis=0)
            powers.append(sums.astype(np.int64) if in_float else sums)
            if k < max_power:
                acc *= labels
        # Weighted products of all but the last power sum, each chain started
        # from the weights and shared between equal prefixes.
        heads: dict = {}
        for lam in partitions:
            if not lam:
                totals[lam] += block_count
                continue
            # Product of power sums can exceed int64 for heavy partitions;
            # bound it and switch to Python-int elements when needed.
            bound = nodes ** len(lam) * (nodes - 1) ** sum(lam) * block_count
            dtype = np.int64 if bound < 2**62 else object
            for i in range(len(lam)):
                key = (lam[:i], dtype)
                if key not in heads:
                    heads[key] = (
                        weight.astype(dtype, copy=False)
                        if i == 0
                        else head * powers[lam[i - 1]].astype(dtype, copy=False)
                    )
                head = heads[key]
            totals[lam] += int(head @ powers[lam[-1]].astype(dtype, copy=False))
        count += block_count
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
