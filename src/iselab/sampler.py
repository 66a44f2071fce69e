"""Uniform tree samplers, profiles, rescaled densities, and MC estimators.

Binary trees are drawn by growing a uniform full binary tree one leaf at
a time and reading off its internal nodes; plane trees come from uniform
Dyck paths built with the cycle lemma.  Both are exactly uniform and run
in O(n).  Seeding is counter-based (Philox), so distinct stream ids give
provably non-overlapping streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence, Union

import numpy as np

from .families import BINARY, TreeFamily
from .trees import LabelledTree, Profile


@dataclass(frozen=True)
class SeedSpec:
    """Deterministic seed: (master_seed, stream_id) keys a Philox stream."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_id"):
            v = getattr(self, name)
            if not isinstance(v, int) or not 0 <= v < 2**64:
                raise ValueError(f"{name} must be an integer in [0, 2^64)")

    def generator(self) -> np.random.Generator:
        key = np.array([self.master_seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def stream(self, stream_id: int) -> "SeedSpec":
        return SeedSpec(self.master_seed, stream_id)


SeedLike = Union[SeedSpec, np.random.Generator, int]


def _rng(seed: SeedLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, SeedSpec):
        return seed.generator()
    if isinstance(seed, int) and not isinstance(seed, bool):
        return SeedSpec(seed).generator()
    raise TypeError("seed must be a SeedSpec, numpy Generator, or integer")


def sample_binary(n: int, seed: SeedLike) -> LabelledTree:
    """Uniform binary tree with n nodes, natural labels and depths attached.

    Grows the associated full binary tree with n internal nodes by uniform
    leaf insertion (each step picks one of the 2j-1 existing nodes and a
    side), which makes every shape appear with probability 1/Catalan(n).
    """
    if n < 1:
        raise ValueError("binary trees need at least one node")
    rng = _rng(seed)
    total = 2 * n + 1
    picks = rng.integers(0, np.arange(1, 2 * n, 2))
    sides = rng.integers(0, 2, size=n)
    parent = [-1] * total
    child_l = [-1] * total
    child_r = [-1] * total
    for j in range(1, n + 1):
        u = int(picks[j - 1])
        w = 2 * j - 1
        leaf = 2 * j
        p = parent[u]
        parent[w] = p
        if p >= 0:
            if child_l[p] == u:
                child_l[p] = w
            else:
                child_r[p] = w
        if sides[j - 1]:
            child_l[w], child_r[w] = u, leaf
        else:
            child_l[w], child_r[w] = leaf, u
        parent[u] = w
        parent[leaf] = w

    parent_np = np.array(parent, dtype=np.int64)
    child_r_np = np.array(child_r, dtype=np.int64)
    internal = np.array(child_l, dtype=np.int64) >= 0
    ids = np.cumsum(internal) - 1
    orig = np.flatnonzero(internal)
    p_orig = parent_np[orig]
    at_root = p_orig < 0
    safe_p = np.where(at_root, 0, p_orig)
    tree_parent = np.where(at_root, -1, ids[safe_p]).astype(np.int64)
    is_right = (child_r_np[safe_p] == orig) & ~at_root
    role = is_right.astype(np.int64)

    label = _path_sums(tree_parent, np.where(is_right, 1, -1) * ~at_root)
    depth = _path_sums(tree_parent, (~at_root).astype(np.int64))
    return LabelledTree(BINARY, tree_parent, role, label, depth)


def _path_sums(parent: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Sum of per-node deltas along root paths, by pointer doubling."""
    n = len(parent)
    total = np.asarray(delta, dtype=np.int64).copy()
    hop = parent.copy()
    root = int(np.flatnonzero(parent < 0)[0])
    hop[root] = root
    rounds = max(1, math.ceil(math.log2(n))) + 1 if n > 1 else 0
    for _ in range(rounds):
        total += total[hop]
        hop = hop[hop]
    return total


def sample_plane(n: int, family: TreeFamily, seed: SeedLike) -> LabelledTree:
    """Uniform plane tree with n edges plus iid uniform edge increments.

    The shape comes from a uniform Dyck path: shuffle n up and n+1 down
    steps, rotate to start just past the first minimum of the walk, and
    drop the final forced down step.  Increments are drawn after the
    shuffle, one per edge in preorder.
    """
    if family.name not in ("plane_pm1", "plane_0pm1"):
        raise ValueError("sample_plane needs one of the two plane families")
    if n < 0:
        raise ValueError("edge count must be non-negative")
    rng = _rng(seed)
    if n == 0:
        z = np.zeros(1, dtype=np.int64)
        return LabelledTree(family, z - 1, z.copy(), z.copy(), z.copy())

    steps = np.concatenate(
        [np.ones(n, dtype=np.int64), -np.ones(n + 1, dtype=np.int64)]
    )
    rng.shuffle(steps)
    walk = np.cumsum(steps)
    cut = int(np.argmin(walk))
    dyck = np.concatenate([steps[cut + 1 :], steps[: cut + 1]])[: 2 * n]

    parent = np.empty(n + 1, dtype=np.int64)
    role = np.zeros(n + 1, dtype=np.int64)
    child_count = [0] * (n + 1)
    parent[0] = -1
    stack = [0]
    nxt = 1
    for s in dyck:
        if s == 1:
            top = stack[-1]
            parent[nxt] = top
            role[nxt] = child_count[top]
            child_count[top] += 1
            stack.append(nxt)
            nxt += 1
        else:
            stack.pop()

    if family.name == "plane_pm1":
        incs = 2 * rng.integers(0, 2, size=n) - 1
    else:
        incs = rng.integers(0, 3, size=n) - 1
    label = np.zeros(n + 1, dtype=np.int64)
    depth = np.zeros(n + 1, dtype=np.int64)
    for v in range(1, n + 1):
        p = parent[v]
        label[v] = label[p] + incs[v - 1]
        depth[v] = depth[p] + 1
    return LabelledTree(family, parent, role, label, depth)


def sample_tree(family: TreeFamily, n: int, seed: SeedLike) -> LabelledTree:
    """Family dispatch: binary by node count, plane families by edge count."""
    if family.name == "binary":
        return sample_binary(n, seed)
    if family.name in ("plane_pm1", "plane_0pm1"):
        return sample_plane(n, family, seed)
    raise ValueError(f"no sampler for family {family.name}")


def max_label(tree: LabelledTree) -> int:
    """Largest absolute vertical label (0 for the one-node tree)."""
    return int(np.abs(tree.label).max())


def rescaled_density(profile: Profile, family: TreeFamily, x: float) -> float:
    """Density of the rescaled label measure at x, by linear interpolation.

    With N nodes the label counts are interpolated, scaled horizontally
    by gamma^-1 N^(1/4) and vertically by gamma^-1 N^(-3/4); the result
    integrates to exactly 1 over the real line.
    """
    n_nodes = profile.total
    gamma = family.gamma
    arg = (n_nodes**0.25 / gamma) * x
    lo, hi = profile.support
    positions = np.arange(lo - 1, hi + 2, dtype=np.float64)
    values = np.zeros(len(positions))
    values[1:-1] = profile.counts
    interp = float(np.interp(arg, positions, values, left=0.0, right=0.0))
    return interp / (gamma * n_nodes**0.75)


class EmpiricalMoment(NamedTuple):
    mean: float
    stderr: float


def tree_moment(tree: LabelledTree, lam: Sequence[int], family: TreeFamily) -> float:
    """Product over parts k of gamma^k N^(-1-k/4) sum_v label(v)^k."""
    n_nodes = tree.n_nodes
    labels = tree.label.astype(np.float64)
    out = 1.0
    for k in lam:
        ps = float(np.sum(labels**k))
        out *= family.gamma**k * n_nodes ** (-1.0 - k / 4.0) * ps
    return out


def empirical_moment(
    samples: Iterable[LabelledTree], lam: Sequence[int], family: TreeFamily
) -> EmpiricalMoment:
    """Sample mean and standard error of the normalized joint moment."""
    vals = np.array([tree_moment(t, lam, family) for t in samples])
    if len(vals) < 2:
        raise ValueError("need at least 2 samples for a standard error")
    return EmpiricalMoment(
        float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(len(vals)))
    )


def sample_dyck_path(n: int, seed: SeedLike) -> np.ndarray:
    """Heights w(1..2n) of a uniform Dyck path of length 2n (w(2n) = 0)."""
    if n < 1:
        raise ValueError("path length must be positive")
    rng = _rng(seed)
    steps = np.concatenate(
        [np.ones(n, dtype=np.int64), -np.ones(n + 1, dtype=np.int64)]
    )
    rng.shuffle(steps)
    walk = np.cumsum(steps)
    cut = int(np.argmin(walk))
    dyck = np.concatenate([steps[cut + 1 :], steps[: cut + 1]])[: 2 * n]
    return np.cumsum(dyck)


def dyck_moment(heights: np.ndarray, lam: Sequence[int]) -> float:
    """Product over parts k of (2n)^(-1-k/2) sum_i w(i)^k for one path."""
    two_n = len(heights)
    w = heights.astype(np.float64)
    out = 1.0
    for k in lam:
        out *= two_n ** (-1.0 - k / 2.0) * float(np.sum(w**k))
    return out


def empirical_dyck_moment(
    n: int, lam: Sequence[int], samples: int, seed: SeedLike
) -> EmpiricalMoment:
    """MC mean and standard error of the Dyck-path excursion moment."""
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    vals = np.empty(samples)
    if isinstance(seed, np.random.Generator):
        for i in range(samples):
            vals[i] = dyck_moment(sample_dyck_path(n, seed), lam)
    else:
        base = seed if isinstance(seed, SeedSpec) else SeedSpec(int(seed))
        for i in range(samples):
            heights = sample_dyck_path(n, base.stream(base.stream_id + i))
            vals[i] = dyck_moment(heights, lam)
    return EmpiricalMoment(
        float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(samples))
    )
