"""Uniform tree samplers, profiles, rescaled densities, and MC estimators.

Binary trees are drawn by growing a uniform full binary tree one leaf at
a time and reading off its internal nodes; plane trees come from uniform
Dyck paths built with the cycle lemma.  Both are exactly uniform and are
built from array operations with no Python loop over nodes: one sort of
the draws and pointer doubling that stops at the height or longest chain.
Seeding is counter-based (Philox), so distinct stream ids give provably
non-overlapping streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

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


SeedLike = Union[SeedSpec, np.random.Generator]


def _rng(seed: SeedLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, SeedSpec):
        return seed.generator()
    raise TypeError("seed must be a SeedSpec or numpy Generator")


def sample_binary(n: int, seed: SeedLike) -> LabelledTree:
    """Uniform binary tree with n nodes, natural labels and depths attached.

    Grows the associated full binary tree with n internal nodes by uniform
    leaf insertion (each step picks one of the 2j-1 existing nodes and a
    side), which makes every shape appear with probability 1/Catalan(n).
    Step k makes internal node 2k+1 and leaf 2k+2 above the picked node;
    the final tree is read off the picks in array operations, and the
    internal nodes keep their step order as ids.
    """
    if not 1 <= n <= 2**31:
        raise ValueError("binary trees need between 1 and 2^31 nodes")
    rng = _rng(seed)
    picks = rng.integers(0, np.arange(1, 2 * n, 2))
    sides = rng.integers(0, 2, size=n)

    # Each slot ends up holding the end of a chain: when its occupant x is
    # first picked, the node made at that step takes x's slot.  ptr[x] is
    # that node, or x if x is never picked; top[x] is the end of x's chain.
    # One sort of (pick, step) packed in an int64 orders steps stably.
    shift = max(n - 1, 1).bit_length()
    steps = np.arange(n)
    picks <<= shift
    picks |= steps
    picks.sort()
    order = picks & ((1 << shift) - 1)
    by_node = picks >> shift
    made = 2 * order + 1
    again = by_node[1:] == by_node[:-1]
    first = np.empty(n, dtype=bool)
    first[0] = True
    first[1:] = ~again
    ptr = np.arange(2 * n + 1)
    ptr[by_node[first]] = made[first]
    top, _ = _climb(ptr)

    # Under the node made at step k, the picked node's slot passes to the
    # node made at the next step that picks the same node, if any; the new
    # leaf's slot starts with that leaf.  sides[k] puts the picked node left.
    picked_child = by_node
    picked_child[:-1][again] = top[made[1:][again]]
    leaf_child = top[2::2]
    full_parent = np.empty(2 * n + 1, dtype=np.int64)
    full_role = np.empty(2 * n + 1, dtype=np.int64)
    full_parent[picked_child] = order
    full_role[picked_child] = 1 - sides[order]
    full_parent[leaf_child] = steps
    full_role[leaf_child] = sides
    end = top[0]
    full_parent[end] = root = end >> 1
    full_role[end] = 0
    parent = full_parent[1::2]
    role = full_role[1::2]

    # One root-path sum carries the depth in the high bits and the number
    # of right turns in the low bits; label = rights - lefts.  The root is
    # its own parent until the climb is done.
    packed = (1 << 32) + role
    packed[root] = 0
    _, total = _climb(parent, packed)
    parent[root] = -1
    depth = total >> 32
    label = 2 * (total & 0xFFFFFFFF) - depth
    return LabelledTree(BINARY, parent, role, label, depth)


def _climb(
    hop: np.ndarray, acc: np.ndarray | None = None, height: int | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Ends of the pointer chains of hop and sums of acc along them.

    hop[v] is the next node up from v, or v itself at the end of a chain,
    where acc must be 0.  Round r of pointer doubling covers 2^r hops, so
    chains of at most height hops need height.bit_length() rounds.  With
    no height, the rounds stop once every hop is a chain end.
    """
    for r in range((len(hop) - 2 if height is None else height).bit_length()):
        up = hop[hop]
        # The check costs more than a round on tiny trees.
        if height is None and r > 2 and np.array_equal(up, hop):
            break
        if acc is not None:
            acc = acc + acc[hop]
        hop = up
    return hop, acc


def _dyck_steps(n: int, rng: np.random.Generator) -> np.ndarray:
    """The 2n +-1 steps of a uniform Dyck path, by the cycle lemma.

    Shuffle n up and n+1 down steps, rotate to start just past the first
    minimum of the walk, and drop the final forced down step.
    """
    steps = np.ones(2 * n + 1, dtype=np.int64)
    steps[n:] = -1
    rng.shuffle(steps)
    cut = steps.cumsum().argmin()
    return np.concatenate([steps[cut + 1 :], steps[:cut]])


def sample_plane(n: int, family: TreeFamily, seed: SeedLike) -> LabelledTree:
    """Uniform plane tree with n edges plus iid uniform edge increments.

    The shape comes from a uniform Dyck path, whose up steps are the nodes
    in preorder.  Increments are drawn after the shuffle, one per edge in
    preorder.
    """
    if not family.plane:
        raise ValueError("sample_plane needs one of the two plane families")
    if n < 0:
        raise ValueError("edge count must be non-negative")
    rng = _rng(seed)
    dyck = _dyck_steps(n, rng)
    depth = np.zeros(n + 1, dtype=np.int64)
    depth[1:] = dyck.cumsum()[dyck > 0]

    # Sorted by (depth, id), the parent of v is the last node one level up
    # with a smaller id.  Siblings are adjacent in this order and their
    # parents' positions never decrease.
    keys = depth * (n + 1) + np.arange(n + 1)
    keys.sort()
    ids = keys % (n + 1)
    up = keys.searchsorted(keys[1:] - (n + 1)) - 1
    parent = np.zeros(n + 1, dtype=np.int64)
    parent[ids[1:]] = ids[up]
    role = np.zeros(n + 1, dtype=np.int64)
    role[ids[1:]] = np.arange(n) - up.searchsorted(up)

    choices = np.array(family.increments)
    incs = choices[rng.integers(0, len(choices), size=n)]
    acc = np.zeros(n + 1, dtype=np.int64)
    acc[1:] = incs
    # The root is its own parent until the climb, bounded by the height.
    _, label = _climb(parent, acc, int(keys[-1]) // (n + 1))
    parent[0] = -1
    return LabelledTree(family, parent, role, label, depth)


def sample_tree(family: TreeFamily, n: int, seed: SeedLike) -> LabelledTree:
    """Family dispatch: binary by node count, plane families by edge count."""
    if not family.has_sampler:
        raise ValueError(f"no sampler for family {family.name}")
    if family.plane:
        return sample_plane(n, family, seed)
    return sample_binary(n, seed)


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


def sample_dyck_path(n: int, seed: SeedLike) -> np.ndarray:
    """Heights w(1..2n) of a uniform Dyck path of length 2n (w(2n) = 0)."""
    if n < 1:
        raise ValueError("path length must be positive")
    return _dyck_steps(n, _rng(seed)).cumsum()


def dyck_moment(heights: np.ndarray, lam: Sequence[int]) -> float:
    """Product over parts k of (2n)^(-1-k/2) sum_i w(i)^k for one path."""
    two_n = len(heights)
    w = heights.astype(np.float64)
    out = 1.0
    for k in lam:
        out *= two_n ** (-1.0 - k / 2.0) * float(np.sum(w**k))
    return out


def empirical_dyck_moment(
    n: int, lam: Sequence[int], samples: int, seed: SeedSpec
) -> EmpiricalMoment:
    """MC mean and standard error of the Dyck-path excursion moment; draw i
    comes from stream seed.stream_id + i."""
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    vals = np.empty(samples)
    for i in range(samples):
        heights = sample_dyck_path(n, seed.stream(seed.stream_id + i))
        vals[i] = dyck_moment(heights, lam)
    return EmpiricalMoment(
        float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(samples))
    )
