"""Random samplers: determinism, structural validity, and moment agreement."""

import math

import numpy as np
import pytest

from iselab.families import BINARY, COMPLETE_BINARY, PLANE_0PM1, PLANE_PM1
from iselab.sampler import (
    SeedSpec,
    _climb,
    dyck_moment,
    empirical_dyck_moment,
    rescaled_density,
    sample_binary,
    sample_dyck_path,
    sample_plane,
    sample_tree,
)
from iselab.trees import LabelledTree, vertical_profile


# Reference samplers: the per-node loops the array samplers replaced,
# kept to pin their draws bit for bit (same Philox stream, same arrays).
def _reference_binary(n, rng):
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

    label = _reference_path_sums(tree_parent, np.where(is_right, 1, -1) * ~at_root)
    depth = _reference_path_sums(tree_parent, (~at_root).astype(np.int64))
    return LabelledTree(BINARY, tree_parent, role, label, depth)


def _reference_path_sums(parent, delta):
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


def _reference_dyck_steps(n, rng):
    steps = np.concatenate(
        [np.ones(n, dtype=np.int64), -np.ones(n + 1, dtype=np.int64)]
    )
    rng.shuffle(steps)
    walk = np.cumsum(steps)
    cut = int(np.argmin(walk))
    return np.concatenate([steps[cut + 1 :], steps[: cut + 1]])[: 2 * n]


def _reference_plane(n, family, rng):
    if n == 0:
        z = np.zeros(1, dtype=np.int64)
        return LabelledTree(family, z - 1, z.copy(), z.copy(), z.copy())
    dyck = _reference_dyck_steps(n, rng)

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


def _reference_dyck_path(n, rng):
    return np.cumsum(_reference_dyck_steps(n, rng))


def _reference_draw(family, n, rng):
    if family is BINARY:
        return _reference_binary(n, rng)
    return _reference_plane(n, family, rng)


def _assert_same_tree(got, want):
    assert got.family is want.family
    for field in ("parent", "child_role", "label", "depth"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype, field
        assert np.array_equal(a, b), field


FAMILIES = [BINARY, PLANE_PM1, PLANE_0PM1]
# (sizes, seeds per size): every size up to 11, a few medium ones, and
# the 65536 used by the large Monte Carlo checks.
IDENTITY_CASES = [
    pytest.param(range(12), 300, id="n0-11"),
    pytest.param((50, 333, 4096), 5, id="medium"),
    pytest.param((65536,), 1, id="n65536"),
    # Both sides of each bit-length step of the binary sort keys.
    pytest.param([2**k + d for k in range(1, 13) for d in (0, 1)], 5, id="pow2"),
]


def _reference_climb(hop, acc):
    """Chain ends and acc sums by a per-node walk, each node filled once."""
    hop, acc = hop.tolist(), acc.tolist()
    end, total = [None] * len(hop), [0] * len(hop)
    for v in range(len(hop)):
        path, u = [], v
        while end[u] is None and hop[u] != u:
            path.append(u)
            u = hop[u]
        if end[u] is None:
            end[u] = u
        for w in reversed(path):
            end[w], total[w] = end[hop[w]], acc[w] + total[hop[w]]
    return np.array(end), np.array(total)


def _chains(lengths, branches, seed):
    """Paths of the given node counts, then branch nodes each hopping onto
    an earlier node, under shuffled ids; returns hop, acc (0 at chain ends)
    and the height.
    """
    rng = np.random.default_rng(seed)
    ids = rng.permutation(sum(lengths) + branches)
    hop = np.empty(len(ids), dtype=np.int64)
    depth = np.zeros(len(ids), dtype=np.int64)
    start = 0
    for m in lengths:
        path = ids[start : start + m]
        hop[path[:-1]] = path[1:]
        hop[path[-1]] = path[-1]
        depth[path] = np.arange(m - 1, -1, -1)
        start += m
    for i in range(start, len(ids)):
        hop[ids[i]] = ids[rng.integers(0, i)]
        depth[ids[i]] = depth[hop[ids[i]]] + 1
    acc = rng.integers(-3, 4, size=len(ids))
    acc[hop == np.arange(len(ids))] = 0
    return hop, acc, int(depth.max())


PATH_NODES = sorted({1, 2, 3, 4, 5} | {2**k + d for k in range(1, 17) for d in (0, 1)})


class TestSeedSpec:
    def test_stream_derivation(self):
        base = SeedSpec(42)
        assert base.stream_id == 0
        child = base.stream(7)
        assert child == SeedSpec(42, 7)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SeedSpec(-1)
        with pytest.raises(ValueError):
            SeedSpec(2**64)
        with pytest.raises(ValueError):
            SeedSpec(0, -3)

    def test_generators_differ_across_streams(self):
        a = SeedSpec(5).generator().integers(0, 2**63, 8)
        b = SeedSpec(5, 1).generator().integers(0, 2**63, 8)
        assert not np.array_equal(a, b)


class TestTreeSamplers:
    def test_binary_deterministic(self):
        t1 = sample_binary(200, SeedSpec(3))
        t2 = sample_binary(200, SeedSpec(3))
        assert np.array_equal(t1.parent, t2.parent)
        assert np.array_equal(t1.label, t2.label)

    def test_binary_valid(self):
        for seed in range(5):
            t = sample_binary(50, SeedSpec(seed))
            assert t.n_nodes == 50
            t.validate()

    @pytest.mark.parametrize("family", [PLANE_PM1, PLANE_0PM1])
    def test_plane_valid(self, family):
        for seed in range(5):
            t = sample_plane(40, family, SeedSpec(seed))
            assert t.size == 40
            assert t.n_nodes == 41
            t.validate()

    def test_plane_increment_membership(self):
        t = sample_plane(300, PLANE_0PM1, SeedSpec(11))
        steps = {int(t.label[v] - t.label[t.parent[v]]) for v in range(1, t.n_nodes)}
        assert steps <= set(PLANE_0PM1.increments)

    def test_plane_size_zero(self):
        t = sample_plane(0, PLANE_PM1, SeedSpec(0))
        assert t.n_nodes == 1
        t.validate()

    def test_dispatch(self):
        assert sample_tree(BINARY, 9, SeedSpec(1)).size == 9
        assert sample_tree(PLANE_PM1, 9, SeedSpec(1)).size == 9
        with pytest.raises(ValueError, match="no sampler"):
            sample_tree(COMPLETE_BINARY, 9, SeedSpec(1))

    def test_generator_seed_advances(self):
        rng = SeedSpec(2).generator()
        t1 = sample_binary(30, rng)
        t2 = sample_binary(30, rng)
        assert not np.array_equal(t1.label, t2.label)

    def test_bool_seed_rejected(self):
        with pytest.raises(TypeError):
            sample_binary(5, True)

    def test_binary_size_refused_before_drawing(self):
        # Packed keys hold n <= 2^31.  The seed is one _rng refuses, so a
        # size check that moved past the draw fails here without allocating.
        for n in (0, 2**31 + 1):
            with pytest.raises(ValueError, match="between 1 and 2\\^31"):
                sample_binary(n, None)


class TestClimb:
    # Random draws never bring a chain near the round limit, so these
    # compare the doubling with a per-node walk on worst-case chains.
    def _check(self, hop, acc, height):
        want_end, want_total = _reference_climb(hop, acc)
        for h in (height, None):
            end, total = _climb(hop, acc, h)
            assert np.array_equal(end, want_end)
            assert np.array_equal(total, want_total)
            end, none = _climb(hop, None, h)
            assert np.array_equal(end, want_end) and none is None

    @pytest.mark.parametrize("m", PATH_NODES)
    def test_single_path(self, m):
        self._check(*_chains([m], 0, m))

    def test_forest(self):
        lengths = [1, 1, 2, 3, 5, 8, 9, 16, 17, 100, 255, 256, 257, 1000, 4097]
        self._check(*_chains(lengths, 3000, 1))


class TestReferenceIdentity:
    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
    @pytest.mark.parametrize("sizes, seeds", IDENTITY_CASES)
    def test_draws_equal_reference(self, family, sizes, seeds):
        for n in sizes:
            if not family.valid_size(n):
                continue
            for seed in range(seeds):
                got = sample_tree(family, n, SeedSpec(seed))
                _assert_same_tree(got, _reference_draw(family, n, SeedSpec(seed).generator()))
                got.validate()

    @pytest.mark.parametrize(
        "family, n",
        [(f, n) for f in FAMILIES for n in (0, 1, 7, 40) if f.valid_size(n)],
        ids=lambda x: getattr(x, "name", x),
    )
    def test_stream_order(self, family, n):
        # Two draws in a row from one generator consume the stream as the
        # reference loops did.
        rng, ref = SeedSpec(21).generator(), SeedSpec(21).generator()
        for _ in range(2):
            _assert_same_tree(sample_tree(family, n, rng), _reference_draw(family, n, ref))
        assert np.array_equal(rng.integers(0, 2**63, 4), ref.integers(0, 2**63, 4))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 2048])
    def test_dyck_path_equals_reference(self, n):
        for seed in range(20):
            got = sample_dyck_path(n, SeedSpec(seed))
            want = _reference_dyck_path(n, SeedSpec(seed).generator())
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


class TestDensityAndMoments:
    def test_density_integrates_to_one(self):
        t = sample_binary(400, SeedSpec(17))
        prof = vertical_profile(t)
        xs = np.linspace(-3.0, 3.0, 4001)
        ys = [rescaled_density(prof, BINARY, float(x)) for x in xs]
        assert np.trapezoid(ys, xs) == pytest.approx(1.0, abs=1e-6)

    def test_density_peak_value(self):
        # Both two-node binary trees put one node at label 0, so the
        # rescaled density at 0 is 1 / (gamma * 2^(3/4)).
        t = sample_binary(2, SeedSpec(0))
        prof = vertical_profile(t)
        want = 1.0 / (BINARY.gamma * 2**0.75)
        assert rescaled_density(prof, BINARY, 0.0) == pytest.approx(want, rel=1e-12)

    def test_density_vanishes_far_out(self):
        t = sample_binary(64, SeedSpec(1))
        assert rescaled_density(vertical_profile(t), BINARY, 50.0) == 0.0


class TestDyckPaths:
    def test_path_shape(self):
        w = sample_dyck_path(64, SeedSpec(4))
        assert len(w) == 128
        assert w[0] == 1
        assert w[-1] == 0
        assert w.min() >= 0
        steps = np.diff(np.concatenate([[0], w]))
        assert set(np.unique(steps)) <= {-1, 1}

    def test_deterministic(self):
        assert np.array_equal(sample_dyck_path(32, SeedSpec(6)), sample_dyck_path(32, SeedSpec(6)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_dyck_path(0, SeedSpec(0))

    def test_dyck_moment_hand_value(self):
        # n = 1 forces the path (1, 0): first moment (2n)^(-3/2) * 1.
        w = sample_dyck_path(1, SeedSpec(0))
        assert dyck_moment(w, (1,)) == pytest.approx(2.0**-1.5, rel=1e-15)

    def test_empirical_dyck_moment_deterministic(self):
        a = empirical_dyck_moment(128, (1,), 50, SeedSpec(33))
        b = empirical_dyck_moment(128, (1,), 50, SeedSpec(33))
        assert a == b
        assert a.stderr > 0

    def test_empirical_dyck_moment_needs_two(self):
        with pytest.raises(ValueError, match="2 samples"):
            empirical_dyck_moment(8, (1,), 1, SeedSpec(0))
