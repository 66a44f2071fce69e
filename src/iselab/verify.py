"""Acceptance harness: the ten numbered checks behind the verify command.

Each criterion function is self-contained, returns a CriterionResult with
a one-line measured detail, and never raises on a mere failed bound (only
on infrastructure errors).  Monte Carlo checks use fixed Philox master
seeds so reruns are byte-identical.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import genfun, grandmoments, numerics, sampler, trees
from .families import BINARY, FAMILIES, PLANE_PM1
from .partitions import positive_partitions
from .sampler import SeedSpec

QUICK = (1, 2, 5, 7)
FULL = tuple(range(1, 11))

# Fixed master seeds for the stochastic criteria (4, 8, 10).
SEED_DYCK = SeedSpec(914004)
SEED_PROFILE = SeedSpec(914008)
SEED_CHI_BINARY = SeedSpec(914010)
SEED_CHI_PLANE = SeedSpec(914011)


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    name: str
    passed: bool
    detail: str
    elapsed: float


def _done(cid: int, name: str, passed: bool, detail: str, t0: float) -> CriterionResult:
    return CriterionResult(cid, name, bool(passed), detail, time.perf_counter() - t0)


def criterion_1() -> CriterionResult:
    """Series-based exact moments equal brute-force enumeration exactly."""
    t0 = time.perf_counter()
    lams = tuple(positive_partitions(6, 3))
    checked = 0
    for fam in FAMILIES.values():
        genfun.build_exact_engine(fam, fam.sizes_upto(8))
        for n in fam.sizes_upto(8):
            totals, count = trees.oracle_power_product_totals(fam, n, lams)
            for lam in lams:
                oracle = Fraction(totals[lam], count)
                exact = genfun.exact_moment(fam, lam, n).exact
                if exact != oracle:
                    return _done(
                        1,
                        "exact vs oracle",
                        False,
                        f"mismatch at {fam.name} n={n} lam={lam}: "
                        f"{exact} != {oracle}",
                        t0,
                    )
                checked += 1
    return _done(1, "exact vs oracle", True, f"{checked} cells match exactly", t0)


def criterion_2() -> CriterionResult:
    """Grand-moment recurrences close: c_(2k) ladder and a vs c identities."""
    t0 = time.perf_counter()
    for k in range(1, 11):
        lhs = grandmoments.c_lambda((2 * k,))
        rhs = k * (2 * k - 1) * grandmoments.c_lambda((2 * k - 2,))
        if lhs != rhs:
            return _done(2, "grand-moment closure", False, f"c ladder fails at k={k}", t0)
    pairs = 0
    for k in range(0, 9):
        for ell in range(0, 9 - k):
            lam = (1,) * (2 * k) + (2,) * ell
            if grandmoments.a_coeff2(k, ell) != grandmoments.c_lambda(lam):
                return _done(
                    2,
                    "grand-moment closure",
                    False,
                    f"a_(k,l) vs c fails at k={k}, l={ell}",
                    t0,
                )
            if ell == 0 and grandmoments.a_coeff(k) != grandmoments.c_lambda(lam):
                return _done(
                    2, "grand-moment closure", False, f"a_k vs c fails at k={k}", t0
                )
            pairs += 1
    return _done(
        2,
        "grand-moment closure",
        True,
        f"c ladder k<=10 and {pairs} a-vs-c identities exact",
        t0,
    )


def criterion_3() -> CriterionResult:
    """Finite-n normalized moments approach the ISE limits monotonically."""
    t0 = time.perf_counter()
    sizes = (64, 256, 1024)
    worst = 0.0
    for lam in ((2,), (1, 1), (4,), (2, 2)):
        limit = grandmoments.limit_moment_ise(lam)
        gaps = [
            abs(genfun.float_moment(BINARY, lam, n) / limit - 1.0) for n in sizes
        ]
        if not (gaps[0] > gaps[1] > gaps[2]):
            return _done(
                3,
                "finite-n convergence",
                False,
                f"gaps not decreasing for lam={lam}: {gaps}",
                t0,
            )
        if gaps[2] >= 0.15:
            return _done(
                3,
                "finite-n convergence",
                False,
                f"final gap {gaps[2]:.4f} >= 0.15 for lam={lam}",
                t0,
            )
        worst = max(worst, gaps[2])
    return _done(
        3,
        "finite-n convergence",
        True,
        f"gaps strictly decreasing, final gap <= {worst:.4f}",
        t0,
    )


def criterion_4() -> CriterionResult:
    """Excursion first moment: closed form and Dyck-path MC agree."""
    t0 = time.perf_counter()
    closed = math.sqrt(math.pi / 8.0)
    exact = grandmoments.limit_moment_exc((1,))
    if abs(exact - closed) > 1e-12:
        return _done(
            4, "excursion cross-check", False, f"closed form off: {exact}", t0
        )
    est = sampler.empirical_dyck_moment(2048, (1,), 5000, SEED_DYCK)
    allowance = 3.0 * est.stderr + 0.10 * closed
    gap = abs(est.mean - closed)
    return _done(
        4,
        "excursion cross-check",
        gap <= allowance,
        f"MC mean {est.mean:.5f} vs {closed:.5f}, gap {gap:.5f} <= {allowance:.5f}",
        t0,
    )


def criterion_5() -> CriterionResult:
    """Quadrature and series mean-density derivations agree."""
    t0 = time.perf_counter()
    worst = 0.0
    for lam_x in (0.0, 0.25, 0.5, 1.0, 2.0):
        q = numerics.mean_density_quadrature(lam_x)
        s = numerics.mean_density_series(lam_x)
        worst = max(worst, abs(q - s))
        if abs(q - s) > 1e-8:
            return _done(
                5,
                "mean-density double derivation",
                False,
                f"quad vs series gap {abs(q - s):.2e} at lambda={lam_x}",
                t0,
            )
    closed = 2.0**-0.75 * math.gamma(0.75) / math.sqrt(math.pi)
    q0 = numerics.mean_density_quadrature(0.0)
    s0 = numerics.mean_density_series(0.0)
    if abs(q0 - closed) > 1e-10 or abs(s0 - closed) > 1e-10:
        return _done(
            5,
            "mean-density double derivation",
            False,
            f"lambda=0 values {q0!r}, {s0!r} vs closed {closed!r}",
            t0,
        )
    return _done(
        5,
        "mean-density double derivation",
        True,
        f"max quad-series gap {worst:.2e}; lambda=0 matches closed form",
        t0,
    )


def _mgf_lambda(alpha: float, cache: dict) -> float:
    if alpha not in cache:
        cache[alpha] = numerics.mgf_L(0.0, 2.0**-0.25 * alpha)
    return cache[alpha]


def criterion_6() -> CriterionResult:
    """Finite-difference MGF moments match the closed-form point moments."""
    t0 = time.perf_counter()
    for x in (0.0, 0.5, 1.0):
        v = numerics.mgf_L(x, 0.0)
        if abs(v - 1.0) > 1e-10:
            return _done(6, "MGF consistency", False, f"L({x},0) = {v!r}", t0)
    cache: dict = {0.0: 1.0}
    h = 0.15

    def lam(alpha: float) -> float:
        return _mgf_lambda(alpha, cache)

    d1 = (8.0 * (lam(h) - lam(-h)) - (lam(2 * h) - lam(-2 * h))) / (12.0 * h)
    d2 = (
        -(lam(2 * h) + lam(-2 * h)) + 16.0 * (lam(h) + lam(-h)) - 30.0 * lam(0.0)
    ) / (12.0 * h * h)
    # antisymmetric 6-point third derivative, O(h^4) with tiny h^4 f^(7) term
    d3 = (
        -13.0 / 8.0 * (lam(h) - lam(-h))
        + (lam(2 * h) - lam(-2 * h))
        - 1.0 / 8.0 * (lam(3 * h) - lam(-3 * h))
    ) / h**3
    worst = 0.0
    for k, fd in ((1, d1), (2, d2), (3, d3)):
        ref = grandmoments.density0_moment(k)
        rel = abs(fd / ref - 1.0)
        worst = max(worst, rel)
        if rel > 1e-5:
            return _done(
                6,
                "MGF consistency",
                False,
                f"k={k}: FD {fd:.8f} vs {ref:.8f}, rel {rel:.2e}",
                t0,
            )
    return _done(
        6, "MGF consistency", True, f"L(x,0)=1 and FD rel error <= {worst:.2e}", t0
    )


def criterion_7() -> CriterionResult:
    """Duplication identity: absolute-moment closed form equals even moments."""
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(1, 5):
        lhs = grandmoments.abs_moment_ise(2 * k)
        rhs = grandmoments.limit_moment_ise((2 * k,))
        rel = abs(lhs / rhs - 1.0)
        worst = max(worst, rel)
        if rel > 1e-12:
            return _done(
                7,
                "duplication identity",
                False,
                f"k={k}: {lhs!r} vs {rhs!r}",
                t0,
            )
    return _done(7, "duplication identity", True, f"k=1..4 rel gap <= {worst:.2e}", t0)


def criterion_8(samples: int = 500, n: int = 65536) -> CriterionResult:
    """Mean rescaled binary profile matches the mean density pointwise."""
    t0 = time.perf_counter()
    xs = (0.0, 0.5, 1.0)
    refs = [numerics.mean_density_quadrature(x) for x in xs]
    vals = np.empty((samples, len(xs)))
    for i in range(samples):
        tree = sampler.sample_binary(n, SEED_PROFILE.stream(i))
        prof = trees.vertical_profile(tree)
        vals[i] = [sampler.rescaled_density(prof, BINARY, x) for x in xs]
    means = vals.mean(axis=0)
    ses = vals.std(axis=0, ddof=1) / math.sqrt(samples)
    details = []
    passed = True
    for j, x in enumerate(xs):
        gap = abs(means[j] - refs[j])
        allowance = 3.0 * ses[j] + 0.05 * refs[j]
        details.append(f"x={x}: {means[j]:.5f} vs {refs[j]:.5f} (tol {allowance:.5f})")
        if gap > allowance:
            passed = False
    return _done(8, "local limit law MC", passed, "; ".join(details), t0)


def criterion_9() -> CriterionResult:
    """Fourier second-moment ratio stays bounded across tree sizes."""
    t0 = time.perf_counter()
    grid = np.linspace(0.0, 3.0, 200)
    maxima = {}
    for n in (10, 20, 40, 60):
        maxima[n] = max(genfun.lemma_L3_ratio(BINARY, n, float(u)) for u in grid)
    bound = 1.5 * maxima[10]
    passed = all(m <= bound for m in maxima.values())
    detail = ", ".join(f"M_{n}={m:.4f}" for n, m in maxima.items())
    return _done(9, "Fourier ratio bounded", passed, f"{detail}; bound {bound:.4f}", t0)


def _chi_square(observed: dict, classes: int, samples: int) -> float:
    expected = samples / classes
    return sum((observed.get(k, 0) - expected) ** 2 for k in range(classes)) / expected


def criterion_10(samples: int = 100_000) -> CriterionResult:
    """Sampler uniformity over shapes by chi-square at 4 sigma."""
    t0 = time.perf_counter()
    details = []
    passed = True
    for fam, n, seed in (
        (BINARY, 4, SEED_CHI_BINARY),
        (PLANE_PM1, 3, SEED_CHI_PLANE),
    ):
        keys = sorted({trees.shape_key(t) for t in trees.enumerate_trees(fam, n)})
        index = {key: i for i, key in enumerate(keys)}
        rng = seed.generator()
        observed: dict = {}
        for _ in range(samples):
            tree = sampler.sample_tree(fam, n, rng)
            i = index[trees.shape_key(tree)]
            observed[i] = observed.get(i, 0) + 1
        classes = len(keys)
        chi2 = _chi_square(observed, classes, samples)
        df = classes - 1
        limit = df + 4.0 * math.sqrt(2.0 * df)
        details.append(f"{fam.name} n={n}: chi2 {chi2:.2f} <= {limit:.2f} (df {df})")
        if chi2 > limit:
            passed = False
    return _done(10, "sampler uniformity", passed, "; ".join(details), t0)


_CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
}


def run(level: str = "full") -> list[CriterionResult]:
    """Run the quick (1, 2, 5, 7) or full (1..10) acceptance battery."""
    if level == "quick":
        cids = QUICK
    elif level == "full":
        cids = FULL
    else:
        raise ValueError("level must be 'quick' or 'full'")
    return [_CRITERIA[cid]() for cid in cids]
