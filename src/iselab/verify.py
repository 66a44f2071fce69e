"""Acceptance harness: the ten numbered checks behind the verify command.

Each criterion is declared once, by the _criterion decorator with its
number and name.  Its body returns (passed, detail), detail a one-line
measurement; the decorator times the whole body, builds the
CriterionResult and registers the criterion for run.  A criterion never
raises on a mere failed bound (only on infrastructure errors).  Monte
Carlo checks use fixed Philox master seeds so reruns are byte-identical.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

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

# Frozen Monte Carlo sizes: criterion 8's draws and tree size, and
# criterion 10's draws per family.
PROFILE_SAMPLES = 500
PROFILE_N = 65536
CHI_SAMPLES = 100_000


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    name: str
    passed: bool
    detail: str
    elapsed: float


_CRITERIA: dict[int, Callable[[], CriterionResult]] = {}


def _criterion(cid: int, name: str):
    """Register a body returning (passed, detail) as criterion cid."""

    def register(body: Callable[[], tuple[bool, str]]) -> Callable[[], CriterionResult]:
        @functools.wraps(body, assigned=("__module__", "__name__", "__qualname__", "__doc__"))
        def criterion() -> CriterionResult:
            t0 = time.perf_counter()
            passed, detail = body()
            return CriterionResult(cid, name, bool(passed), detail, time.perf_counter() - t0)

        _CRITERIA[cid] = criterion
        return criterion

    return register


@_criterion(1, "exact vs oracle")
def criterion_1() -> tuple[bool, str]:
    """Series-based exact moments equal brute-force enumeration exactly."""
    lams = tuple(positive_partitions(6, 3))
    checked = 0
    for fam in FAMILIES.values():
        for n in fam.sizes_upto(8):
            totals, count = trees.oracle_power_product_totals(fam, n, lams)
            for lam in lams:
                oracle = Fraction(totals[lam], count)
                exact = genfun.exact_moment(fam, lam, n).exact
                if exact != oracle:
                    return False, f"mismatch at {fam.name} n={n} lam={lam}: {exact} != {oracle}"
                checked += 1
    return True, f"{checked} cells match exactly"


@_criterion(2, "grand-moment closure")
def criterion_2() -> tuple[bool, str]:
    """Grand-moment recurrences close: c_(2k) ladder and a vs c identities."""
    for k in range(1, 11):
        lhs = grandmoments.c_lambda((2 * k,))
        rhs = k * (2 * k - 1) * grandmoments.c_lambda((2 * k - 2,))
        if lhs != rhs:
            return False, f"c ladder fails at k={k}"
    pairs = 0
    for k in range(0, 9):
        for ell in range(0, 9 - k):
            lam = (1,) * (2 * k) + (2,) * ell
            if grandmoments.a_coeff2(k, ell) != grandmoments.c_lambda(lam):
                return False, f"a_(k,l) vs c fails at k={k}, l={ell}"
            if ell == 0 and grandmoments.a_coeff(k) != grandmoments.c_lambda(lam):
                return False, f"a_k vs c fails at k={k}"
            pairs += 1
    return True, f"c ladder k<=10 and {pairs} a-vs-c identities exact"


@_criterion(3, "finite-n convergence")
def criterion_3() -> tuple[bool, str]:
    """Finite-n normalized moments approach the ISE limits monotonically."""
    sizes = (64, 256, 1024)
    worst = 0.0
    for lam in ((2,), (1, 1), (4,), (2, 2)):
        limit = grandmoments.limit_moment_ise(lam)
        gaps = [
            abs(genfun.float_moment(BINARY, lam, n) / limit - 1.0) for n in sizes
        ]
        if not (gaps[0] > gaps[1] > gaps[2]):
            return False, f"gaps not decreasing for lam={lam}: {gaps}"
        if gaps[2] >= 0.15:
            return False, f"final gap {gaps[2]:.4f} >= 0.15 for lam={lam}"
        worst = max(worst, gaps[2])
    return True, f"gaps strictly decreasing, final gap <= {worst:.4f}"


@_criterion(4, "excursion cross-check")
def criterion_4() -> tuple[bool, str]:
    """Excursion first moment: closed form and Dyck-path MC agree."""
    closed = math.sqrt(math.pi / 8.0)
    exact = grandmoments.limit_moment_exc((1,))
    if abs(exact - closed) > 1e-12:
        return False, f"closed form off: {exact}"
    est = sampler.empirical_dyck_moment(2048, (1,), 5000, SEED_DYCK)
    allowance = 3.0 * est.stderr + 0.10 * closed
    gap = abs(est.mean - closed)
    return (
        gap <= allowance,
        f"MC mean {est.mean:.5f} vs {closed:.5f}, gap {gap:.5f} <= {allowance:.5f}",
    )


@_criterion(5, "mean-density double derivation")
def criterion_5() -> tuple[bool, str]:
    """Quadrature and series mean-density derivations agree."""
    worst = 0.0
    for lam_x in (0.0, 0.25, 0.5, 1.0, 2.0):
        q = numerics.mean_density_quadrature(lam_x)
        s = numerics.mean_density_series(lam_x)
        worst = max(worst, abs(q - s))
        if abs(q - s) > 1e-8:
            return False, f"quad vs series gap {abs(q - s):.2e} at lambda={lam_x}"
    closed = 2.0**-0.75 * math.gamma(0.75) / math.sqrt(math.pi)
    q0 = numerics.mean_density_quadrature(0.0)
    s0 = numerics.mean_density_series(0.0)
    if abs(q0 - closed) > 1e-10 or abs(s0 - closed) > 1e-10:
        return False, f"lambda=0 values {q0!r}, {s0!r} vs closed {closed!r}"
    return True, f"max quad-series gap {worst:.2e}; lambda=0 matches closed form"


@_criterion(6, "MGF consistency")
def criterion_6() -> tuple[bool, str]:
    """Finite-difference MGF moments match the closed-form point moments."""
    for x in (0.0, 0.5, 1.0):
        v = numerics.mgf_L(x, 0.0)
        if abs(v - 1.0) > 1e-10:
            return False, f"L({x},0) = {v!r}"
    h = 0.15
    # L(0, 2^(-1/4) alpha) at the stencil points alpha = j h; 1 at alpha = 0.
    lam = {j: numerics.mgf_L(0.0, 2.0**-0.25 * (j * h)) if j else 1.0 for j in range(-3, 4)}
    d1 = (8.0 * (lam[1] - lam[-1]) - (lam[2] - lam[-2])) / (12.0 * h)
    d2 = (
        -(lam[2] + lam[-2]) + 16.0 * (lam[1] + lam[-1]) - 30.0 * lam[0]
    ) / (12.0 * h * h)
    # antisymmetric 6-point third derivative, O(h^4) with tiny h^4 f^(7) term
    d3 = (
        -13.0 / 8.0 * (lam[1] - lam[-1])
        + (lam[2] - lam[-2])
        - 1.0 / 8.0 * (lam[3] - lam[-3])
    ) / h**3
    worst = 0.0
    for k, fd in ((1, d1), (2, d2), (3, d3)):
        ref = grandmoments.density0_moment(k)
        rel = abs(fd / ref - 1.0)
        worst = max(worst, rel)
        if rel > 1e-5:
            return False, f"k={k}: FD {fd:.8f} vs {ref:.8f}, rel {rel:.2e}"
    return True, f"L(x,0)=1 and FD rel error <= {worst:.2e}"


@_criterion(7, "duplication identity")
def criterion_7() -> tuple[bool, str]:
    """Duplication identity: absolute-moment closed form equals even moments."""
    worst = 0.0
    for k in range(1, 5):
        lhs = grandmoments.abs_moment_ise(2 * k)
        rhs = grandmoments.limit_moment_ise((2 * k,))
        rel = abs(lhs / rhs - 1.0)
        worst = max(worst, rel)
        if rel > 1e-12:
            return False, f"k={k}: {lhs!r} vs {rhs!r}"
    return True, f"k=1..4 rel gap <= {worst:.2e}"


@_criterion(8, "local limit law MC")
def criterion_8() -> tuple[bool, str]:
    """Mean rescaled binary profile matches the mean density pointwise."""
    xs = (0.0, 0.5, 1.0)
    refs = [numerics.mean_density_quadrature(x) for x in xs]
    vals = np.empty((PROFILE_SAMPLES, len(xs)))
    for i in range(PROFILE_SAMPLES):
        tree = sampler.sample_binary(PROFILE_N, SEED_PROFILE.stream(i))
        prof = trees.vertical_profile(tree)
        vals[i] = [sampler.rescaled_density(prof, BINARY, x) for x in xs]
    means = vals.mean(axis=0)
    ses = vals.std(axis=0, ddof=1) / math.sqrt(PROFILE_SAMPLES)
    details = []
    passed = True
    for j, x in enumerate(xs):
        gap = abs(means[j] - refs[j])
        allowance = 3.0 * ses[j] + 0.05 * refs[j]
        details.append(f"x={x}: {means[j]:.5f} vs {refs[j]:.5f} (tol {allowance:.5f})")
        if gap > allowance:
            passed = False
    return passed, "; ".join(details)


@_criterion(9, "Fourier ratio bounded")
def criterion_9() -> tuple[bool, str]:
    """Fourier second-moment ratio stays bounded across tree sizes."""
    grid = np.linspace(0.0, 3.0, 200)
    maxima = {}
    for n in (10, 20, 40, 60, 120, 240):
        maxima[n] = max(genfun.lemma_L3_ratio(BINARY, n, float(u)) for u in grid)
    bound = 1.5 * maxima[10]
    passed = all(m <= bound for m in maxima.values())
    detail = ", ".join(f"M_{n}={m:.4f}" for n, m in maxima.items())
    return passed, f"{detail}; bound {bound:.4f}"


def _chi_square(observed: dict, classes: int, samples: int) -> float:
    expected = samples / classes
    return sum((observed.get(k, 0) - expected) ** 2 for k in range(classes)) / expected


@_criterion(10, "sampler uniformity")
def criterion_10() -> tuple[bool, str]:
    """Sampler uniformity over shapes by chi-square at 4 sigma."""
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
        for _ in range(CHI_SAMPLES):
            tree = sampler.sample_tree(fam, n, rng)
            i = index[trees.shape_key(tree)]
            observed[i] = observed.get(i, 0) + 1
        classes = len(keys)
        chi2 = _chi_square(observed, classes, CHI_SAMPLES)
        df = classes - 1
        limit = df + 4.0 * math.sqrt(2.0 * df)
        details.append(f"{fam.name} n={n}: chi2 {chi2:.2f} <= {limit:.2f} (df {df})")
        if chi2 > limit:
            passed = False
    return passed, "; ".join(details)


def run(level: str = "full") -> list[CriterionResult]:
    """Run the quick (1, 2, 5, 7) or full (1..10) acceptance battery."""
    if level == "quick":
        cids = QUICK
    elif level == "full":
        cids = FULL
    else:
        raise ValueError("level must be 'quick' or 'full'")
    return [_CRITERIA[cid]() for cid in cids]
