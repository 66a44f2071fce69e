"""Acceptance battery: one test per numbered criterion, one line per result.

Each test delegates to the corresponding verify.criterion_* function (the
same code the `iselab verify` command runs), prints its pass/fail line
with the measured detail through the capture layer so it shows up in any
pytest run, and asserts the verdict, the number and the pinned name.
"""

import pytest

from iselab import trees, verify
from iselab.families import FAMILIES

# The name each criterion prints in the verify output.
NAMES = {
    1: "exact vs oracle",
    2: "grand-moment closure",
    3: "finite-n convergence",
    4: "excursion cross-check",
    5: "mean-density double derivation",
    6: "MGF consistency",
    7: "duplication identity",
    8: "local limit law MC",
    9: "Fourier ratio bounded",
    10: "sampler uniformity",
}


@pytest.fixture
def check(capsys):
    def _check(result, cid):
        assert (result.cid, result.name) == (cid, NAMES[cid])
        status = "PASS" if result.passed else "FAIL"
        line = (
            f"criterion {result.cid:02d} [{result.name}]: {status} "
            f"({result.elapsed:.2f}s) {result.detail}"
        )
        with capsys.disabled():
            print(f"\n{line}", flush=True)
        assert result.passed, line

    return _check


def test_criterion_01_exact_oracle_agreement(check):
    check(verify.criterion_1(), 1)


def test_criterion_01_scope():
    # A faster oracle must still cover every object of every family at
    # n <= 8, and criterion 1 must still check all of its cells.
    assert verify.criterion_1().detail == "660 cells match exactly"
    cells = [(fam, n) for fam in FAMILIES.values() for n in fam.sizes_upto(8)]
    counts = [trees.oracle_power_product_totals(fam, n, [()])[1] for fam, n in cells]
    want = [fam.count(n) for fam, n in cells]
    assert counts == want  # so their sums agree as well


def test_criterion_02_constant_recurrences(check):
    check(verify.criterion_2(), 2)


def test_criterion_03_moment_convergence(check):
    check(verify.criterion_3(), 3)


def test_criterion_04_excursion_limit(check):
    check(verify.criterion_4(), 4)


def test_criterion_05_mean_density_cross_check(check):
    check(verify.criterion_5(), 5)


def test_criterion_06_mgf_derivative_moments(check):
    check(verify.criterion_6(), 6)


def test_criterion_07_abs_moment_interpolation(check):
    check(verify.criterion_7(), 7)


def test_criterion_08_profile_density_match(check):
    check(verify.criterion_8(), 8)


def test_criterion_09_fourier_ratio_bound(check):
    check(verify.criterion_9(), 9)


def test_criterion_10_sampler_uniformity(check):
    check(verify.criterion_10(), 10)


def test_run_levels():
    quick = verify.run("quick")
    assert [(r.cid, r.name) for r in quick] == [(cid, NAMES[cid]) for cid in (1, 2, 5, 7)]
    assert all(r.passed for r in quick)
    with pytest.raises(ValueError, match="level must be 'quick' or 'full'"):
        verify.run("bogus")
