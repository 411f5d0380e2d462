"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
status lines.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from berncert.binom import SeededStream, binom_pmf_vector
from berncert.conformal import CalibrationScores, inp_contains, p_value
from berncert.experiments import (
    AppendixConfig,
    linear_contraction_system,
    run_appendix,
    run_safety_demo,
)
from berncert.indicator import (
    ClaimNeverIssuedError,
    exact_SE_probability,
    naive_interval_coverage,
)
from berncert.intervals import ClopperPearson, verify_conservative_validity


def report(criterion: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {criterion}" + (f" ({detail})" if detail else ""))
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_exact_special_case_grid():
    """prob_SE is 1 for b <= E and b^2 for b > E, both >= E^2, on the full grid."""
    start = time.monotonic()
    eps = Fraction(2, 3)
    grid = [round(0.01 * k, 2) for k in range(1, 100)]
    ok = True
    for b in grid:
        for E in grid:
            r = exact_SE_probability(b, 2, eps, E)
            expected = 1.0 if b <= E else b * b
            if abs(r.prob_SE - expected) > 1e-12 or r.prob_SE < E * E - 1e-15:
                ok = False
    elapsed = time.monotonic() - start
    report(
        "criterion 1: exact special-case reproduction on the (b, E) grid",
        ok and elapsed < 1.0,
        f"{len(grid)**2} pairs in {elapsed:.2f}s",
    )


def test_criterion_2_brute_force_property_suite():
    """Brute force over all 2^n score tuples matches the closed form to 1e-12
    and dominates the confidence bound, for n up to 12."""
    start = time.monotonic()
    eps_grid = [Fraction(k, 20) for k in range(20)] + [Fraction(1, 3), Fraction(2, 3)]
    prob_grid = [round(0.05 * k, 2) for k in range(1, 20)]
    worst = 0.0
    bound_ok = True
    for n in range(1, 13):
        ones = np.array([bin(t).count("1") for t in range(2**n)])
        for eps in eps_grid:
            # set membership per distinct ones count, via the conformal machinery
            fullspace_by_ones = np.array(
                [
                    inp_contains(
                        CalibrationScores((1.0,) * k + (0.0,) * (n - k)), 1.0, eps
                    )
                    for k in range(n + 1)
                ]
            )
            fullspace = fullspace_by_ones[ones]
            for b in prob_grid:
                weights = b**ones * (1.0 - b) ** (n - ones)
                coverage = np.where(fullspace, 1.0, 1.0 - b)
                for E in prob_grid:
                    brute = float(weights[coverage >= 1.0 - E].sum())
                    result = exact_SE_probability(b, n, eps, E)
                    worst = max(worst, abs(brute - result.prob_SE))
                    if result.prob_SE < result.bound.confidence - 1e-12:
                        bound_ok = False
    elapsed = time.monotonic() - start
    report(
        "criterion 2: brute-force tuple enumeration vs closed form and bound",
        worst <= 1e-12 and bound_ok and elapsed < 120.0,
        f"max deviation {worst:.2e} in {elapsed:.1f}s",
    )


def test_criterion_3_interval_validity():
    """The infimum of the exact coverage over every b in [0, 1] is >= 1 - alpha
    (the exact certificate, no grid)."""
    start = time.monotonic()
    ok = True
    worst = 1.0
    for n in (1, 2, 5, 10, 25, 100):
        for alpha in (0.01, 0.05, 0.1):
            rep = verify_conservative_validity(ClopperPearson(n, alpha), n, alpha)
            worst = min(worst, rep.worst_coverage - (1 - alpha))
            ok = ok and rep.valid
    elapsed = time.monotonic() - start
    report(
        "criterion 3: conservative validity of the exact interval estimator",
        ok and elapsed < 30.0,
        f"min slack {worst:.4f} in {elapsed:.1f}s",
    )


def test_criterion_4_grid_experiment_desk_scale():
    """exact_inner mode at n_cal = 5000: h_hat within 5 sigma of the exact
    value, with the regime structure of the two curves."""
    start = time.monotonic()
    config = AppendixConfig(n_cal=5000, n_test=1, master_seed=0, mode="exact_inner")
    rows = run_appendix(config)
    ok = len(rows) == 198
    for r in rows:
        tol = 5 * math.sqrt(r.exact_prob_SE * (1 - r.exact_prob_SE) / r.n_cal)
        if abs(r.h_hat - r.exact_prob_SE) > tol:
            ok = False
        if r.regime == "b_gt_E":
            if r.frac_qbar_covering != 0.0:
                ok = False
            if abs(r.exact_prob_SE - r.b**2) > 1e-12:
                ok = False
        else:
            if r.exact_prob_SE != 1.0:
                ok = False
            # full-space fraction approximates b^2 (5 sigma binomial tolerance)
            p = r.b**2
            if abs(r.frac_fullspace - p) > 5 * math.sqrt(p * (1 - p) / r.n_cal):
                ok = False
    elapsed = time.monotonic() - start
    report(
        "criterion 4: E-grid experiment reproduction at desk scale",
        ok and elapsed < 60.0,
        f"{len(rows)} rows in {elapsed:.1f}s",
    )


def test_criterion_5_naive_interval_dichotomy():
    """The naive interval rule covers with conditional probability exactly
    0 when b > E and exactly 1 when b <= E."""
    ok = True
    eps_grid = [Fraction(2, 3), Fraction(1, 2), Fraction(4, 5)]
    for b, E, n in itertools.product(
        (0.1, 0.3, 0.5, 0.7, 0.9), (0.2, 0.4, 0.6, 0.85), (2, 5, 10)
    ):
        for eps in eps_grid:
            try:
                rep = naive_interval_coverage(b, E, n, eps)
            except ClaimNeverIssuedError:
                continue
            expected = 1.0 if b <= E else 0.0
            if rep.conditional_coverage != expected:
                ok = False
    report("criterion 5: naive-interval fallacy is an exact 0/1 dichotomy", ok)


def test_criterion_6_p_value_table():
    """The four (calibration, candidate) cases give exact rationals 1/3, 2/3, 1, 1."""
    table = [
        (CalibrationScores((0.0, 0.0)), 1.0, Fraction(1, 3)),
        (CalibrationScores((0.0, 1.0)), 1.0, Fraction(2, 3)),
        (CalibrationScores((0.0, 1.0)), 0.0, Fraction(1)),
        (CalibrationScores((1.0, 1.0)), 0.0, Fraction(1)),
    ]
    ok = all(p_value(cal, cand) == expected for cal, cand, expected in table)
    report("criterion 6: calibration p-value table as exact rationals", ok)


def test_criterion_7_safety_demo_calibration():
    """200 replications of the contraction scenario: the interval covers the
    true unsafe probability 1/2 at rate >= 0.95 - 3 sigma."""
    start = time.monotonic()
    system = linear_contraction_system()
    n_reps, n_cal, alpha = 200, 100, 0.05
    master = SeededStream(2024)
    covered = 0
    for i in range(n_reps):
        rep = run_safety_demo(
            system, n_cal, alpha, Fraction(2, 3), 0.4, master.substream(i)
        )
        covered += rep.interval.contains(0.5)
    rate = covered / n_reps
    floor = (1 - alpha) - 3 * math.sqrt(alpha * (1 - alpha) / n_reps)
    elapsed = time.monotonic() - start
    report(
        "criterion 7: safety-demo interval calibration",
        rate >= floor and elapsed < 30.0,
        f"coverage {rate:.3f} >= {floor:.3f} in {elapsed:.1f}s",
    )
