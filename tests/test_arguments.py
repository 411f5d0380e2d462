"""Argument contract: every public entry point that takes a count checks it
with `binom.check_int`.  A count must be an integer; an integral float or a
numpy integer is the same count, and anything else raises ValueError."""

import math
from fractions import Fraction

import numpy as np
import pytest

from berncert.binom import (
    SeededStream,
    binom_cdf,
    binom_pmf,
    binom_pmf_vector,
    binom_sf,
    binom_tail_invert,
    check_int,
    check_level,
    check_prob,
    draw_bernoulli,
)
from berncert.conformal import (
    IndicatorINM,
    PacParams,
    estimate_SE_probability,
    indicator_coverage_event,
    score_rank_threshold,
)
from berncert.experiments import AppendixConfig, linear_contraction_system, run_safety_demo
from berncert.indicator import exact_SE_probability, indicator_sampler, inp_closed_form, naive_interval_coverage
from berncert.intervals import (
    ClopperPearson,
    FullInterval,
    clopper_pearson,
    coverage_probability,
    endpoint_augmented_grid,
    pac_form_check,
    verify_conservative_validity,
)

PARAMS = PacParams(epsilon=Fraction(1, 2), coverage_E=0.3, n=10)


def _estimate(n_cal=3, n_test=3):
    inm = IndicatorINM(lambda z: z == 1, target_prob=0.3)
    return estimate_SE_probability(inm, indicator_sampler(0.3), PARAMS, n_cal, n_test, SeededStream(5))


def _coverage_event(n_cal=3, n_test=3):
    return indicator_coverage_event(PARAMS, 0.3, n_cal, SeededStream(5).rng(), n_test)


def _safety_demo(n_cal):
    return run_safety_demo(linear_contraction_system(), n_cal, 0.05, Fraction(1, 2), 0.3, SeededStream(5))


# name -> (call taking the count k, with k = 3 a valid input; integers out of range)
ENTRY_POINTS = {
    "binom_pmf n": (lambda k: binom_pmf(k, 0.3, 1), [0, -1]),
    "binom_pmf y": (lambda k: binom_pmf(10, 0.3, k), [-1, 11]),
    "binom_pmf_vector n": (lambda k: binom_pmf_vector(k, 0.3), [0]),
    "binom_cdf n": (lambda k: binom_cdf(k, 0.3, 1), [0]),
    "binom_cdf j": (lambda k: binom_cdf(10, 0.3, k), []),
    "binom_sf n": (lambda k: binom_sf(k, 0.3, 1), [0]),
    "binom_sf j": (lambda k: binom_sf(10, 0.3, k), []),
    "binom_tail_invert n": (lambda k: binom_tail_invert(k, 1, 0.025, "upper"), [0]),
    "binom_tail_invert y": (lambda k: binom_tail_invert(10, k, 0.025, "lower"), [-1, 11]),
    "draw_bernoulli count": (lambda k: draw_bernoulli(SeededStream(1), 0.3, k), [-1]),
    "clopper_pearson n": (lambda k: clopper_pearson(k, 1, 0.05), [0]),
    "clopper_pearson y": (lambda k: clopper_pearson(10, k, 0.05), [-1, 11]),
    "ClopperPearson n": (lambda k: ClopperPearson(k, 0.05).interval(1), [0]),
    "ClopperPearson.interval y": (lambda k: ClopperPearson(10, 0.05).interval(k), [-1, 11]),
    "FullInterval n": (lambda k: FullInterval(k).interval(1), [0]),
    "FullInterval.interval y": (lambda k: FullInterval(10).interval(k), [-1, 11]),
    "coverage_probability n": (lambda k: coverage_probability(ClopperPearson(3, 0.05), 0.3, k), [0]),
    "endpoint_augmented_grid n": (lambda k: endpoint_augmented_grid(ClopperPearson(3, 0.05), k), [0]),
    "verify_conservative_validity n": (
        lambda k: verify_conservative_validity(ClopperPearson(3, 0.05), k, 0.05), [0]),
    "pac_form_check n": (lambda k: pac_form_check(FullInterval(3), 0.3, k, 10, SeededStream(1)), [0]),
    "pac_form_check mc_trials": (
        lambda k: pac_form_check(ClopperPearson(3, 0.05), 0.3, 3, k, SeededStream(1)), [0]),
    "PacParams n": (lambda k: PacParams(epsilon=Fraction(1, 2), coverage_E=0.3, n=k), [0]),
    "score_rank_threshold n": (lambda k: score_rank_threshold(Fraction(1, 2), k), [0]),
    "indicator_coverage_event n_cal": (lambda k: _coverage_event(n_cal=k), [0]),
    "indicator_coverage_event n_test": (lambda k: _coverage_event(n_test=k), [0]),
    "estimate_SE_probability n_cal": (lambda k: _estimate(n_cal=k), [0]),
    "estimate_SE_probability n_test": (lambda k: _estimate(n_test=k), [0]),
    "inp_closed_form n": (lambda k: inp_closed_form(k, 1, 0.5), [0]),
    "inp_closed_form ones_count": (lambda k: inp_closed_form(10, k, 0.5), [-1, 11]),
    "exact_SE_probability n": (lambda k: exact_SE_probability(0.3, k, Fraction(1, 2), 0.2), [0]),
    "naive_interval_coverage n": (lambda k: naive_interval_coverage(0.3, 0.2, k, Fraction(1, 2)), [0]),
    "AppendixConfig q_min": (lambda k: AppendixConfig(q_min=k, q_max=5), [-1]),
    "AppendixConfig q_max": (lambda k: AppendixConfig(q_min=2, q_max=k), [1]),
    "AppendixConfig n_cal": (lambda k: AppendixConfig(n_cal=k), [0]),
    "AppendixConfig n_test": (lambda k: AppendixConfig(n_test=k), [0]),
    "AppendixConfig n_calibration_size": (lambda k: AppendixConfig(n_calibration_size=k), [0]),
    "run_safety_demo n_cal": (_safety_demo, [0]),
}

OUT_OF_RANGE = [(name, k) for name, (_, ks) in ENTRY_POINTS.items() for k in ks]


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_integral_forms_agree(name):
    call, _ = ENTRY_POINTS[name]
    # repr, so that an np.int64 or a 3.0 passed through to the result also fails
    results = [repr(call(k)) for k in (3, 3.0, np.int64(3), np.float64(3.0))]
    assert results[1:] == results[:-1]


@pytest.mark.parametrize("bad", [2.5, math.nan, math.inf, -math.inf, "3", np.float64(2.5)], ids=repr)
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_non_integer_refused(name, bad):
    call, _ = ENTRY_POINTS[name]
    with pytest.raises(ValueError, match="must be an integer"):
        call(bad)


@pytest.mark.parametrize("name, k", OUT_OF_RANGE)
def test_out_of_range_refused(name, k):
    call, _ = ENTRY_POINTS[name]
    with pytest.raises(ValueError, match="must be an integer in"):
        call(k)


class TestCheckers:
    def test_check_int(self):
        assert check_int(3.0, "k") == 3 and type(check_int(np.int64(3), "k")) is int
        assert check_int(10**30, "k") == 10**30
        with pytest.raises(ValueError, match=r"k must be an integer in \[0, 5\], got 6"):
            check_int(6, "k", 0, 5)
        for bad in (2.5, math.nan, math.inf, "3", b"3", None, Fraction(5, 2)):
            with pytest.raises(ValueError):
                check_int(bad, "k")

    def test_check_prob_and_level(self):
        assert check_prob(0.0) == 0.0 and check_prob(1) == 1.0
        assert check_level(Fraction(1, 2), "a") == 0.5
        for bad in (-0.1, 1.1, math.nan, math.inf):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                check_prob(bad)
        for bad in (0.0, 1.0, -3.0, 1.5, math.nan):
            with pytest.raises(ValueError, match=r"a must lie in \(0, 1\)"):
                check_level(bad, "a")
