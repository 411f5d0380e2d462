"""Argument contract: every public entry point that takes a count checks it
with `binom.check_int`.  A count must be an integer; an integral float or a
numpy integer is the same count, and anything else raises ValueError.
Probabilities, levels and significance levels epsilon go through
`check_prob`, `check_level` and `check_epsilon` in the same way."""

import argparse
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
    check_epsilon,
    check_int,
    check_level,
    check_prob,
)
from berncert.cli import prob_arg
from berncert.conformal import (
    CalibrationScores,
    IndicatorINM,
    PacParams,
    estimate_SE_probability,
    indicator_coverage_event,
    inp_contains,
    score_rank_threshold,
)
from berncert.experiments import AppendixConfig, linear_contraction_system, run_safety_demo
from berncert.indicator import (
    enumerate_example1,
    exact_SE_probability,
    inp_closed_form,
    monte_carlo_SE_probability,
    naive_interval_coverage,
)
from berncert.intervals import (
    ClopperPearson,
    EndpointTable,
    IntervalEstimate,
    clopper_pearson,
    coverage_probability,
    endpoint_augmented_grid,
    pac_form_check,
    verify_conservative_validity,
)
from helpers import draw_bernoulli, indicator_sampler

PARAMS = PacParams(epsilon=Fraction(1, 2), coverage_E=0.3, n=10)


def _estimate(n_cal=3, n_test=3):
    inm = IndicatorINM(lambda z: z == 1, target_prob=0.3)
    return estimate_SE_probability(inm, indicator_sampler(0.3), PARAMS, n_cal, n_test, SeededStream(5))


def _coverage_event(n_cal=3, n_test=3):
    return indicator_coverage_event(PARAMS, 0.3, n_cal, SeededStream(5).rng(), n_test)


def _safety_demo(n_cal):
    return run_safety_demo(linear_contraction_system(), n_cal, 0.05, Fraction(1, 2), 0.3, SeededStream(5))


# the least trial count past the domain n <= 2^53
PAST_N_MAX = 2**53 + 1

# name -> (call taking the count k, with k = 3 a valid input; integers out of range)
ENTRY_POINTS = {
    "binom_pmf n": (lambda k: binom_pmf(k, 0.3, 1), [0, -1, PAST_N_MAX]),
    "binom_pmf y": (lambda k: binom_pmf(10, 0.3, k), [-1, 11]),
    "binom_pmf_vector n": (lambda k: binom_pmf_vector(k, 0.3), [0, PAST_N_MAX]),
    "binom_cdf n": (lambda k: binom_cdf(k, 0.3, 1), [0, PAST_N_MAX]),
    "binom_cdf j": (lambda k: binom_cdf(10, 0.3, k), []),
    "binom_sf n": (lambda k: binom_sf(k, 0.3, 1), [0, PAST_N_MAX]),
    "binom_sf j": (lambda k: binom_sf(10, 0.3, k), []),
    "binom_tail_invert n": (lambda k: binom_tail_invert(k, 1, 0.025, "upper"), [0, PAST_N_MAX]),
    "binom_tail_invert y": (lambda k: binom_tail_invert(10, k, 0.025, "lower"), [-1, 11]),
    # a helper in tests/helpers.py, which checks its count and b with the package's checkers
    "draw_bernoulli count": (lambda k: draw_bernoulli(SeededStream(1), 0.3, k), [-1]),
    "clopper_pearson n": (lambda k: clopper_pearson(k, 1, 0.05), [0, PAST_N_MAX]),
    "clopper_pearson y": (lambda k: clopper_pearson(10, k, 0.05), [-1, 11]),
    "ClopperPearson n": (lambda k: ClopperPearson(k, 0.05).interval(1), [0, PAST_N_MAX]),
    "ClopperPearson.interval y": (lambda k: ClopperPearson(10, 0.05).interval(k), [-1, 11]),
    "EndpointTable n": (lambda k: EndpointTable(k, [0.0] * 4, [1.0] * 4), [0]),
    "EndpointTable.of n": (lambda k: EndpointTable.of(ClopperPearson(3, 0.05), k), [-1, 0]),
    "coverage_probability n": (lambda k: coverage_probability(ClopperPearson(3, 0.05), 0.3, k), [0]),
    "endpoint_augmented_grid n": (lambda k: endpoint_augmented_grid(ClopperPearson(3, 0.05), k), [0]),
    "verify_conservative_validity n": (
        lambda k: verify_conservative_validity(ClopperPearson(3, 0.05), k, 0.05), [0]),
    "pac_form_check n": (
        lambda k: pac_form_check(EndpointTable(3, [0.0] * 4, [1.0] * 4), 0.3, k, 10, SeededStream(1)), [0]),
    "pac_form_check mc_trials": (
        lambda k: pac_form_check(ClopperPearson(3, 0.05), 0.3, 3, k, SeededStream(1)), [0]),
    "PacParams n": (lambda k: PacParams(epsilon=Fraction(1, 2), coverage_E=0.3, n=k), [0, PAST_N_MAX]),
    "score_rank_threshold n": (lambda k: score_rank_threshold(Fraction(1, 2), k), [0]),
    "PacParams.complement_miss_limit n_test": (lambda k: PARAMS.complement_miss_limit(k), [0]),
    "indicator_coverage_event n_cal": (lambda k: _coverage_event(n_cal=k), [0, PAST_N_MAX]),
    "indicator_coverage_event n_test": (lambda k: _coverage_event(n_test=k), [0, PAST_N_MAX]),
    "estimate_SE_probability n_cal": (lambda k: _estimate(n_cal=k), [0]),
    "estimate_SE_probability n_test": (lambda k: _estimate(n_test=k), [0]),
    "inp_closed_form n": (lambda k: inp_closed_form(k, 1, 0.5), [0]),
    "inp_closed_form ones_count": (lambda k: inp_closed_form(10, k, 0.5), [-1, 11]),
    "exact_SE_probability n": (lambda k: exact_SE_probability(0.3, k, Fraction(1, 2), 0.2), [0]),
    "naive_interval_coverage n": (lambda k: naive_interval_coverage(0.3, 0.2, k, Fraction(1, 2)), [0]),
    "monte_carlo_SE_probability n": (
        lambda k: monte_carlo_SE_probability(0.3, k, Fraction(1, 2), 0.2, 10), [0]),
    "monte_carlo_SE_probability n_test": (
        lambda k: monte_carlo_SE_probability(0.3, 10, Fraction(1, 2), 0.2, k), [0]),
    "AppendixConfig q_min": (lambda k: AppendixConfig(q_min=k, q_max=5), [-1]),
    "AppendixConfig q_max": (lambda k: AppendixConfig(q_min=2, q_max=k), [1]),
    "AppendixConfig n_cal": (lambda k: AppendixConfig(n_cal=k), [0, PAST_N_MAX]),
    "AppendixConfig n_test": (lambda k: AppendixConfig(n_test=k), [0, PAST_N_MAX]),
    "AppendixConfig n_calibration_size": (lambda k: AppendixConfig(n_calibration_size=k), [0, PAST_N_MAX]),
    "AppendixConfig master_seed": (lambda k: AppendixConfig(master_seed=k), []),
    "run_safety_demo n_cal": (_safety_demo, [0]),
    "linear_contraction_system horizon": (lambda k: linear_contraction_system(horizon=k).horizon, [-1]),
}

OUT_OF_RANGE = [(name, k) for name, (_, ks) in ENTRY_POINTS.items() for k in ks]

# name -> call taking a probability or a level p, with p = 0.3 a valid input
PROBABILITIES = {
    "binom_pmf b": lambda p: binom_pmf(10, p, 2),
    "binom_cdf b": lambda p: binom_cdf(10, p, 2),
    "binom_sf b": lambda p: binom_sf(10, p, 2),
    "binom_pmf_vector b": lambda p: binom_pmf_vector(10, p),
    "binom_tail_invert target": lambda p: binom_tail_invert(10, 3, p, "upper"),
    "draw_bernoulli b": lambda p: draw_bernoulli(SeededStream(1), p, 5),
    "clopper_pearson alpha": lambda p: clopper_pearson(10, 3, p),
    "ClopperPearson alpha": lambda p: ClopperPearson(10, p).interval(3),
    "coverage_probability b": lambda p: coverage_probability(ClopperPearson(10, 0.05), p, 10),
    "verify_conservative_validity alpha": lambda p: verify_conservative_validity(ClopperPearson(5, 0.05), 5, p),
    "exact_SE_probability b": lambda p: exact_SE_probability(p, 10, Fraction(1, 2), 0.2),
    "monte_carlo_SE_probability b": lambda p: monte_carlo_SE_probability(p, 10, Fraction(1, 2), 0.2, 10),
    "AppendixConfig alpha_frac": lambda p: AppendixConfig(alpha_frac=p),
}


# name -> call taking a significance level epsilon e, with e = 1/2 a valid input
EPSILONS = {
    "check_epsilon": check_epsilon,
    "score_rank_threshold epsilon": lambda e: score_rank_threshold(e, 3),
    "PacParams epsilon": lambda e: PacParams(epsilon=e, coverage_E=0.3, n=10),
    "inp_contains epsilon": lambda e: inp_contains(CalibrationScores((0.0, 1.0, 1.0)), 1.0, e),
    "inp_closed_form epsilon": lambda e: inp_closed_form(10, 3, e),
    "exact_SE_probability epsilon": lambda e: exact_SE_probability(0.3, 10, e, 0.2),
    "monte_carlo_SE_probability epsilon": lambda e: monte_carlo_SE_probability(0.3, 10, e, 0.2, 10),
    "enumerate_example1 epsilon": lambda e: enumerate_example1(0.3, e, 0.2),
    "naive_interval_coverage epsilon": lambda e: naive_interval_coverage(0.3, 0.2, 3, e),
    "AppendixConfig epsilon": lambda e: AppendixConfig(epsilon=e),
    "run_safety_demo epsilon": lambda e: run_safety_demo(
        linear_contraction_system(), 5, 0.05, e, 0.3, SeededStream(5)),
}


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


@pytest.mark.parametrize("name", PROBABILITIES)
def test_probability_forms_agree(name):
    call = PROBABILITIES[name]
    results = [repr(call(p)) for p in (0.3, Fraction(3, 10), np.float64(0.3))]
    assert results[1:] == results[:-1]


@pytest.mark.parametrize("text", ["0.3", b"0.3"], ids=repr)
@pytest.mark.parametrize("name", PROBABILITIES)
def test_probability_text_refused(name, text):
    with pytest.raises(ValueError, match="must lie in"):
        PROBABILITIES[name](text)


@pytest.mark.parametrize("name", EPSILONS)
def test_epsilon_forms_agree(name):
    call = EPSILONS[name]
    results = [repr(call(e)) for e in (Fraction(1, 2), 0.5, np.float64(0.5))]
    assert results[1:] == results[:-1]


@pytest.mark.parametrize("bad", ["2/3", b"2/3", None, math.inf, math.nan, 1.5], ids=repr)
@pytest.mark.parametrize("name", EPSILONS)
def test_epsilon_refused(name, bad):
    with pytest.raises(ValueError, match=r"epsilon must lie in \[0, 1\]"):
        EPSILONS[name](bad)


# name -> (lowers, uppers) of a table for n = 3, and what the refusal must say
TABLE_REFUSALS = {
    "lowers length": (([0.0] * 3, [1.0] * 4), r"^lowers and uppers must hold n \+ 1 = 4 ends, got 3 and 4"),
    "uppers length": (([0.0] * 4, [1.0] * 5), r"^lowers and uppers must hold n \+ 1 = 4 ends, got 4 and 5"),
    "lower above upper": (([0.0, 0.6, 0.6, 0.6], [0.5, 0.4, 1.0, 1.0]), r"lowers\[1\], uppers\[1\] = \[0.6, 0.4\]"),
    "end below 0": (([-0.1, 0.0, 0.0, 0.0], [1.0] * 4), r"lowers\[0\], uppers\[0\] = \[-0.1, 1.0\]"),
    "end above 1": (([0.0] * 4, [1.0, 1.0, 1.0, 1.5]), r"lowers\[3\], uppers\[3\] = \[0.0, 1.5\]"),
    "NaN": (([0.0] * 4, [1.0, math.nan, 1.0, 1.0]), r"lowers\[1\], uppers\[1\] = \[0.0, nan\]"),
    "text lower": (([0.0, "0.1", 0.2, 0.3], [1.0] * 4), r"lowers\[1\], uppers\[1\] = \['0.1', 1.0\]"),
    "None upper": (([0.0] * 4, [1.0, 1.0, None, 1.0]), r"lowers\[2\], uppers\[2\] = \[0.0, None\]"),
}


@pytest.mark.parametrize("name", TABLE_REFUSALS)
def test_endpoint_table_refused(name):
    (lowers, uppers), message = TABLE_REFUSALS[name]
    with pytest.raises(ValueError, match=message):
        EndpointTable(3, lowers, uppers)
    # and on _replace, which checks again
    table = EndpointTable(3, [0.0] * 4, [1.0] * 4)
    with pytest.raises(ValueError, match=message):
        table._replace(lowers=lowers, uppers=uppers)


# (lower, upper) of an IntervalEstimate for n = 1, y = 0, and what the refusal must say
INTERVAL_REFUSALS = {
    "text lower": (("0.1", 0.5), r"^invalid interval \['0.1', 0.5\]"),
    "text upper": ((0.1, b"0.5"), r"^invalid interval \[0.1, b'0.5'\]"),
    "None lower": ((None, 0.5), r"^invalid interval \[None, 0.5\]"),
    "None upper": ((0.1, None), r"^invalid interval \[0.1, None\]"),
}


@pytest.mark.parametrize("name", INTERVAL_REFUSALS)
def test_interval_estimate_refused(name):
    """An end that is not a number is refused with ValueError, as every other
    argument is, not with the TypeError of comparing it."""
    (lower, upper), message = INTERVAL_REFUSALS[name]
    with pytest.raises(ValueError, match=message):
        IntervalEstimate(lower, upper, 0.05, 1, 0)
    with pytest.raises(ValueError, match=message):
        IntervalEstimate(0.0, 1.0, 0.05, 1, 0)._replace(lower=lower, upper=upper)


@pytest.mark.parametrize("text", ["1.5", "-1/3", "nan", "inf", "1/0", "x"])
def test_cli_probability_refused(text):
    with pytest.raises(argparse.ArgumentTypeError, match=repr(text)):
        prob_arg(text)


def test_cli_probability_exact():
    assert prob_arg("2/3") == Fraction(2, 3) and prob_arg("0.1") == Fraction(1, 10)
    assert prob_arg("0") == 0 and prob_arg("1") == 1


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
        for bad in (-0.1, 1.1, math.nan, math.inf, "0.3", b"0.3", None, 10**400):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                check_prob(bad)
        for bad in (0.0, 1.0, -3.0, 1.5, math.nan, "0.05", b"0.05", None):
            with pytest.raises(ValueError, match=r"a must lie in \(0, 1\)"):
                check_level(bad, "a")
