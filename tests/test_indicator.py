"""Tests for the closed-form indicator-score analysis.

The brute-force oracle enumerates every binary score tuple directly and stays
independent of the closed forms it checks.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from berncert.binom import SeededStream
from berncert.conformal import (
    CalibrationScores,
    IndicatorINM,
    PacParams,
    estimate_SE_probability,
    inp_contains,
    theorem1_bound,
)
from berncert.indicator import (
    ClaimNeverIssuedError,
    Example1Table,
    PredictionSetKind,
    enumerate_example1,
    exact_SE_probability,
    inp_closed_form,
    monte_carlo_SE_probability,
    naive_interval_coverage,
)
from berncert.intervals import coverage_probability, verify_conservative_validity
from helpers import conformal_claim, draw_bernoulli


def brute_force_SE(b: float, n: int, epsilon, coverage_E: float) -> float:
    """Sum over all 2^n score tuples of weight * [coverage >= 1 - E]."""
    total = []
    for tup in itertools.product((0.0, 1.0), repeat=n):
        cal = CalibrationScores(tup)
        ones = int(sum(tup))
        weight = b**ones * (1 - b) ** (n - ones)
        includes_q = inp_contains(cal, 1.0, epsilon)
        includes_qbar = inp_contains(cal, 0.0, epsilon)
        coverage = b * includes_q + (1 - b) * includes_qbar
        if coverage >= 1 - coverage_E:
            total.append(weight)
    return math.fsum(total)


class TestInpClosedForm:
    def test_example1_cases(self):
        assert inp_closed_form(2, 0, 0.5) is PredictionSetKind.Q_COMPLEMENT
        assert inp_closed_form(2, 1, 0.5) is PredictionSetKind.FULL_SPACE
        assert inp_closed_form(2, 2, 0.9) is PredictionSetKind.FULL_SPACE

    def test_epsilon_one_empty(self):
        assert inp_closed_form(2, 1, 1) is PredictionSetKind.EMPTY

    def test_knife_edges(self):
        # intervals are closed at the left endpoint: p > eps fails at equality
        assert inp_closed_form(2, 0, Fraction(1, 3)) is PredictionSetKind.Q_COMPLEMENT
        assert inp_closed_form(2, 1, Fraction(2, 3)) is PredictionSetKind.Q_COMPLEMENT

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            inp_closed_form(2, 3, 0.5)
        with pytest.raises(ValueError):
            inp_closed_form(2, 1, 1.5)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_agrees_with_direct_conformal_membership(self, n):
        eps_grid = [Fraction(k, 20) for k in range(21)] + [Fraction(1, 3), Fraction(2, 3)]
        for ones in range(n + 1):
            scores = CalibrationScores((1.0,) * ones + (0.0,) * (n - ones))
            for eps in eps_grid:
                kind = inp_closed_form(n, ones, eps)
                in_q = inp_contains(scores, 1.0, eps)
                in_qbar = inp_contains(scores, 0.0, eps)
                if kind is PredictionSetKind.FULL_SPACE:
                    assert in_q and in_qbar
                elif kind is PredictionSetKind.Q_COMPLEMENT:
                    assert in_qbar and not in_q
                else:
                    assert kind is PredictionSetKind.EMPTY
                    assert not in_q and not in_qbar


class TestExactSE:
    def test_paper_scale_example_b_above(self):
        result = exact_SE_probability(0.5, 2, Fraction(2, 3), 0.4)
        assert result.prob_SE == pytest.approx(0.25, abs=1e-14)
        assert result.prob_fullspace == pytest.approx(0.25, abs=1e-14)
        assert result.prob_qbar_covering == 0.0

    def test_paper_scale_example_b_below(self):
        result = exact_SE_probability(0.3, 2, Fraction(2, 3), 0.5)
        assert result.prob_SE == 1.0
        assert result.prob_fullspace == pytest.approx(0.09, abs=1e-14)
        assert result.prob_qbar_covering == pytest.approx(0.91, abs=1e-14)

    def test_derived_n5_value(self):
        result = exact_SE_probability(0.7, 5, 0.5, 0.6)
        assert result.prob_SE == pytest.approx(0.83692, abs=1e-12)
        # cross-check against the independent enumeration oracle
        assert result.prob_SE == pytest.approx(brute_force_SE(0.7, 5, 0.5, 0.6), abs=1e-12)

    def test_decomposition_sums(self):
        for b in (0.2, 0.6):
            for E in (0.3, 0.7):
                r = exact_SE_probability(b, 4, Fraction(2, 5), E)
                assert r.prob_SE == pytest.approx(
                    r.prob_fullspace + r.prob_qbar_covering
                    if b <= E
                    else r.prob_fullspace,
                    abs=1e-14,
                )
                assert r.prob_SE >= r.bound.confidence - 1e-12

    def test_epsilon_one_rejected(self):
        with pytest.raises(ValueError):
            exact_SE_probability(0.5, 2, 1, 0.4)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_brute_force(self, n):
        eps_grid = [Fraction(k, 10) for k in range(10)] + [Fraction(1, 3), Fraction(2, 3)]
        for b in (0.1, 0.5, 0.9):
            for eps in eps_grid:
                for E in (0.2, 0.5, 0.8):
                    exact = exact_SE_probability(b, n, eps, E).prob_SE
                    brute = brute_force_SE(b, n, eps, E)
                    assert exact == pytest.approx(brute, abs=1e-12)

    def test_tightness_when_b_above_E(self):
        # the bound is met only through trivial full-space predictions
        r = exact_SE_probability(0.7, 6, Fraction(1, 2), 0.5)
        assert r.prob_qbar_covering == 0.0
        assert r.prob_SE == r.prob_fullspace


    def test_tiny_fullspace_probability_keeps_relative_accuracy(self):
        # the full space needs ones_count >= J + 1 = 39 of 40 at b = 0.01:
        # a probability of about 4e-78, which 1 - Pr(Y <= J) would round to 0
        b = 0.01
        r = exact_SE_probability(b, 40, Fraction(39, 41), 0.005)
        bf = Fraction(b)
        exact = sum(math.comb(40, k) * bf**k * (1 - bf) ** (40 - k) for k in (39, 40))
        assert r.prob_fullspace == pytest.approx(float(exact), rel=1e-13)
        assert r.prob_SE == r.prob_fullspace

    @pytest.mark.parametrize("n, eps, E, b", [
        (20, Fraction(1, 2), 0.9995, 0.999),
        (200, Fraction(1, 10), 0.95, 0.9),
        (2, Fraction(2, 3), 1 - 1e-10, 1 - 1e-9),
    ])
    def test_tiny_complement_probability_keeps_relative_accuracy(self, n, eps, E, b):
        """Where the full space is near certain, the covering complement
        prediction's probability Pr(Y <= J) keeps its digits: as
        1 - prob_fullspace it read 0.0 for about 1.7e-28 and 2.4e-156, and
        was off by 5e-10 relative at n = 2."""
        r = exact_SE_probability(b, n, eps, E)
        J = PacParams(eps, E, n).J
        bf = Fraction(b)
        exact = sum(math.comb(n, k) * bf**k * (1 - bf) ** (n - k) for k in range(J + 1))
        assert 0 < exact < Fraction(1, 2)
        assert abs(Fraction(r.prob_qbar_covering) - exact) <= Fraction(1e-13) * exact
        assert r.prob_SE == 1.0


class TestMonteCarloTarget:
    def test_worked_case(self):
        # q = 39 of the sweep at n_test = 1000, where exact_prob_SE is 0.162
        assert monte_carlo_SE_probability(0.402, 2, Fraction(2, 3), 0.4, 1000) == pytest.approx(0.549, abs=5e-4)

    @pytest.mark.parametrize("n, n_test, b, E", [
        (2, 3, 0.3, 1 / 3), (2, 7, 0.35, 0.3), (5, 20, 0.2, 0.25), (3, 1, 0.6, 0.5), (4, 10, 0.05, 0.1),
    ])
    def test_matches_enumeration(self, n, n_test, b, E):
        # every (calibration ones, test misses) pair, with exact weights and
        # the sweep's own float test of the inner coverage
        J = PacParams(Fraction(2, 3), E, n).J
        fb = Fraction(b)
        total = sum(
            math.comb(n, y) * fb**y * (1 - fb) ** (n - y) * math.comb(n_test, h) * fb**h * (1 - fb) ** (n_test - h)
            for y in range(n + 1)
            for h in range(n_test + 1)
            if y > J or 1.0 - h / n_test >= 1.0 - E
        )
        assert monte_carlo_SE_probability(b, n, Fraction(2, 3), E, n_test) == pytest.approx(float(total), rel=1e-14)


class TestExample1Enumeration:
    def test_figure1_distribution(self):
        table = enumerate_example1(0.3, 0.8, 0.5)
        probs = [c.probability for c in table.cases]
        assert probs == pytest.approx([0.49, 0.42, 0.09], abs=1e-14)
        kinds = [c.prediction for c in table.cases]
        assert kinds == [
            PredictionSetKind.Q_COMPLEMENT,
            PredictionSetKind.Q_COMPLEMENT,
            PredictionSetKind.FULL_SPACE,
        ]

    def test_degenerate_b_zero(self):
        table = enumerate_example1(0.0, 0.5, 0.3)
        assert table.cases[0].probability == 1.0
        assert table.cases[0].prediction is PredictionSetKind.Q_COMPLEMENT
        assert table.cases[0].inner_coverage == 1.0
        assert table.prob_SE == 1.0

    def test_degenerate_b_one(self):
        table = enumerate_example1(1.0, 0.5, 0.3)
        assert table.cases[2].probability == 1.0
        assert table.cases[2].prediction is PredictionSetKind.FULL_SPACE
        assert table.prob_SE == 1.0

    def test_agrees_with_closed_form(self):
        eps_grid = [Fraction(k, 10) for k in range(10)] + [Fraction(1, 3), Fraction(2, 3)]
        for b in (0.0, 0.25, 0.5, 0.75, 1.0):
            for eps in eps_grid:
                for E in (0.1, 0.5, 0.9):
                    table = enumerate_example1(b, eps, E)
                    closed = exact_SE_probability(b, 2, eps, E)
                    assert table.prob_SE == pytest.approx(closed.prob_SE, abs=1e-14)


class TestKnifeEdge:
    """b just above E, where the float test 1.0 - b >= 1.0 - E wrongly holds:
    the complement does not cover, so the event is the full space alone."""

    CASES = [(math.nextafter(0.3, 1.0), 0.3), (2e-20, 1e-20)]

    @pytest.mark.parametrize("b, E", CASES)
    def test_closed_forms_agree(self, b, E):
        closed = exact_SE_probability(b, 2, Fraction(2, 3), E)
        assert closed.prob_SE == closed.prob_fullspace
        # b^2 against the kernel's pmf: equal up to rounding, not 1 against b^2
        table = enumerate_example1(b, Fraction(2, 3), E)
        assert table.prob_SE == pytest.approx(closed.prob_SE, rel=1e-14, abs=0.0)
        assert [case.in_SE for case in table.cases] == [False, False, True]
        assert naive_interval_coverage(b, E, 2, Fraction(2, 3)).conditional_coverage == 0.0

    @pytest.mark.parametrize("b, E", CASES)
    def test_known_law_simulation_counts_full_space_only(self, b, E):
        params = PacParams(epsilon=Fraction(2, 3), coverage_E=E, n=2)
        inm = IndicatorINM(lambda x: x == 1, target_prob=b)
        report = estimate_SE_probability(inm, None, params, 4000, 10, SeededStream(5))
        assert report.h_hat == report.decomposition.get("full_space", 0.0)
        assert "q_complement_missing" in report.decomposition
        assert "q_complement_covering" not in report.decomposition


class TestNaiveInterval:
    def test_never_covers_when_b_above_E(self):
        report = naive_interval_coverage(0.5, 0.4, 2, Fraction(2, 3))
        assert report.conditional_coverage == 0.0
        assert report.claim_rate == pytest.approx(0.75, abs=1e-14)

    def test_always_covers_when_b_below_E(self):
        report = naive_interval_coverage(0.3, 0.5, 2, Fraction(2, 3))
        assert report.conditional_coverage == 1.0

    def test_larger_n_still_degenerate(self):
        report = naive_interval_coverage(0.9, 0.85, 10, Fraction(2, 3))
        assert report.conditional_coverage == 0.0

    def test_claim_never_issued(self):
        with pytest.raises(ClaimNeverIssuedError):
            naive_interval_coverage(1.0, 0.5, 2, Fraction(2, 3))
        # J = -1: the complement prediction is never produced at all
        with pytest.raises(ClaimNeverIssuedError):
            naive_interval_coverage(0.5, 0.5, 2, 0)

    def test_claim_rate_underflow_is_not_never_issued(self):
        # Pr(Y <= 499) for Y ~ Bin(1000, 0.9999) is near 1e-1700: it underflows
        # to 0.0, but the claim is still issued and its coverage is defined
        report = naive_interval_coverage(0.9999, 0.5, 1000, Fraction(1, 2))
        assert report.claim_rate == 0.0
        assert report.conditional_coverage == 0.0

    def test_monte_carlo_claim_simulation(self):
        # simulate the claim rule directly and confirm the 0/1 dichotomy
        b, E, n, eps = 0.9, 0.85, 10, Fraction(2, 3)
        report = naive_interval_coverage(b, E, n, eps)
        rng_draws = draw_bernoulli(SeededStream(17), b, 2000 * n).reshape(2000, n)
        claims = 0
        covered = 0
        for row in rng_draws:
            kind = inp_closed_form(n, int(row.sum()), eps)
            if kind is PredictionSetKind.Q_COMPLEMENT:
                claims += 1
                covered += b <= E
        assert claims > 0
        assert covered / claims == report.conditional_coverage
        assert claims / 2000 == pytest.approx(report.claim_rate, abs=0.05)


class TestClaimAsEstimator:
    """The conformal claim "b <= E whenever Y <= J", read as the one-sided
    interval estimator [0, u(y)] with u(y) = E for y <= J and 1 otherwise,
    judged by the package's own exact coverage and verdict."""

    @given(
        n=st.integers(1, 200),
        eps=st.sampled_from([Fraction(1, 3), Fraction(2, 3), Fraction(1, 20), Fraction(1, 2),
                             Fraction(9, 10), Fraction(99, 100), Fraction(1, 1000)]),
        E=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        b=st.floats(0.0, 1.0),
    )
    @settings(max_examples=300)
    def test_identity(self, n, eps, E, b):
        """Its coverage at b is the coverage event's probability, and its
        infimum over b is Theorem 1's confidence, approached just above E:
        bit for bit."""
        params = PacParams(eps, E, n)
        claim = conformal_claim(n, params.J, E)
        for point in (b, E, math.nextafter(E, 0.0), math.nextafter(E, 1.0), 0.0, 1.0):
            got = coverage_probability(claim, point, n).coverage
            assert got == exact_SE_probability(point, n, eps, E).prob_SE, point
        report = verify_conservative_validity(claim, n, 0.05)
        confidence = theorem1_bound(params).confidence
        assert report.worst_coverage == confidence
        if confidence < 1.0:
            assert report.worst_b == math.nextafter(E, 1.0)
