"""Tests for conformal p-values, set membership, and the coverage-event bound."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import betabinom

from berncert.binom import SeededStream
from berncert.conformal import (
    CalibrationScores,
    IndicatorINM,
    NonconformityMeasure,
    PacParams,
    estimate_SE_probability,
    inp_contains,
    p_value,
    score_rank_threshold,
    score_threshold,
    theorem1_bound,
)
from berncert.indicator import indicator_sampler

scores_strategy = st.lists(
    st.floats(-10, 10, allow_nan=False), min_size=1, max_size=20
).map(lambda xs: CalibrationScores(tuple(xs)))


class TestPValue:
    def test_worst_candidate_two_zeros(self):
        assert p_value(CalibrationScores((0.0, 0.0)), 1.0) == Fraction(1, 3)

    def test_mixed_calibration(self):
        assert p_value(CalibrationScores((0.0, 1.0)), 1.0) == Fraction(2, 3)

    def test_best_candidate(self):
        assert p_value(CalibrationScores((1.0, 1.0)), 0.0) == Fraction(1)
        assert p_value(CalibrationScores((1.0, 1.0)), 1.0) == Fraction(1)

    def test_empty_calibration_rejected(self):
        with pytest.raises(ValueError):
            CalibrationScores(())

    @given(cal=scores_strategy, candidate=st.floats(-10, 10, allow_nan=False))
    @settings(max_examples=200)
    def test_range_and_exactness(self, cal, candidate):
        p = p_value(cal, candidate)
        assert isinstance(p, Fraction)
        assert Fraction(1, cal.n + 1) <= p <= 1
        assert p.denominator <= cal.n + 1

    @given(cal=scores_strategy)
    @settings(max_examples=100)
    def test_minimal_candidate_gets_p_one(self, cal):
        assert p_value(cal, min(cal.scores)) == 1


class TestInpContains:
    def test_knife_edge_excluded(self):
        # p = 1/3 is not strictly greater than epsilon = 1/3
        cal = CalibrationScores((0.0, 0.0))
        assert not inp_contains(cal, 1.0, Fraction(1, 3))
        assert inp_contains(cal, 1.0, Fraction(1, 3) - Fraction(1, 10**9))

    def test_half_threshold(self):
        assert inp_contains(CalibrationScores((0.0, 1.0)), 1.0, 0.5)

    def test_epsilon_one_excludes_everything(self):
        cal = CalibrationScores((0.3, 0.7, 0.1))
        assert not inp_contains(cal, min(cal.scores), 1)

    def test_epsilon_out_of_range(self):
        with pytest.raises(ValueError):
            inp_contains(CalibrationScores((0.0,)), 0.0, 1.5)

    @given(
        cal=scores_strategy,
        candidate=st.floats(-10, 10, allow_nan=False),
        eps_pair=st.tuples(st.fractions(0, 1), st.fractions(0, 1)).map(sorted),
    )
    @settings(max_examples=200)
    def test_nesting_in_epsilon(self, cal, candidate, eps_pair):
        smaller, larger = eps_pair
        if inp_contains(cal, candidate, larger):
            assert inp_contains(cal, candidate, smaller)


class TestScoreThreshold:
    @given(
        scores=st.lists(
            st.one_of(st.integers(-3, 3).map(float), st.floats(-10, 10, allow_nan=False)),
            min_size=1,
            max_size=12,
        ),
        data=st.data(),
        eps=st.one_of(st.sampled_from([Fraction(1, 3), Fraction(2, 3), Fraction(0), Fraction(1)]), st.fractions(0, 1)),
    )
    @settings(max_examples=300)
    def test_rank_threshold_matches_inp_contains(self, scores, data, eps):
        # ties with a calibration score are where a rank threshold can go wrong
        candidate = data.draw(st.one_of(st.sampled_from(scores), st.floats(-10, 10, allow_nan=False)))
        tau = score_threshold(np.array([scores]), score_rank_threshold(eps, len(scores)))[0]
        assert (candidate <= tau) == inp_contains(CalibrationScores(tuple(scores)), candidate, eps)


class TestTheorem1Bound:
    def test_eq8_special_case(self):
        for E in (0.1, 0.4, 0.9):
            params = PacParams(Fraction(2, 3), E, 2)
            assert params.J == 1
            bound = theorem1_bound(params)
            assert bound.delta == pytest.approx(1 - E**2, abs=1e-14)
            assert bound.confidence == pytest.approx(E**2, abs=1e-14)

    def test_epsilon_zero_vacuous(self):
        bound = theorem1_bound(PacParams(0, 0.4, 7))
        assert bound.params.J == -1
        assert bound.delta == 0.0
        assert bound.confidence == 1.0

    def test_five_term_summation(self):
        params = PacParams(Fraction(1, 2), 0.1, 9)
        assert params.J == 4
        # frozen from exact 5-term summation
        assert theorem1_bound(params).delta == pytest.approx(0.99910908, abs=1e-8)

    def test_float_epsilon_knife_edge_is_exact(self):
        # float(2/3) < 2/3, so the float input sits below the knife edge
        assert PacParams(2 / 3, 0.4, 2).J == 0
        assert PacParams(Fraction(2, 3), 0.4, 2).J == 1

    @given(
        n=st.integers(1, 30),
        eps=st.fractions(0, 1),
        E_pair=st.tuples(st.floats(0, 1), st.floats(0, 1)).map(sorted),
    )
    @settings(max_examples=100)
    def test_delta_monotone_in_E(self, n, eps, E_pair):
        lo, hi = E_pair
        d_lo = theorem1_bound(PacParams(eps, lo, n)).delta
        d_hi = theorem1_bound(PacParams(eps, hi, n)).delta
        assert d_hi <= d_lo + 1e-12

    def test_delta_monotone_in_J(self):
        # larger epsilon -> larger J -> larger delta at fixed (n, E)
        deltas = [
            theorem1_bound(PacParams(Fraction(k, 10), 0.3, 9)).delta for k in range(11)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(deltas, deltas[1:]))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PacParams(Fraction(3, 2), 0.3, 5)
        with pytest.raises(ValueError):
            PacParams(Fraction(1, 2), 0.3, 0)


class TestEstimateSE:
    def test_b_zero_always_covered(self):
        report = estimate_SE_probability(
            IndicatorINM(lambda z: z == 1, target_prob=0.0),
            indicator_sampler(0.0),
            PacParams(Fraction(2, 3), 0.4, 2),
            n_cal=200,
            n_test=10,
            stream=SeededStream(5),
        )
        assert report.h_hat == 1.0
        assert report.decomposition == {"q_complement_covering": 1.0}

    def test_converges_to_b_squared(self):
        b = 0.5
        n_cal = 4000
        report = estimate_SE_probability(
            IndicatorINM(lambda z: z == 1, target_prob=b),
            indicator_sampler(b),
            PacParams(Fraction(2, 3), 0.4, 2),
            n_cal=n_cal,
            n_test=10,
            stream=SeededStream(6),
        )
        exact = b**2
        tol = 5 * math.sqrt(exact * (1 - exact) / n_cal)
        assert abs(report.h_hat - exact) <= tol
        assert report.decomposition.get("q_complement_covering", 0.0) == 0.0
        assert report.h_hat >= report.bound.confidence - tol

    def test_b_below_E_always_covered(self):
        report = estimate_SE_probability(
            IndicatorINM(lambda z: z == 1, target_prob=0.3),
            indicator_sampler(0.3),
            PacParams(Fraction(2, 3), 0.5, 2),
            n_cal=500,
            n_test=10,
            stream=SeededStream(7),
        )
        assert report.h_hat == 1.0

    def test_monte_carlo_inner_agrees_with_exact_inner(self):
        b = 0.5
        kwargs = dict(
            sampler=indicator_sampler(b),
            params=PacParams(Fraction(2, 3), 0.4, 2),
            n_cal=500,
            n_test=2000,
            stream=SeededStream(8),
        )
        mc = estimate_SE_probability(IndicatorINM(lambda z: z == 1), **kwargs)
        exact_inner = estimate_SE_probability(
            IndicatorINM(lambda z: z == 1, target_prob=b), **kwargs
        )
        assert abs(mc.h_hat - exact_inner.h_hat) <= 0.1

    def test_epsilon_one_empty_set_in_both_branches(self):
        # at epsilon = 1 no p-value exceeds epsilon: the set is empty, inner
        # coverage is 0, and the exact-inner branch must agree with sampling
        b = 0.3
        kwargs = dict(
            sampler=indicator_sampler(b),
            params=PacParams(Fraction(1), 0.6, 2),
            n_cal=2000,
            n_test=50,
            stream=SeededStream(12),
        )
        exact_inner = estimate_SE_probability(IndicatorINM(lambda z: z == 1, target_prob=b), **kwargs)
        sampled = estimate_SE_probability(IndicatorINM(lambda z: z == 1), **kwargs)
        assert exact_inner.h_hat == 0.0
        assert sampled.h_hat == 0.0
        assert exact_inner.decomposition == {"empty": 1.0}
        assert sampled.decomposition == {"empty": 1.0}

    def test_deterministic_given_stream(self):
        kwargs = dict(
            inm=IndicatorINM(lambda z: z == 1),
            sampler=indicator_sampler(0.4),
            params=PacParams(Fraction(2, 3), 0.4, 2),
            n_cal=100,
            n_test=100,
        )
        a = estimate_SE_probability(stream=SeededStream(11), **kwargs)
        b = estimate_SE_probability(stream=SeededStream(11), **kwargs)
        assert a.h_hat == b.h_hat
        assert a.decomposition == b.decomposition

    def test_theorem1_respected_on_grid(self):
        # exact closed form always dominates the bound for small n
        from berncert.indicator import exact_SE_probability

        eps_grid = [Fraction(k, 20) for k in range(21)] + [Fraction(1, 3), Fraction(2, 3)]
        for n in range(1, 13):
            for eps in eps_grid:
                if eps == 1:
                    continue
                for E in (0.1, 0.5, 0.9):
                    for b in (0.0, 0.3, 0.8, 1.0):
                        result = exact_SE_probability(b, n, eps, E)
                        assert result.prob_SE >= result.bound.confidence - 1e-12


class UniformScore(NonconformityMeasure):
    """The point itself as its score, vectorised."""

    def score_many(self, points) -> np.ndarray:
        return np.asarray(points, dtype=float)


class TestEstimateSEEngine:
    @pytest.mark.parametrize("n, eps, E", [(10, Fraction(1, 5), 0.2), (5, Fraction(1, 3), 0.3)])
    def test_continuous_scores_match_closed_form(self, n, eps, E):
        # with continuous scores F(tau) ~ Beta(N - J, J + 1), and the count of
        # test scores at or below tau is binomial given it: Beta-binomial
        params = PacParams(eps, E, n)
        n_cal, n_test = 4000, 100
        report = estimate_SE_probability(
            UniformScore(), lambda rng, count: rng.random(count), params, n_cal, n_test, SeededStream(21)
        )
        x = np.arange(n_test + 1)
        prob = float(betabinom.pmf(x, n_test, n - params.J, params.J + 1)[x / n_test >= 1.0 - E].sum())
        tol = 5 * math.sqrt(prob * (1 - prob) / n_cal)
        assert abs(report.h_hat - prob) <= tol
        assert sum(report.decomposition.values()) == pytest.approx(1.0)
        assert report.decomposition.get("covering", 0.0) == report.h_hat

    def test_indicator_predicate_gets_whole_arrays(self):
        seen = []

        def in_target(points):
            seen.append(points)
            return points == 1

        params = PacParams(Fraction(2, 3), 0.4, 2)
        report = estimate_SE_probability(
            IndicatorINM(in_target), indicator_sampler(0.42), params, 500, 100, SeededStream(9)
        )
        # one call for the calibration matrix and one for the test matrix
        assert len(seen) == 2
        assert all(isinstance(points, np.ndarray) and points.ndim == 1 for points in seen)
        assert sum(report.decomposition.values()) == pytest.approx(1.0)

    def test_known_law_never_calls_sampler(self):
        def sampler(rng, count):
            raise AssertionError("the sampler of a known indicator law was called")

        def in_target(point):
            raise AssertionError("the score of a known indicator law was called")

        report = estimate_SE_probability(
            IndicatorINM(in_target, target_prob=0.5),
            sampler,
            PacParams(Fraction(2, 3), 0.4, 2),
            n_cal=1000,
            n_test=100,
            stream=SeededStream(4),
        )
        assert 0.0 < report.h_hat < 1.0
        assert report.decomposition["full_space"] == report.h_hat
