"""Tests for conformal p-values, set membership, and the coverage-event bound."""

import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import betabinom, binom

import berncert
from berncert.binom import SeededStream, binom_pmf
from berncert.conformal import (
    CalibrationScores,
    IndicatorINM,
    NonconformityMeasure,
    PacParams,
    _binomial,
    estimate_SE_probability,
    indicator_coverage_event,
    inp_contains,
    p_value,
    score_rank_threshold,
    score_threshold,
    theorem1_bound,
)
from berncert.indicator import monte_carlo_SE_probability
from helpers import indicator_sampler

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

    @given(
        scores=st.lists(
            st.one_of(st.integers(-3, 3).map(float), st.floats(-10, 10, allow_nan=False)),
            min_size=1,
            max_size=60,
        ),
        data=st.data(),
    )
    @settings(max_examples=300)
    def test_rank_test_agrees_with_p_value(self, scores, data):
        # ties, and epsilon on every p-value the scores can give: the knife edges
        cal = CalibrationScores(tuple(scores))
        candidate = data.draw(st.one_of(st.sampled_from(scores), st.floats(-10, 10, allow_nan=False)))
        edges = [Fraction(k, cal.n + 1) for k in range(cal.n + 2)]
        edges += [Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1)]
        eps = data.draw(st.one_of(st.sampled_from(edges), st.fractions(0, 1), st.floats(0, 1)))
        assert inp_contains(cal, candidate, eps) == (p_value(cal, candidate) > eps)


class TestComplementMissLimit:
    @pytest.mark.parametrize("n_test", [1, 2, 3, 7, 200, 5000, 50_000])
    def test_matches_elementwise_comparison(self, n_test):
        h = np.arange(n_test + 1)
        grid = [0.01 + 0.01 * q for q in range(99)]  # the sweep's E
        # E * n_test an integer, and the doubles on either side of k / n_test
        ks = range(0, n_test + 1, max(1, n_test // 40))
        ratios = [k / n_test for k in ks]
        ratios += [math.nextafter(E, side) for E in ratios for side in (0.0, 1.0)]
        draws = np.random.default_rng(n_test).random(40).tolist()
        for E in [0.0, 1.0, *grid, *ratios, *draws]:
            passing = 1.0 - h / n_test >= 1.0 - E
            h_star = PacParams(Fraction(2, 3), E, 2).complement_miss_limit(n_test)
            assert passing[: h_star + 1].all() and not passing[h_star + 1 :].any(), E

    def test_knife_edge(self):
        # one miss in three passes the float test at E = 1/3, both sides being
        # 1.0 - 1/3, although the double 1/3 times 3 is below 1
        assert PacParams(Fraction(2, 3), 1 / 3, 2).complement_miss_limit(3) == 1


def _binomial_tail(n: int, b: Fraction, lo: int, hi: int) -> Fraction:
    """Pr(lo <= Bin(n, b) <= hi), exact."""
    return sum((math.comb(n, k) * b**k * (1 - b) ** (n - k) for k in range(max(lo, 0), min(hi, n) + 1)), Fraction(0))


def coverage_event_shares(n: int, epsilon, E: float, b: float, n_test) -> tuple[Fraction, Fraction]:
    """Exact shares of one replicate's classes, (Pr(full space), Pr(covers)),
    by the coverage event's own rules and no kernel call: J from epsilon in
    rationals, h* from the float test `1.0 - h / n_test >= 1.0 - E`, and
    exact binomial sums."""
    J = math.floor(Fraction(epsilon) * (n + 1) - 1)
    if J >= n:  # the empty set: it covers iff E = 1
        return Fraction(0), Fraction(int(E >= 1.0))
    fb = Fraction(b)
    full = _binomial_tail(n, fb, J + 1, n)
    if n_test is None:
        inner = Fraction(int(fb <= Fraction(E)))
    else:
        h_star = max(h for h in range(n_test + 1) if 1.0 - h / n_test >= 1.0 - E)
        inner = _binomial_tail(n_test, fb, 0, h_star)
    return full, full + (1 - full) * inner


# (n, p, seed, the first four draws of random.Random(seed).binomialvariate(n, p)
# under CPython 3.12.1), by the branch that makes them: the edges p = 0 and
# p = 1 draw no uniform, n = 1 one, and otherwise p > 1/2 is drawn as
# n - Bin(n, 1 - p), by Devroye's geometric method below n * p = 10 and by
# BTRS from 10 up
BINOMIALVARIATE_DRAWS = [
    (1, 0.3, 0, (0, 0, 0, 1)),  # n = 1
    (1, 0.7, 1, (1, 0, 0, 1)),  # n = 1, p > 1/2
    (1, 5e-324, 2, (0, 0, 0, 0)),  # n = 1
    (0, 0.3, 3, (0, 0, 0, 0)),  # geometric
    (10, 0.0, 4, (0, 0, 0, 0)),  # edge
    (10, 1.0, 5, (10, 10, 10, 10)),  # edge
    (50000, 5e-324, 6, (0, 0, 0, 0)),  # geometric, log2(1 - p) = 0
    (50000, 0.9999999999999999, 7, (50000, 50000, 50000, 50000)),  # geometric, p > 1/2
    (5, 0.9999999999999999, 8, (5, 5, 5, 5)),  # geometric, p > 1/2
    (50000, 1e-12, 9, (0, 0, 0, 0)),  # geometric
    (12, 0.5, 10, (7, 5, 8, 5)),  # geometric
    (12, 0.49999999999999994, 11, (8, 5, 6, 4)),  # geometric
    (12, 0.5000000000000001, 12, (8, 4, 8, 7)),  # geometric, p > 1/2
    (100, 0.5, 13, (46, 53, 45, 44)),  # BTRS
    (100, 0.49999999999999994, 14, (43, 46, 54, 47)),  # BTRS
    (100, 0.5000000000000001, 15, (37, 46, 43, 54)),  # BTRS, p > 1/2
    (20, 0.49999999999999994, 16, (8, 11, 11, 9)),  # geometric, n * p just below 10
    (20, 0.5, 17, (10, 15, 12, 11)),  # BTRS, n * p = 10
    (50000, 0.00019999999999999996, 18, (9, 15, 9, 9)),  # geometric, n * p just below 10
    (50000, 0.00019999999999999998, 19, (10, 8, 8, 8)),  # BTRS, n * p just above 10
    (50000, 0.9998, 20, (49985, 49990, 49993, 49993)),  # geometric, n * (1 - p) just below 10
    (50000, 0.9997999999999999, 21, (49989, 49993, 49987, 49990)),  # BTRS, n * (1 - p) just above 10
    (50000, 0.3, 22, (15259, 14896, 15045, 15146)),  # BTRS
    (50000, 0.7, 23, (34817, 34851, 34973, 34991)),  # BTRS, p > 1/2
    (30, 0.2, 24, (6, 8, 7, 6)),  # geometric
    (1000, 0.01, 25, (9, 14, 14, 8)),  # BTRS
]


class _Uniforms:
    """A generator stub whose `random()` returns the given uniforms in turn."""

    def __init__(self, *uniforms: float):
        self.random = iter(uniforms).__next__


class TestBinomial:
    """`_binomial` draws as CPython 3.12's `random.Random.binomialvariate`
    does, bit for bit, and from Bin(n, p)."""

    @pytest.mark.parametrize("n, p, seed, draws", BINOMIALVARIATE_DRAWS)
    def test_pinned_draws(self, n, p, seed, draws):
        rng = random.Random(seed)
        assert tuple(_binomial(rng, n, p) for _ in draws) == draws
        if hasattr(random.Random, "binomialvariate"):  # and the generator stands where CPython's does
            reference = random.Random(seed)
            assert [reference.binomialvariate(n, p) for _ in draws] == list(draws)
            assert rng.getstate() == reference.getstate()

    @pytest.mark.skipif(not hasattr(random.Random, "binomialvariate"), reason="binomialvariate is new in 3.12")
    def test_matches_binomialvariate(self):
        meta = random.Random(36)
        for _ in range(2000):
            n = meta.choice([2, 20, 1000, 50_000, meta.randrange(60_000)])
            p = meta.choice([meta.random(), 10 ** meta.uniform(-8, 0), min(1.0, 10 / max(n, 1))])
            seed = meta.getrandbits(128)
            rng, reference = random.Random(seed), random.Random(seed)
            assert [_binomial(rng, n, p) for _ in range(3)] == [reference.binomialvariate(n, p) for _ in range(3)]
            assert rng.getstate() == reference.getstate(), (n, p, seed)

    @pytest.mark.parametrize("n, p", [(n, p) for n, p, *_ in BINOMIALVARIATE_DRAWS if n * min(p, 1.0 - p) > 0.1])
    def test_moments(self, n, p):
        """Over 4000 draws, the sample mean and variance lie within 5
        standard errors of the mean and variance of the kernel's pmf."""
        sd = math.sqrt(n * p * (1 - p))
        ks = range(max(0, math.floor(n * p - 40 * sd - 10)), min(n, math.ceil(n * p + 40 * sd + 10)) + 1)
        pmf = [binom_pmf(n, p, k) for k in ks]
        mean = math.fsum(k * w for k, w in zip(ks, pmf))
        var = math.fsum((k - mean) ** 2 * w for k, w in zip(ks, pmf))
        fourth = math.fsum((k - mean) ** 4 * w for k, w in zip(ks, pmf))
        rng = SeededStream(36, n).random()
        draws = np.array([_binomial(rng, n, p) for _ in range(4000)])
        m = len(draws)
        assert abs(float(draws.mean()) - mean) <= 5 * math.sqrt(var / m), (draws.mean(), mean)
        var_of_var = fourth / m - var**2 * (m - 3) / (m * (m - 1))  # of the unbiased sample variance
        assert abs(float(draws.var(ddof=1)) - var) <= 5 * math.sqrt(var_of_var), (draws.var(ddof=1), var)

    def test_zero_uniform(self):
        """A uniform of exactly 0.0, which CPython 3.12.1 refuses, takes the
        limit of each formula: an infinite geometric gap ends the draw, BTRS
        rejects the k at minus infinity, and log(0.0) accepts."""
        assert _binomial(_Uniforms(0.0), 10, 0.1) == 0
        assert _binomial(_Uniforms(0.5, 0.0), 10, 0.1) == 1  # a gap of 7, then none
        assert _binomial(_Uniforms(0.0), 10, 0.9) == 10
        # u = 0.5 puts k at floor(n p + 0.5) and v = 0.0 passes the squeeze
        assert _binomial(_Uniforms(0.0, 0.5, 0.0), 100, 0.3) == 30
        # us = 0.05 < 0.07 skips the squeeze, so v = 0.0 reaches the log
        assert _binomial(_Uniforms(0.95, 0.0), 100, 0.3) == 40
        if hasattr(random.Random, "binomialvariate"):
            for uniforms, n, p, error in (((0.0,), 10, 0.1, ValueError), ((0.0,), 100, 0.3, ZeroDivisionError),
                                          ((0.95, 0.0), 100, 0.3, ValueError)):
                stub = random.Random()
                stub.random = _Uniforms(*uniforms).random
                with pytest.raises(error):
                    stub.binomialvariate(n, p)


class TestIndicatorCoverageEvent:
    """The counts (full, covered) of n_cal replicates are multinomial: each
    is Bin(n_cal, p) for its class share p.  Over many seeds their sample
    mean and variance must lie within 5 standard errors of the exact
    binomial moments, and must equal them where p is 0 or 1."""

    SEEDS = 2000

    @staticmethod
    def assert_binomial_moments(draws: np.ndarray, n_cal: int, p: Fraction, what: str):
        m = len(draws)
        mean, var = n_cal * p, n_cal * p * (1 - p)
        fourth = var * (1 + 3 * (n_cal - 2) * p * (1 - p))  # central
        got_mean, got_var = float(draws.mean()), float(draws.var(ddof=1))
        assert abs(got_mean - float(mean)) <= 5 * math.sqrt(var / m), (what, got_mean, float(mean))
        var_of_var = fourth / m - var**2 * (m - 3) / (m * (m - 1))  # of the unbiased sample variance
        assert abs(got_var - float(var)) <= 5 * math.sqrt(var_of_var), (what, got_var, float(var))

    @pytest.mark.parametrize(
        "n, epsilon, E, b, n_cal, n_test",
        [
            (2, Fraction(2, 3), 0.5, 0.4, 10, 3),
            (5, Fraction(1, 2), 0.3, 0.25, 7, 4),
            (4, Fraction(2, 3), 0.2, 0.7, 9, 6),
            (3, Fraction(2, 3), 0.3, 0.2, 6, 1),  # n_test = 1
            (2, Fraction(2, 3), 0.5, 0.6, 1, 2),  # n_cal - full = 0 when the one replicate is full
            (3, Fraction(1, 2), 0.3, 0.0, 5, 4),  # b = 0: never full, always covers
            (3, Fraction(1, 2), 0.3, 1.0, 5, 4),  # b = 1: always full
            (4, Fraction(0), 0.3, 0.3, 5, 4),  # J = -1: always full
            (4, Fraction(1), 0.3, 0.3, 5, 4),  # J >= N: the empty set never covers
            (4, Fraction(1), 1.0, 0.3, 5, 4),  # ... unless E = 1
            (2, Fraction(2, 3), 0.5, 0.4, 10, None),  # exact inner coverage, b <= E
            (2, Fraction(2, 3), 0.3, 0.4, 10, None),  # b > E: only the full space covers
        ],
    )
    def test_counts_are_multinomial(self, n, epsilon, E, b, n_cal, n_test):
        params = PacParams(epsilon, E, n)
        counts = np.array([
            indicator_coverage_event(params, b, n_cal, SeededStream(seed).random(), n_test) for seed in range(self.SEEDS)
        ])
        full, covered = counts[:, 0], counts[:, 1]
        assert (0 <= full).all() and (full <= covered).all() and (covered <= n_cal).all()
        p_full, p_covered = coverage_event_shares(n, epsilon, E, b, n_test)
        self.assert_binomial_moments(full, n_cal, p_full, "full")
        self.assert_binomial_moments(covered, n_cal, p_covered, "covered")

    @pytest.mark.parametrize("seed", range(5))
    def test_certain_draws_take_no_uniform(self, seed):
        """A count whose share is 0.0 or 1.0 is drawn without a uniform, so
        the seeded rows do not depend on the draws that cannot vary: at
        J >= N neither count takes one, and at exact inner coverage only
        the full-space count does."""
        for E, covered in ((0.3, 0), (1.0, 1000)):  # J >= N: the empty set covers iff E = 1
            for n_test in (None, 1, 50):
                rng = SeededStream(seed).random()
                state = rng.getstate()
                assert indicator_coverage_event(PacParams(Fraction(1), E, 4), 0.2, 1000, rng, n_test) == (0, covered)
                assert rng.getstate() == state
        params = PacParams(Fraction(2, 3), 0.3, 2)
        for b in (0.2, 0.4):  # b <= E, where every replicate covers, and b > E
            rng, reference = SeededStream(seed).random(), SeededStream(seed).random()
            full, covered = indicator_coverage_event(params, b, 1000, rng)
            assert full == _binomial(reference, 1000, params.indicator_shares(b)[0])
            assert covered == (1000 if b <= 0.3 else full)
            assert rng.getstate() == reference.getstate()


def _grid_probabilities(n: int) -> list[float]:
    """Both edges, subnormal and tiny p, numpy's switch from inversion at
    n * p = 30 and the doubles beside it, and p on both sides of its flip at 1/2."""
    switch = 30 / n
    near = {switch, math.nextafter(switch, 0.0), math.nextafter(switch, 1.0)}
    edges = {0.0, 5e-324, 1e-12, math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0), 0.9, 1 - 1e-12, 1.0}
    return sorted(edges | {x for x in near if x <= 1.0})


class TestCountBinomialAbove:
    """The full-space count of `indicator_coverage_event`, one draw of
    Bin(n_cal, Pr(Bin(N, b) > J)), against counting numpy's own per-replicate
    draws Bin(N, b) above J on an independent stream.  Both counts are
    Bin(n_cal, P): equal where P is 0 or 1, and otherwise within 6 standard
    deviations of their difference (plus one for the lattice)."""

    @pytest.mark.parametrize(
        "n, p", [(n, p) for n in (1, 2, 3, 30, 31, 60, 200, 50_000) for p in _grid_probabilities(n)]
    )
    def test_matches_numpy_draws(self, n, p):
        # k = -1 is J at epsilon = 0, where every draw exceeds it; k = n is J
        # at epsilon = 1, where none does
        for seed, k, n_cal in itertools.product(range(3), sorted({-1, 0, 1, n - 1, n}), (1, 7, 50_000)):
            params = PacParams(Fraction(k + 1, n + 1), 0.5, n)
            assert params.J == k
            full, _ = indicator_coverage_event(params, p, n_cal, SeededStream(seed).random())
            reference = int(np.count_nonzero(SeededStream(1000 + seed).rng().binomial(n, p, n_cal) > k))
            if k < 0 or (p == 1.0 and k < n):
                assert full == reference == n_cal, (n, p, k, n_cal, seed)
            elif k >= n or p == 0.0:
                assert full == reference == 0, (n, p, k, n_cal, seed)
            else:
                share = float(binom.sf(k, n, p))
                slack = 6 * math.sqrt(2 * n_cal * share * (1 - share)) + 1
                assert abs(full - reference) <= slack, (n, p, k, n_cal, seed, full, reference)


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

    @pytest.mark.parametrize("n, eps, E", [
        (151, Fraction(2, 3), 0.06096034960646757), (35, Fraction(1, 3), 0.036814858166105385),
        (9, Fraction(1, 2), 0.1), (20, Fraction(1, 10), 0.02), (200, Fraction(1, 2), 0.3),
        (60, Fraction(4, 5), 0.5), (2, Fraction(2, 3), 1e-9),
    ])
    def test_confidence_near_zero_keeps_its_digits(self, n, eps, E):
        """delta > 1/2, up to delta = 1.0 as a double: delta and the
        confidence within 1e-13 relative of exact rational sums.  As
        1.0 - delta, the confidence at (151, 2/3, ...) read 0.0 for about
        2.6e-84, and at (35, 1/3, ...) was off by 6.7e-9."""
        params = PacParams(eps, E, n)
        bound = theorem1_bound(params)
        e = Fraction(E)
        confidence = sum(math.comb(n, k) * e**k * (1 - e) ** (n - k) for k in range(params.J + 1, n + 1))
        assert 1 - confidence > Fraction(1, 2)
        assert abs(Fraction(bound.confidence) - confidence) <= Fraction(1e-13) * confidence
        assert abs(Fraction(bound.delta) - (1 - confidence)) <= Fraction(1e-13) * (1 - confidence)

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
    KNOWN_TARGET = """
import sys
from fractions import Fraction
from berncert.binom import SeededStream
from berncert.conformal import IndicatorINM, PacParams, estimate_SE_probability
inm = IndicatorINM(lambda z: z == 1, target_prob=0.5)
report = estimate_SE_probability(inm, None, PacParams(Fraction(2, 3), 0.4, 2), 4000, 10, SeededStream(6))
print(repr(report.h_hat), "numpy" in sys.modules)
"""

    def test_known_target_loads_no_numpy(self):
        """A known target probability samples no point, and its two counts
        are standard-library draws, so a fresh interpreter loads no numpy
        for it and reports the h_hat of this process."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(berncert.__file__)))
        out = subprocess.run(
            [sys.executable, "-c", self.KNOWN_TARGET],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), check=True, timeout=60,
        ).stdout
        inm = IndicatorINM(lambda z: z == 1, target_prob=0.5)
        report = estimate_SE_probability(inm, None, PacParams(Fraction(2, 3), 0.4, 2), 4000, 10, SeededStream(6))
        assert out.split() == [repr(report.h_hat), "False"]

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

    @pytest.mark.parametrize(
        "n, eps, E, b, n_test",
        [
            (2, Fraction(2, 3), 1 / 3, 0.5, 3),  # h* = 1: the target is 0.625
            (5, Fraction(1, 3), 0.4, 0.3, 40),
            (20, Fraction(1, 3), 0.25, 0.3, 10),
            (2, Fraction(2, 3), 0.4, 0.42, 100),
        ],
    )
    def test_sampled_indicator_matches_finite_test_target(self, n, eps, E, b, n_test):
        n_cal = 2000
        params = PacParams(eps, E, n)
        report = estimate_SE_probability(
            IndicatorINM(lambda z: z == 1), indicator_sampler(b), params, n_cal, n_test, SeededStream(13)
        )
        target = monte_carlo_SE_probability(b, n, eps, E, n_test)
        covered = round(report.h_hat * n_cal)
        two_sided = 2 * min(binom.cdf(covered, n_cal, target), binom.sf(covered - 1, n_cal, target))
        assert two_sided >= 1e-9, (report.h_hat, target)

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


@st.composite
def finite_tests(draw):
    """(n_test, E, miss score), with E often k / n_test or a double beside it."""
    n_test = draw(st.integers(1, 40))
    edge = draw(st.integers(0, n_test)) / n_test
    edges = st.sampled_from([edge, math.nextafter(edge, 0.0), math.nextafter(edge, 1.0)])
    return n_test, draw(edges | st.floats(0, 1)), draw(st.sampled_from([1.0, math.nan]))


class TestEstimateSEEngine:
    @given(case=finite_tests())
    @example(case=(3, 1 / 3, 1.0))  # h* = 1, where the share of hits 2/3 is below 1.0 - 1/3
    @settings(max_examples=100)
    def test_row_verdict_is_miss_limit(self, case):
        # one replicate per hit count; calibration scores 0 and J = 0 put the
        # threshold at 0, so a test score 0 is a hit and `miss` (1 or NaN) is not
        n_test, E, miss = case
        params = PacParams(Fraction(1, 3), E, 2)
        h_star = params.complement_miss_limit(n_test)
        for hits in range(n_test + 1):
            draws = iter([np.zeros(2), np.array([0.0] * hits + [miss] * (n_test - hits))])
            report = estimate_SE_probability(
                UniformScore(), lambda rng, count: next(draws), params, 1, n_test, SeededStream(0)
            )
            assert report.h_hat == (hits >= n_test - h_star), hits

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
        passing = 1.0 - (n_test - x) / n_test >= 1.0 - E  # at most h* of n_test missed
        prob = float(betabinom.pmf(x, n_test, n - params.J, params.J + 1)[passing].sum())
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
