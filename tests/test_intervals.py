"""Tests for interval estimators and exact coverage evaluation."""

import math
from fractions import Fraction
from itertools import accumulate
from statistics import NormalDist

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import betaincinv
from scipy.stats import beta as beta_dist

import berncert.binom
from berncert.binom import SeededStream
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
from helpers import (
    count_calls,
    piecewise_coverage_infimum,
    polished_beta_quantile,
)


def beta_quantile_interval(n, y, alpha):
    """Independent route: Clopper-Pearson endpoints as beta quantiles."""
    lower = 0.0 if y == 0 else beta_dist.ppf(alpha / 2, y, n - y + 1)
    upper = 1.0 if y == n else beta_dist.ppf(1 - alpha / 2, y + 1, n - y)
    return lower, upper


class TestClopperPearson:
    def test_zero_successes(self):
        iv = clopper_pearson(10, 0, 0.05)
        assert iv.lower == 0.0
        assert iv.upper == pytest.approx(1 - 0.025 ** (1 / 10), abs=1e-9)

    def test_all_successes_small(self):
        iv = clopper_pearson(2, 2, 0.1)
        assert iv.upper == 1.0
        assert iv.lower == pytest.approx(0.05**0.5, abs=1e-9)

    def test_interior_case(self):
        iv = clopper_pearson(10, 3, 0.05)
        assert iv.lower == pytest.approx(0.06673951117773447, abs=1e-9)
        assert iv.upper == pytest.approx(0.6524528500599973, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 5, 17, 60])
    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.2])
    def test_matches_beta_quantiles(self, n, alpha):
        for y in range(n + 1):
            iv = clopper_pearson(n, y, alpha)
            lo, hi = beta_quantile_interval(n, y, alpha)
            assert iv.lower == pytest.approx(lo, abs=1e-9)
            assert iv.upper == pytest.approx(hi, abs=1e-9)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            clopper_pearson(10, 11, 0.05)
        with pytest.raises(ValueError):
            clopper_pearson(10, 3, 0.0)
        with pytest.raises(ValueError):
            clopper_pearson(0, 0, 0.05)

    def test_nesting_in_alpha(self):
        for y in range(11):
            wide = clopper_pearson(10, y, 0.01)
            narrow = clopper_pearson(10, y, 0.1)
            assert wide.lower <= narrow.lower + 1e-12
            assert narrow.upper <= wide.upper + 1e-12

    def test_endpoints_monotone_in_y(self):
        est = ClopperPearson(15, 0.05)
        ivs = [est.interval(y) for y in range(16)]
        for a, b in zip(ivs, ivs[1:]):
            assert a.lower <= b.lower + 1e-12
            assert a.upper <= b.upper + 1e-12

    # targets down to the subnormal range, where a slope carried through
    # more than one ratio step at a subnormal b loses its precision
    @pytest.mark.parametrize(
        "n,y,alpha", [(3000, 1, 4e-320), (2, 1, 1e-308), (10**6, 1, 1e-300), (10, 3, 1e-300), (10, 3, 1e-323)]
    )
    def test_extreme_targets(self, n, y, alpha):
        iv = clopper_pearson(n, y, alpha)
        assert iv.lower <= y / n <= iv.upper

    def test_level_whose_half_underflows_refused(self):
        # 5e-324 is a level in (0, 1), but alpha / 2 rounds to 0: the error
        # names alpha, not the tail target the caller never passed
        # the estimator refuses it when built, not at each later interval
        for call in (lambda a: clopper_pearson(10, 3, a), lambda a: ClopperPearson(10, a)):
            with pytest.raises(ValueError, match="^alpha must be at least 1e-323"):
                call(5e-324)

    def test_interval_estimate_invariant(self):
        with pytest.raises(ValueError):
            IntervalEstimate(lower=0.6, upper=0.4, alpha=0.05, n=10, y=3)
        with pytest.raises(ValueError):
            clopper_pearson(10, 3, 0.05)._replace(lower=0.9)


@st.composite
def cp_cases(draw):
    """(n, y, alpha): n <= 1e4, y weighted to 0, 1, n - 1 and n, and alpha
    one of the usual levels or any in (1e-6, 0.5)."""
    n = draw(st.integers(1, 10**4))
    y = draw(st.one_of(st.sampled_from((0, 1, n - 1, n)), st.integers(0, n)))
    alpha = draw(st.one_of(st.sampled_from((0.2, 0.05, 0.01)),
                           st.floats(1e-6, 0.5, exclude_min=True, exclude_max=True)))
    return n, y, alpha


class TestClopperPearsonAccuracy:
    """Endpoints to 1e-12 relative: against betaincinv up to n = 1e4, and at
    n = 1e6, where betaincinv itself is off by up to 1e-11, against a root
    of the exact tail polynomial found by mpmath."""

    RTOL = 1e-12

    @pytest.mark.parametrize("n", [1, 2, 10, 31, 100, 1000, 10_000])
    @pytest.mark.parametrize("alpha", [0.2, 0.05, 0.01])
    def test_matches_betaincinv(self, n, alpha):
        rng = np.random.default_rng(n)
        ys = {0, 1, 2, n // 3, n // 2, n - 2, n - 1, n, *map(int, rng.integers(0, n + 1, 5))}
        for y in sorted(y for y in ys if 0 <= y <= n):
            iv = clopper_pearson(n, y, alpha)
            if y > 0:
                ref = betaincinv(y, n - y + 1, alpha / 2)
                assert abs(iv.lower - ref) <= self.RTOL * ref, (n, y, alpha, iv.lower, ref)
            if y < n:
                ref = betaincinv(y + 1, n - y, 1 - alpha / 2)
                assert abs(iv.upper - ref) <= self.RTOL * ref, (n, y, alpha, iv.upper, ref)

    @pytest.mark.parametrize("y", [1, 2, 10**6 - 1])
    @pytest.mark.parametrize("alpha", [0.05, 0.01])
    def test_million_trials_against_exact_tail(self, y, alpha):
        n = 10**6

        def pmf(b, k):
            return mp.binomial(n, k) * b**k * (1 - b) ** (n - k)

        def below(b, j):  # Pr(Y <= j) from its few terms on the short side
            if j < n // 2:
                return mp.fsum(pmf(b, k) for k in range(j + 1))
            return 1 - mp.fsum(pmf(b, k) for k in range(j + 1, n + 1))

        def root(f, start):
            # betaincinv brackets the root to 1e-6; the solver refines it to 40 digits
            start = mp.mpf(start)
            return mp.findroot(f, (start * (1 - 1e-6), start * (1 + 1e-6)), solver="anderson")

        iv = clopper_pearson(n, y, alpha)
        with mp.workdps(40):
            t = mp.mpf(alpha) / 2
            lower = root(lambda b: (1 - below(b, y - 1)) - t, betaincinv(y, n - y + 1, alpha / 2))
            upper = root(lambda b: below(b, y) - t, betaincinv(y + 1, n - y, 1 - alpha / 2))
            assert abs(iv.lower - lower) <= self.RTOL * lower
            assert abs(iv.upper - upper) <= self.RTOL * upper


    @given(case=cp_cases())
    @settings(max_examples=300)
    def test_matches_polished_betaincinv(self, case):
        n, y, alpha = case
        iv = clopper_pearson(n, y, alpha)
        if y > 0:
            ref = polished_beta_quantile(y, n - y + 1, alpha / 2, upper=False)
            assert abs(iv.lower - ref) <= self.RTOL * ref, (n, y, alpha, iv.lower, ref)
        if y < n:
            ref = polished_beta_quantile(y + 1, n - y, alpha / 2, upper=True)
            assert abs(iv.upper - ref) <= self.RTOL * ref, (n, y, alpha, iv.upper, ref)


def full_interval(n):
    """The trivial estimator, [0, 1] for every outcome."""
    return EndpointTable(n, [0.0] * (n + 1), [1.0] * (n + 1))


# [0.5, 0.5] for every outcome: it never covers anything else
DEGENERATE = EndpointTable(10, [0.5] * 11, [0.5] * 11)


class TestCoverage:
    def test_full_interval_covers_always(self):
        for b in (0.0, 0.3, 1.0):
            rep = coverage_probability(full_interval(7), b, 7)
            assert rep.coverage == 1.0
            assert rep.covering_set == frozenset(range(8))

    def test_b_one_always_covered(self):
        rep = coverage_probability(ClopperPearson(2, 0.1), 1.0, 2)
        assert rep.coverage == 1.0

    def test_exact_enumeration_value(self):
        rep = coverage_probability(ClopperPearson(10, 0.05), 0.5, 10)
        assert rep.coverage >= 0.95
        # independent oracle: direct 11-term enumeration with beta quantiles
        from berncert.binom import binom_pmf

        expected = sum(
            binom_pmf(10, 0.5, y)
            for y in range(11)
            if beta_quantile_interval(10, y, 0.05)[0] <= 0.5 <= beta_quantile_interval(10, y, 0.05)[1]
        )
        assert rep.coverage == pytest.approx(expected, abs=1e-12)

    def test_validity_clopper_pearson(self):
        report = verify_conservative_validity(ClopperPearson(25, 0.05), 25, 0.05)
        assert report.valid
        assert report.worst_coverage >= 0.95

    def test_validity_full_interval(self):
        report = verify_conservative_validity(full_interval(10), 10, 0.05)
        assert report.valid
        assert report.worst_coverage == 1.0

    def test_validity_degenerate_estimator(self):
        # covers b = 0.5 only, so the infimum is 0, approached on either side
        report = verify_conservative_validity(DEGENERATE, 10, 0.05)
        assert not report.valid
        assert report.worst_coverage == 0.0
        assert report.worst_b != 0.5
        assert coverage_probability(DEGENERATE, report.worst_b, 10).coverage == 0.0

    @pytest.mark.parametrize("n", [50, 300, 1000])
    def test_relative_accuracy_on_runs(self, n):
        """One run, two runs or a gap, deep in either tail too, where one minus
        two tails would cancel to nothing, and just below the mode at
        (1000, 0.5, {466}), where a difference of two tails would lose a digit:
        relative error at most 3e-15 against exact integer arithmetic."""
        for b in (0.013, 0.31, 0.5, 0.87):
            num, den = b.as_integer_ratio()
            # Pr(Y = y) = terms[y] / scale exactly, and int / int rounds correctly:
            # terms[y] = C(n, y) num^y (den - num)^(n - y), each from the last by exact division
            terms = [(den - num) ** n]
            for y in range(n):
                terms.append(terms[-1] * (n - y) * num // ((y + 1) * (den - num)))
            scale = den**n
            for y in [*range(0, n + 1, n // 25), *([466] if n == 1000 else [])]:
                for ys in ({y}, {y, y + 1}, range(y + 1), range(y, n + 1), {y - 1, y + 1}):
                    covering = {k for k in ys if 0 <= k <= n}
                    exact = sum(terms[k] for k in covering) / scale
                    if exact < 1e-300:
                        continue
                    lowers = [0.0 if k in covering else 1.0 for k in range(n + 1)]
                    table = EndpointTable(n, lowers, [1.0] * (n + 1))
                    coverage = coverage_probability(table, b, n).coverage
                    assert abs(coverage - exact) <= 3e-15 * exact, (n, b, min(covering), max(covering))

    def test_one_sided_run_is_one_tail_sum(self, monkeypatch):
        """A run wholly below or above the mode costs one tail sum, from its
        end next to the mode; as a difference of two tails it took two."""
        n = 1000
        counts = count_calls(monkeypatch, berncert.binom, "_tail")
        for covering in (range(460, 467), range(540, 560), range(0, 3), range(990, 1001)):
            lowers = [0.0 if k in covering else 1.0 for k in range(n + 1)]
            before = counts["_tail"]
            coverage_probability(EndpointTable(n, lowers, [1.0] * (n + 1)), 0.5, n)
            assert counts["_tail"] - before == 1, covering

    def test_grid_includes_endpoints(self):
        est = ClopperPearson(5, 0.1)
        grid = endpoint_augmented_grid(est, 5)
        assert 0.0 in grid and 1.0 in grid
        assert est.interval(2).lower in grid


def exact_coverage(covering, n, b):
    """Pr(Y in covering) for Y ~ Bin(n, b), in exact rational arithmetic."""
    bf = Fraction(b)
    return sum(math.comb(n, y) * bf**y * (1 - bf) ** (n - y) for y in covering)


def coverage_infimum_oracle(est, n):
    """The smallest one-sided limit of the coverage at the ends of the pieces
    between consecutive endpoints, each piece's covering set found by
    scanning every y and its probability summed in rational arithmetic."""
    _, lowers, uppers = EndpointTable.of(est, n)
    breaks = sorted({0.0, 1.0, *lowers, *uppers})
    worst = Fraction(2)
    for c, d in zip(breaks, breaks[1:]):
        covering = [y for y in range(n + 1) if lowers[y] <= c and uppers[y] >= d]
        worst = min(worst, exact_coverage(covering, n, c), exact_coverage(covering, n, d))
    return float(worst)


def clipped_wald(n, alpha):
    """p +- z sqrt(p (1 - p) / n) clipped to [0, 1].  At y = 0 and y = n it is
    a single point, so its coverage tends to 0 as b tends to 0 or 1."""
    z = NormalDist().inv_cdf(1 - alpha / 2)
    ps = [y / n for y in range(n + 1)]
    halves = [z * math.sqrt(p * (1 - p) / n) for p in ps]
    lowers = [max(0.0, p - h) for p, h in zip(ps, halves)]
    return EndpointTable(n, lowers, [min(1.0, p + h) for p, h in zip(ps, halves)])


def lopsided_clopper_pearson(n, alpha_lower, alpha_upper):
    """Lower endpoints of Clopper-Pearson at level alpha_lower, upper ones at
    alpha_upper.  With unequal levels the coverage is not symmetric about
    b = 1/2: its deepest dips all lie on one side of the endpoints."""
    lower, upper = (EndpointTable.of(ClopperPearson(n, a), n) for a in (alpha_lower, alpha_upper))
    return EndpointTable(n, lower.lowers, upper.uppers)


def swapped_clopper_pearson(n, alpha):
    """Clopper-Pearson with the intervals of y = 1 and y = 2 exchanged, so
    its endpoints are not monotone in y."""
    _, lowers, uppers = EndpointTable.of(ClopperPearson(n, alpha), n)
    order = [{1: 2, 2: 1}.get(y, y) for y in range(n + 1)]
    return EndpointTable(n, [lowers[y] for y in order], [uppers[y] for y in order])


@st.composite
def grid_estimators(draw):
    """(estimator, n) with monotone endpoints on the k/8 grid, so that lower
    and upper endpoints coincide, with point intervals and ends at 0 and 1."""
    n = draw(st.integers(1, 12))
    eighths = st.lists(st.integers(0, 8), min_size=n + 1, max_size=n + 1)
    lowers = sorted(draw(eighths))
    uppers = accumulate((min(8, lo + w) for lo, w in zip(lowers, draw(eighths))), max)
    return EndpointTable(n, [k / 8 for k in lowers], [k / 8 for k in uppers]), n


CP_INFIMUM_NS = [1, 2, 5, 10, 25, 60]
CP_INFIMUM_ALPHAS = [0.01, 0.05, 0.2]
ORACLE_CASES = (
    [(ClopperPearson(n, a), n, a) for n in (1, 3, 10, 25) for a in (0.01, 0.1)]
    + [(clipped_wald(n, a), n, a) for n in (4, 10, 25) for a in (0.01, 0.1)]
    + [(lopsided_clopper_pearson(n, a, b), n, (a + b) / 2) for n in (3, 10, 25)
       for a, b in ((0.01, 0.2), (0.2, 0.01))]
)


class TestValidityCertificate:
    """The verdict is the exact infimum of the coverage over [0, 1]."""

    @pytest.mark.parametrize("n", CP_INFIMUM_NS)
    @pytest.mark.parametrize("alpha", CP_INFIMUM_ALPHAS)
    def test_clopper_pearson_infimum(self, n, alpha):
        est = ClopperPearson(n, alpha)
        report = verify_conservative_validity(est, n, alpha)
        assert report.valid
        assert report.worst_coverage >= 1 - alpha
        # the infimum is attained beside worst_b, not undercut next to it
        b = report.worst_b
        for near in (math.nextafter(b, 0.0), b, math.nextafter(b, 1.0)):
            assert coverage_probability(est, near, n).coverage >= report.worst_coverage - 1e-12

    @pytest.mark.parametrize("est, n, alpha", ORACLE_CASES)
    def test_matches_rational_oracle(self, est, n, alpha):
        report = verify_conservative_validity(est, n, alpha)
        assert abs(report.worst_coverage - coverage_infimum_oracle(est, n)) <= 1e-12
        # worst_b sees the limiting piece's covering set and reproduces the infimum
        b = report.worst_b
        _, lowers, uppers = EndpointTable.of(est, n)
        exact = float(exact_coverage([y for y in range(n + 1) if lowers[y] <= b <= uppers[y]], n, b))
        assert abs(report.worst_coverage - exact) <= 1e-12
        assert abs(coverage_probability(est, b, n).coverage - exact) <= 1e-12

    @pytest.mark.parametrize(
        "est, n",
        [(ClopperPearson(n, a), n) for n in CP_INFIMUM_NS for a in CP_INFIMUM_ALPHAS]
        + [(est, n) for est, n, _ in ORACLE_CASES],
    )
    def test_bits_match_piecewise_reference(self, est, n):
        """The limits left out can never be the first least one: worst_b and
        worst_coverage are those of the loop over both ends of every piece."""
        report = verify_conservative_validity(est, n, 0.05)
        assert (report.worst_b, report.worst_coverage) == piecewise_coverage_infimum(EndpointTable.of(est, n))

    def test_tail_sums_per_verdict(self, monkeypatch):
        """At most 2n + 1 one-sided limits of two tail sums each; both ends of
        every piece would take 8n + 4."""
        n = 200
        est = ClopperPearson(n, 0.05)
        for y in range(n + 1):
            est.interval(y)  # the table's own tail sums are not the verdict's
        counts = count_calls(monkeypatch, berncert.binom, "_cdf_sf")
        assert verify_conservative_validity(est, n, 0.05).valid
        assert 0 < counts["_cdf_sf"] <= 2 * (2 * n + 1)

    @given(case=grid_estimators())
    @settings(max_examples=300)
    def test_dominance_on_grid_estimators(self, case):
        """Tied lower and upper endpoints, point intervals and ends at 0 and 1,
        where Clopper-Pearson's distinct interior endpoints do not reach."""
        est, n = case
        report = verify_conservative_validity(est, n, 0.05)
        assert abs(report.worst_coverage - coverage_infimum_oracle(est, n)) <= 1e-12
        assert abs(coverage_probability(est, report.worst_b, n).coverage - report.worst_coverage) <= 1e-12
        assert (report.worst_b, report.worst_coverage) == piecewise_coverage_infimum(est)

    @pytest.mark.parametrize("n", [5, 30, 31])
    @pytest.mark.parametrize("alpha", [0.01, 0.05])
    def test_clipped_wald_invalid(self, n, alpha):
        report = verify_conservative_validity(clipped_wald(n, alpha), n, alpha)
        assert not report.valid
        assert report.worst_coverage < 1 - alpha

    def test_non_monotone_refused(self):
        est = swapped_clopper_pearson(10, 0.05)
        with pytest.raises(ValueError, match="nondecreasing in y") as excinfo:
            verify_conservative_validity(est, 10, 0.05)
        assert "grid" not in str(excinfo.value)

    @pytest.mark.parametrize("est", [ClopperPearson(10, 0.05), full_interval(10)])
    @pytest.mark.parametrize("alpha", [1.5, math.nan, -3.0, 0.0, 1.0])
    def test_level_outside_unit_interval_refused(self, est, alpha):
        # alpha = 1.5 would judge anything valid, NaN anything invalid
        with pytest.raises(ValueError, match="alpha"):
            verify_conservative_validity(est, 10, alpha)

    def test_report_carries_checked_n(self):
        report = verify_conservative_validity(ClopperPearson(10, 0.05), np.int64(10), 0.05)
        assert type(report.n) is int and report.n == 10
        assert type(report.alpha) is float

    def test_estimator_for_another_n_refused(self):
        est = ClopperPearson(20, 0.05)
        with pytest.raises(ValueError, match="n = 20, not for the n = 10"):
            verify_conservative_validity(est, 10, 0.05)
        with pytest.raises(ValueError, match="n = 20"):
            coverage_probability(est, 0.3, 10)
        with pytest.raises(ValueError, match="n = 20"):
            pac_form_check(est, 0.3, 10, 100, SeededStream(1))
        with pytest.raises(ValueError, match="n = 20"):
            endpoint_augmented_grid(est, 10)
        # a table is refused the same way
        with pytest.raises(ValueError, match="n = 20, not for the n = 10"):
            coverage_probability(EndpointTable.of(est, 20), 0.3, 10)
        # the same estimator judged at its own n is certified
        assert verify_conservative_validity(est, 20, 0.05).valid


class DuckWald:
    """A clipped Wald estimator that is no table, as perfbench's `Wald` is:
    an object with `.interval(y)`."""

    def __init__(self, n, alpha):
        self.alpha, self.table = alpha, clipped_wald(n, alpha)

    def interval(self, y):
        return IntervalEstimate(self.table.lowers[y], self.table.uppers[y], self.alpha, self.table.n, y)


class TestEndpointTable:
    @pytest.mark.parametrize(
        "est, n",
        [(ClopperPearson(n, a), n) for n in (1, 2, 30, 31, 200) for a in (0.05, 0.01)]
        + [(DuckWald(n, 0.05), n) for n in (5, 30, 31)],
    )
    def test_adapter_is_bit_identical(self, est, n):
        """An estimator and its table get equal reports, at every end and a
        few b between."""
        table = EndpointTable.of(est, n)
        assert table.lowers == tuple(est.interval(y).lower for y in range(n + 1))
        assert table.uppers == tuple(est.interval(y).upper for y in range(n + 1))
        assert EndpointTable.of(table, n) is table
        assert verify_conservative_validity(est, n, 0.05) == verify_conservative_validity(table, n, 0.05)
        for b in {0.0, 0.3, 0.5, 0.77, 1.0, *table.lowers, *table.uppers}:
            assert coverage_probability(est, b, n) == coverage_probability(table, b, n), b

    def test_non_monotone_refused_by_the_table(self):
        with pytest.raises(ValueError, match="nondecreasing in y"):
            swapped_clopper_pearson(10, 0.05).check_nondecreasing()
        wald = clipped_wald(30, 0.05)
        assert wald.check_nondecreasing() is wald


class TestPacFormCheck:
    def test_full_interval_exact_one(self):
        assert pac_form_check(full_interval(10), 0.3, 10, 10_000, SeededStream(1)) == 1.0

    def test_degenerate_b_zero(self):
        # y = 0 a.s. and the interval contains 0
        got = pac_form_check(ClopperPearson(2, 0.1), 0.0, 2, 10_000, SeededStream(2))
        assert got == 1.0

    def test_matches_exact_enumeration(self):
        est = ClopperPearson(10, 0.05)
        exact = coverage_probability(est, 0.5, 10).coverage
        trials = 100_000
        got = pac_form_check(est, 0.5, 10, trials, SeededStream(3))
        tol = 5 * math.sqrt(exact * (1 - exact) / trials)
        assert abs(got - exact) <= tol

    def test_deterministic(self):
        est = ClopperPearson(5, 0.1)
        a = pac_form_check(est, 0.4, 5, 2000, SeededStream(9, 1))
        b = pac_form_check(est, 0.4, 5, 2000, SeededStream(9, 1))
        assert a == b
