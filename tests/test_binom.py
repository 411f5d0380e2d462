"""Tests for exact binomial computations and seeded streams."""

import math
import os
import random
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st, target
from scipy.special import betaincinv

import berncert
import berncert.binom
from berncert.binom import (
    SeededStream,
    _carried,
    _cdf_sf,
    _complement,
    _pmf,
    binom_cdf,
    binom_pmf,
    binom_pmf_vector,
    binom_sf,
    binom_tail_invert,
)
from berncert.intervals import clopper_pearson
from helpers import count_calls, draw_bernoulli, inversion_cost, polished_beta_quantile, ref_cdf_sf, ref_pmf


def exact_pmf(n: int, b: float, y: int) -> float:
    """Pr(Y = y) at the float b, correctly rounded: the value is a ratio of
    exact integers, and Python rounds int / int correctly."""
    num, den = b.as_integer_ratio()
    return math.comb(n, y) * num**y * (den - num) ** (n - y) / den**n


class TestPmf:
    def test_all_successes(self):
        assert binom_pmf(2, 0.3, 2) == pytest.approx(0.09, abs=1e-15)

    def test_one_success_of_two(self):
        assert binom_pmf(2, 0.3, 1) == pytest.approx(0.42, abs=1e-15)

    def test_exact_rational_value(self):
        # 252/1024 by exact rational arithmetic
        assert binom_pmf(10, 0.5, 5) == 0.24609375

    def test_degenerate_parameters(self):
        assert binom_pmf(5, 0.0, 0) == 1.0
        assert binom_pmf(5, 0.0, 3) == 0.0
        assert binom_pmf(5, 1.0, 5) == 1.0

    def test_y_out_of_range(self):
        with pytest.raises(ValueError):
            binom_pmf(5, 0.3, 6)
        with pytest.raises(ValueError):
            binom_pmf(5, 0.3, -1)

    def test_b_out_of_range(self):
        with pytest.raises(ValueError):
            binom_pmf(5, 1.3, 2)

    @pytest.mark.parametrize("n", [100, 1000, 100_000])
    def test_large_n_matches_log_oracle(self, n):
        # independent oracle: exact integer arithmetic at the float b
        y = n // 3
        expected = exact_pmf(n, 0.3, y)
        assert binom_pmf(n, 0.3, y) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 7, 30, 100, 1000, 10_000])
    def test_normalization(self, n):
        for b in (0.0, 0.01, 0.3, 0.5, 0.97, 1.0):
            total = math.fsum(binom_pmf_vector(n, b))
            assert total == pytest.approx(1.0, abs=1e-12)


class TestCdf:
    def test_matches_eq8_tail(self):
        # cdf(2, E, 1) = 1 - E^2
        for E in np.arange(0.0, 1.0001, 0.05):
            assert binom_cdf(2, E, 1) == pytest.approx(1 - E**2, abs=1e-14)

    def test_all_mass_at_zero(self):
        assert binom_cdf(5, 0.0, 0) == 1.0

    def test_exact_summation(self):
        # frozen from exact rational summation of 7 pmf terms
        assert binom_cdf(20, 0.3, 6) == pytest.approx(0.608009812200924, abs=1e-14)

    def test_total_on_integers(self):
        assert binom_cdf(4, 0.3, -1) == 0.0
        assert binom_cdf(4, 0.3, -7) == 0.0
        assert binom_cdf(4, 0.3, 4) == 1.0
        assert binom_cdf(4, 0.3, 100) == 1.0

    @given(
        n=st.integers(1, 40),
        b=st.floats(0, 1),
        j=st.integers(0, 40),
    )
    @settings(max_examples=100)
    def test_pmf_consistency(self, n, b, j):
        j = min(j, n)
        diff = binom_cdf(n, b, j) - binom_cdf(n, b, j - 1)
        assert diff == pytest.approx(binom_pmf(n, b, j), abs=1e-12)
        if 0.0 < b < 1.0 and j < n:
            # the tail sum starts at j below the mode and at j + 1 above it,
            # from the same saddle-point anchor that binom_pmf returns
            _, _, k, first = _cdf_sf(n, b, j)
            assert k == (j if j < min(int((n + 1) * b), n) else j + 1)
            assert first == binom_pmf(n, b, k)

    @given(n=st.integers(1, 25), b=st.floats(0, 1))
    @settings(max_examples=50)
    def test_monotone_in_j(self, n, b):
        values = [binom_cdf(n, b, j) for j in range(-1, n + 1)]
        assert all(a <= c + 1e-15 for a, c in zip(values, values[1:]))


@st.composite
def carry_moves(draw):
    """(n, k, b0, b) with n <= 1e6, k at the edges or within 40 standard
    deviations of the mean, b0 from 5e-324 to 1 - 2^-53, and b a move from b0
    of relative size 1e-9 to 1 or of up to 10 / max(k, n - k), in b0 or in
    1 - b0, or anywhere."""
    n = draw(st.integers(1, 10**6))
    b0 = min(max(draw(st.one_of(
        st.floats(5e-324, 1.0 - 2.0**-53),
        st.floats(math.log(5e-324), 0.0).map(math.exp),
        st.floats(math.log(2.0**-53), 0.0).map(lambda x: 1.0 - math.exp(x)),
    )), 5e-324), 1.0 - 2.0**-53)
    mean, sd = n * b0, math.sqrt(n * b0 * (1.0 - b0))
    k = min(max(draw(st.one_of(st.sampled_from((0, 1, n - 1, n)),
                               st.floats(-40.0, 40.0).map(lambda z: int(mean + z * sd)))), 0), n)
    r = draw(st.one_of(st.floats(math.log(1e-9), 0.0).map(math.exp),
                       st.floats(0.0, 10.0).map(lambda z: z / max(k, n - k, 1))))
    r *= draw(st.sampled_from((-1.0, 1.0)))
    b = draw(st.sampled_from((b0 + r * b0, b0 - r * (1.0 - b0), draw(st.floats(0.0, 1.0)))))
    return n, k, b0, min(max(b, 5e-324), 1.0 - 2.0**-53)


# roots between two adjacent doubles.  (11, 6, ...) and (124, 32, 0.005) end
# on the end of a Halley step whose predicted remainder is below 2^-56 of b,
# after two tail sums, the second of (11, 6, ...) carried.  The second sum of
# (47, 19, ...) lands at the rounding floor, so it ends through the
# collapsed-bracket exit: the tail at the step's end 0.43309163213101287, two
# ulps on the inner side, then one double at a time up to 0.433091632131013
COLLAPSED_BRACKET_CASES = [(11, 6, 0.2716760504048823), (124, 32, 0.005), (47, 19, 0.4031792535164339)]

# upper ends of Clopper-Pearson tables whose first Halley step, from the
# two-term start, meets the remainder rule but is rounded past the closed
# bracket: the step's end is not returned, and the floor walk takes the tail
# one double toward the root, where the bracket collapses after two tail sums
PAST_BRACKET_CASES = [(11, 1, 0.1), (116, 1, 0.005), (498, 1, 0.1)]


class TestTailInvert:
    def test_upper_closed_form(self):
        # (1 - b)^10 = 0.05
        expected = 1 - 0.05 ** (1 / 10)
        assert binom_tail_invert(10, 0, 0.05, "upper") == pytest.approx(expected, abs=1e-10)

    def test_lower_closed_form(self):
        expected = 0.05 ** (1 / 10)
        assert binom_tail_invert(10, 10, 0.05, "lower") == pytest.approx(expected, abs=1e-10)

    def test_single_trial(self):
        assert binom_tail_invert(1, 0, 0.5, "upper") == pytest.approx(0.5, abs=1e-11)

    def test_boundary_no_sign_change(self):
        assert binom_tail_invert(5, 5, 0.3, "upper") == 1.0
        assert binom_tail_invert(5, 0, 0.3, "lower") == 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            binom_tail_invert(5, 6, 0.3, "upper")
        with pytest.raises(ValueError):
            binom_tail_invert(5, 2, 0.0, "upper")
        with pytest.raises(ValueError):
            binom_tail_invert(5, 2, 0.3, "sideways")

    @pytest.mark.parametrize("n,y,t", [(10, 3, 0.025), (25, 12, 0.2), (7, 0, 0.6)])
    def test_round_trip(self, n, y, t):
        b = binom_tail_invert(n, y, t, "upper")
        assert binom_cdf(n, b, y) == pytest.approx(t, abs=1e-10)

    @pytest.mark.parametrize("n,y,t", [(10, 3, 0.025), (25, 12, 0.2), (7, 7, 0.6)])
    def test_round_trip_lower(self, n, y, t):
        b = binom_tail_invert(n, y, t, "lower")
        assert 1 - binom_cdf(n, b, y - 1) == pytest.approx(t, abs=1e-10)

    @pytest.mark.parametrize("n,y,t", COLLAPSED_BRACKET_CASES)
    def test_collapsed_bracket_returns_conservative_end(self, n, y, t):
        b = binom_tail_invert(n, y, t, "upper")
        # the upper end: the cdf crosses the target between b's lower neighbour and b
        assert binom_cdf(n, b, y) <= t <= binom_cdf(n, math.nextafter(b, 0.0), y)

    @pytest.mark.parametrize("n,y,t", COLLAPSED_BRACKET_CASES)
    def test_carried_sum_near_root_is_retaken(self, monkeypatch, n, y, t):
        """A carried sum within 1e-13 of the root in h is retaken with its
        anchor, so the bracket's ends are judged by the tail `binom_cdf`
        gives, even where every sum after the first carries its first term.
        Without the retake, (11, 6, ...) returns its inner end here."""
        monkeypatch.setattr(berncert.binom, "_CARRY_STEP", 0.0)
        self.test_collapsed_bracket_returns_conservative_end(n, y, t)

    @pytest.mark.parametrize(
        "n,y,t,side",
        [(10, 3, 0.025, "upper"), (10, 3, 0.025, "lower"), (200, 0, 0.005, "upper"),
         (200, 200, 0.005, "lower"), (200, 1, 0.005, "upper"), (200, 199, 0.005, "lower"),
         (256, 90, 0.3, "upper"), (256, 90, 0.3, "lower")],
    )
    def test_one_anchor_per_tail_evaluation(self, monkeypatch, n, y, t, side):
        """The slope comes from the first term of the tail sum just taken,
        and a sum after a long step carries its first term from the last
        sum's, so the inversion computes no saddle-point anchor beyond those
        the sums that carry nothing make: at n <= 256 one each.  At (10, 3,
        0.025, "upper") the second and last sum carries."""
        counts = count_calls(monkeypatch, berncert.binom, "_pmf")
        carried = count_carried_sums(monkeypatch)
        binom_tail_invert(n, y, t, side)
        assert len(carried) > 0
        assert counts["_pmf"] == len(carried) - sum(carried)
        if (n, y, t, side) == (10, 3, 0.025, "upper"):
            assert carried == [False, True]

    @given(move=carry_moves())
    @settings(max_examples=500)
    def test_carried_term(self, move):
        """Where `_carried` admits a move, its pmf_n(k; b), carried from
        `_pmf` at b0, lies within 8 ulps of `_pmf` at b (6 at worst over 2e4
        admitted moves of a seeded draw).  No move raises: the guard keeps log1p off -1, which
        rounding reaches on a move to near 0 or 1 from far away."""
        n, k, b0, b = move
        got = _carried(n, k, b0, _pmf(n, k, b0, *_complement(b0)), b)
        if got > 0.0:
            want = _pmf(n, k, b, *_complement(b))
            target(abs(got - want) / math.ulp(want), label="ulps")
            assert abs(got - want) <= 8 * math.ulp(want), (move, got, want)

    def test_seeded_sweep_converges(self):
        """2000 random cases, each inverted without ArithmeticError.  A
        collapsed bracket is rare (about 1 case in 3e4 at n <= 300 and
        Clopper-Pearson targets); the seed is one whose cases hold one,
        (47, 19, 0.4031792535164339, "upper")."""
        for case in seeded_sweep_cases():
            assert 0.0 <= binom_tail_invert(*case) <= 1.0


def count_carried_sums(monkeypatch) -> list[bool]:
    """Wrap `_cdf_sf`; the list returned holds, for each tail sum so far,
    whether it was given its first term."""
    carried = []
    cdf_sf = berncert.binom._cdf_sf

    def wrapper(n, b, j, first=0.0):
        carried.append(first > 0.0)
        return cdf_sf(n, b, j, first)

    monkeypatch.setattr(berncert.binom, "_cdf_sf", wrapper)
    return carried


def seeded_sweep_cases():
    """2000 (n, y, target, side) with n <= 300 and the target 0.005, 0.025 or
    uniform in (0, 1), a third each."""
    rng = random.Random(45)
    for _ in range(2000):
        n = rng.randint(1, 300)
        side = rng.choice(("lower", "upper"))
        y = rng.randint(1, n) if side == "lower" else rng.randint(0, n - 1)
        yield n, y, rng.choice((0.005, 0.025, rng.random())), side


# (y, side) as functions of n where the tail has a closed-form root in b
EXACT_STARTS = {
    "upper y=0": (lambda n: 0, "upper"),  # (1 - b)^n = t
    "lower y=n": (lambda n: n, "lower"),  # b^n = t
    "lower y=1": (lambda n: 1, "lower"),  # (1 - b)^n = 1 - t
    "upper y=n-1": (lambda n: n - 1, "upper"),  # b^n = 1 - t
}

# (y, side) as functions of n where the tail has two terms, solved in doubles
TWO_TERM_STARTS = {
    "upper y=1": (lambda n: 1, "upper"),  # (1 - b)^(n - 1) (1 + (n - 1) b) = t
    "lower y=n-1": (lambda n: n - 1, "lower"),  # b^(n - 1) (1 + (n - 1) (1 - b)) = t
}

# the root lies above the largest double below 1: Pr(Y <= y) there is still
# above the target
PAST_LAST_DOUBLE_CASES = [(40, 38, 1e-200), (18, 1, 1.2111648125347684e-290)]

# targets within 1e-9 of 1, where the log tail is flat
NEAR_ONE_CASES = [(50, 20, 1 - 1e-10), (200, 60, 1 - 1e-12), (1000, 300, 1 - 3e-11)]


@st.composite
def invert_cases(draw, max_n):
    """(n, y, target, side) with n <= max_n, y weighted to 0, 1, 2, n - 2,
    n - 1 and n, and the target log-uniform over (1e-300, 1/2] or its mirror
    1 - t."""
    n = draw(st.integers(1, max_n))
    y = draw(st.one_of(st.sampled_from((0, 1, 2, n - 2, n - 1, n)), st.integers(0, n)))
    t = min(math.exp(draw(st.floats(math.log(1e-300), math.log(0.5), exclude_min=True))), 0.5)
    if draw(st.booleans()) and 1.0 - t < 1.0:
        t = 1.0 - t
    return n, min(max(y, 0), n), t, draw(st.sampled_from(("lower", "upper")))


@st.composite
def interior_cases(draw):
    """(n, y, target, side) with n <= 1e4, 2 <= y <= n - 2, where the start
    is Paulson's, and the target log-uniform over [1e-6, 1/2]."""
    n = draw(st.integers(4, 10**4))
    t = math.exp(draw(st.floats(math.log(1e-6), math.log(0.5))))
    return n, draw(st.integers(2, n - 2)), min(max(t, 1e-6), 0.5), draw(st.sampled_from(("lower", "upper")))


def mp_tail_root(n, y, t, side, start):
    """The b where the tail of `side` equals t, by Newton's method on the
    log tail at 60 digits from a start within about 1e-12 of it; the tail
    sums stop at terms below 1e-45 of the sum, which bounds its accuracy.
    Above 1/2 it solves the complementary tail at 1 - t, where log T is not
    flat."""
    upper = side == "upper"
    with mp.workdps(60):
        t = mp.mpf(t)
        if t > 0.5:
            y, upper, t = (y + 1, False, 1 - t) if upper else (y - 1, True, 1 - t)
        a, c = (y + 1, n - y) if upper else (y, n - y + 1)
        beta, b = mp.beta(a, c), mp.mpf(start)
        for _ in range(20):
            tail = mp_tail_from(n, b, y, -1 if upper else 1)  # Pr(Y <= y) or Pr(Y >= y)
            # the tail's derivative in b is -+ the Beta(a, c) density
            density = b ** (a - 1) * (1 - b) ** (c - 1) / beta
            step = (mp.log(tail) - mp.log(t)) * tail / (-density if upper else density)
            b -= step
            if abs(step) <= mp.mpf(10) ** -40 * b:
                return b
    raise ArithmeticError(f"no 60-digit root for {(n, y, t, side)}")


# relative accuracy of an inversion, as of a Clopper-Pearson endpoint
RTOL = 1e-12

# targets far below 1, where log(tail) - log(target) would lose about
# 1e-16 |log target| to rounding; log(tail / target) does not
TINY_TARGET_CASES = [(3, 2, 1e-300, "lower"), (7009, 2, 1.16e-270, "lower")]


class TestTailInvertCost:
    """Tail sums per inversion, each a pure-Python loop and most of the cost."""

    @pytest.fixture
    def counts(self, monkeypatch):
        return count_calls(monkeypatch, berncert.binom, "_cdf_sf")

    @staticmethod
    def invert(counts, *args):
        """binom_tail_invert(*args) and the tail sums it took."""
        before = counts["_cdf_sf"]
        b = binom_tail_invert(*args)
        return b, counts["_cdf_sf"] - before

    @pytest.mark.parametrize("n,y,t", COLLAPSED_BRACKET_CASES)
    def test_collapsed_bracket(self, counts, n, y, t):
        """A step that lands at the rounding floor ends through the floor
        walk, one double at a time toward the root, not through a bisection
        of the whole bracket."""
        assert self.invert(counts, n, y, t, "upper")[1] <= 6

    @pytest.mark.parametrize("n,y,t", PAST_BRACKET_CASES)
    def test_converged_step_past_bracket(self, counts, n, y, t):
        """A step that meets the remainder rule but is rounded past the
        bracket enters the floor walk: the wide-side end, by `binom_cdf`,
        after at most two tail sums."""
        b, sums = self.invert(counts, n, y, t, "upper")
        assert binom_cdf(n, b, y) <= t <= binom_cdf(n, math.nextafter(b, 0.0), y)
        assert sums <= 2

    def test_seeded_sweep(self, counts):
        sums = [self.invert(counts, *case)[1] for case in seeded_sweep_cases()]
        assert max(sums) <= 12
        assert sum(sums) / len(sums) <= 3.6

    def test_seeded_sweep_anchors(self):
        """A sum after a long step carries its first term, so the sweep takes
        fewer saddle-point anchors than tail sums (2.07 and 2.33 per
        inversion; at n <= 300 each sum that carries nothing takes one).
        Before Paulson's start and the remainder stop the sweep took 2.98
        tail sums per inversion."""
        sums, anchors, _ = inversion_cost(seeded_sweep_cases())
        assert anchors <= 2.3
        assert sums <= 2.4

    def test_clopper_pearson_tables(self):
        """The inversions of the `ClopperPearson(n, alpha)` tables at n = 30
        and 31, alpha = 0.05 and 0.01: most interior endpoints take a tail
        sum at Paulson's start and one after the first Halley step, and the
        ends with a closed-form or two-term root one (2.01 per inversion;
        3.06 with a Wilson start and a sum to confirm the last step)."""
        cases = [(n, y, alpha / 2, side) for n in (30, 31) for alpha in (0.05, 0.01)
                 for y in range(n + 1) for side in ("lower", "upper") if y != (0 if side == "lower" else n)]
        assert inversion_cost(cases)[0] <= 2.1

    @pytest.mark.parametrize("n", [2, 10, 1000, 10**6])
    @pytest.mark.parametrize("case", EXACT_STARTS)
    def test_exact_start(self, counts, n, case):
        """Where the tail has a closed-form root the inversion starts from it,
        and the first tail sum confirms it."""
        y_of, side = EXACT_STARTS[case]
        y, t = y_of(n), 0.025
        b, sums = self.invert(counts, n, y, t, side)
        assert sums == 1
        ref = betaincinv(y + 1, n - y, 1 - t) if side == "upper" else betaincinv(y, n - y + 1, t)
        assert abs(b - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("n", [3, 10, 1000, 10**6])
    @pytest.mark.parametrize("case", TWO_TERM_STARTS)
    def test_two_term_start(self, counts, n, case):
        """Where the tail has two terms the inversion starts from their root,
        solved in doubles, and the first tail sum confirms it."""
        y_of, side = TWO_TERM_STARTS[case]
        y, t = y_of(n), 0.025
        b, sums = self.invert(counts, n, y, t, side)
        assert sums == 1
        a, c = (y + 1, n - y) if side == "upper" else (y, n - y + 1)
        ref = polished_beta_quantile(a, c, t, side == "upper")
        assert abs(b - ref) <= RTOL * ref

    @pytest.mark.parametrize("n,y,t", PAST_LAST_DOUBLE_CASES)
    def test_root_past_last_double(self, counts, n, y, t):
        """A step aimed past 1 takes the tail at the largest double below 1
        first; the root lies past it, so the upper end 1 is returned."""
        assert binom_cdf(n, 1.0 - 2.0**-53, y) > t
        b, sums = self.invert(counts, n, y, t, "upper")
        assert b == 1.0
        assert sums <= 2

    @pytest.mark.parametrize("n,y,t", NEAR_ONE_CASES)
    def test_target_near_one(self, counts, n, y, t):
        """Above 1/2 the complementary tail at 1 - t, exact, is solved."""
        b, sums = self.invert(counts, n, y, t, "upper")
        assert sums <= 5
        root = mp_tail_root(n, y, t, "upper", b)
        assert abs(b - root) <= RTOL * root

    @pytest.mark.parametrize("case", TINY_TARGET_CASES)
    def test_tiny_target(self, case):
        """Within 1e-15 of a 60-digit root (it was 1.5e-14 and 1.9e-14 with
        the difference of logs)."""
        b = binom_tail_invert(*case)
        root = mp_tail_root(*case, b)
        assert abs(b - root) <= 1e-15 * root

    @given(case=interior_cases())
    @settings(max_examples=200, derandomize=True)
    def test_interior_accuracy(self, case):
        """Each root from Paulson's start within 1e-15 relative of one solved
        at 60 digits, so that the remainder stop never ends a step early:
        with K scaled by 1e-6 the stop leaves errors up to about 2e-11."""
        b = binom_tail_invert(*case)
        root = mp_tail_root(*case, b)
        assert abs(b - root) <= 1e-15 * root, (case, b, float(root))

    @given(case=invert_cases(10**6))
    @settings(max_examples=300)
    def test_stress(self, case):
        """No inversion raises, the two-term solve included, and none takes
        more than 8 tail sums."""
        with pytest.MonkeyPatch.context() as patch:
            counts = count_calls(patch, berncert.binom, "_cdf_sf")
            binom_tail_invert(*case)
        assert counts["_cdf_sf"] <= 8

    @given(case=invert_cases(10**4))
    @settings(max_examples=100, derandomize=True)
    def test_stress_accuracy(self, case):
        """Each root within RTOL of one solved at 60 digits, or, where it lies
        past the last double before 0 or 1, that boundary, the end that
        widens the interval."""
        n, y, t, side = case
        b = binom_tail_invert(*case)
        upper = side == "upper"
        if y == (n if upper else 0):
            assert b == (1.0 if upper else 0.0)
        elif b == (1.0 if upper else 0.0):
            edge = 1.0 - 2.0**-53 if upper else math.ulp(0.0)
            with mp.workdps(60):
                assert mp_tail_from(n, mp.mpf(edge), y, -1 if upper else 1) > t, case
        else:
            root = mp_tail_root(n, y, t, side, b)
            assert abs(b - root) <= RTOL * root, (case, b, float(root))


# ---------------------------------------------------------------- kernel accuracy
#
# Oracle: 40-digit mpmath.  A tail is summed from its start away from the
# mode until the terms fall below 1e-45 of the sum; the tail across the mode
# is its complement, which 40 digits hold exactly enough.

MP_DPS = 40
KERNEL_RTOL = 1e-13
SMALLEST_CHECKED = 1e-300  # below this the double result may be subnormal


def mp_pmf(n, b, x):
    b = mp.mpf(b)
    return mp.binomial(n, x) * b**x * (1 - b) ** (n - x)


def mp_tail_from(n, b, j, step):
    """sum of pmf(k) for k = j, j + step, ... while terms still matter"""
    term = total = mp_pmf(n, b, j)
    ratio = mp.mpf(b) / (1 - mp.mpf(b))
    k, mean = j, n * b
    while (k > 0) if step < 0 else (k < n):
        if step > 0:
            term = term * (n - k) / (k + 1) * ratio
        else:
            term = term * k / (n - k + 1) / ratio
        k += step
        total += term
        past_mode = k > mean if step > 0 else k < mean
        if past_mode and term < total * mp.mpf(10) ** -45:
            break
    return total


def mp_cdf_sf(n, b, j):
    """(Pr(Y <= j), Pr(Y > j)), the smaller one summed directly"""
    if j >= n:
        return mp.mpf(1), mp.mpf(0)
    if j < (n + 1) * b:
        below = mp_tail_from(n, b, j, -1)
        return below, 1 - below
    above = mp_tail_from(n, b, j + 1, 1)
    return 1 - above, above


def relative_error(got, exact):
    return float(abs(mp.mpf(got) - exact) / exact)


def kernel_cases():
    """(n, b, j) over n up to 1e6; b subnormal, within 1e-12 of 0 and 1, and
    in between; j at the edges and at z = 0..37 standard deviations, where
    the tails reach down to about 1e-300."""
    cases = []
    for n in (1, 2, 7, 30, 31, 100, 1000, 10**4, 10**5, 10**6):
        for b in (5e-324, 2.2250738585e-313, 1e-300, 1e-12, 1e-5, 0.01, 0.3, 0.5,
                  0.7331, 0.99, 1 - 1e-12):
            sd = math.sqrt(n * b * (1 - b))
            js = {0, 1, n - 1, n}
            for z in (-37, -25, -12, -4, -1, 0, 1, 4, 12, 25, 37):
                js.add(int(n * b + z * sd))
            cases += [(n, b, j) for j in sorted(js) if 0 <= j <= n]
    return cases


class TestKernelAccuracy:
    @pytest.fixture(autouse=True)
    def _precision(self):
        with mp.workdps(MP_DPS):
            yield

    def test_pmf_cdf_sf_against_mpmath(self):
        checked = 0
        for n, b, j in kernel_cases():
            cdf_exact, sf_exact = mp_cdf_sf(n, b, j)
            for name, got, exact in (
                ("pmf", binom_pmf(n, b, j), mp_pmf(n, b, j)),
                ("cdf", binom_cdf(n, b, j), cdf_exact),
                ("sf", binom_sf(n, b, j), sf_exact),
            ):
                if exact >= SMALLEST_CHECKED:
                    err = relative_error(got, exact)
                    assert err <= KERNEL_RTOL, (name, n, b, j, got, float(exact), err)
                    checked += 1
        assert checked > 1000

    @pytest.mark.parametrize(
        "n,b,j",
        [
            (1000, 0.5, 1),  # 1001 / 2^1000 = 9.3e-299
            (10**6, 0.01, 12_500),  # far from the mode, 1e-126
            (10**5, 0.3, 28_000),
            (30, 1e-12, 2),
            (30, 1 - 1e-12, 27),
            (10**6, 1e-6, 40),
        ],
    )
    def test_deep_tails(self, n, b, j):
        # the tail on the far side of the mode from j
        cdf_exact, sf_exact = mp_cdf_sf(n, b, j)
        if j < (n + 1) * b:
            got, exact = binom_cdf(n, b, j), cdf_exact
        else:
            got, exact = binom_sf(n, b, j), sf_exact
        assert SMALLEST_CHECKED <= exact <= 1e-20
        assert relative_error(got, exact) <= KERNEL_RTOL

    def test_cdf_plus_sf_is_one(self):
        for n, b, j in kernel_cases():
            assert abs(binom_cdf(n, b, j) + binom_sf(n, b, j) - 1.0) <= 1e-15

    def test_subnormal_b(self):
        for b in (5e-324, 2.2250738585e-313):
            assert [binom_cdf(23, b, j) for j in range(24)] == [1.0] * 24
            assert binom_pmf(23, b, 0) == 1.0
            assert 0.0 <= binom_sf(23, b, 0) <= 24 * b

    @pytest.mark.parametrize("n,b", [(30, 0.3), (31, 0.01), (1000, 0.97), (10**5, 0.3)])
    def test_pmf_vector_matches_pmf(self, n, b):
        vec = binom_pmf_vector(n, b)
        assert vec.shape == (n + 1,)
        for y in range(n + 1):
            assert vec[y] == binom_pmf(n, b, y), (n, b, y)

    def test_sf_total_on_integers(self):
        assert binom_sf(4, 0.3, -1) == 1.0
        assert binom_sf(4, 0.3, 4) == 0.0
        assert binom_sf(4, 0.3, 100) == 0.0
        assert binom_sf(4, 0.0, 0) == 0.0
        assert binom_sf(4, 1.0, 3) == 1.0


# b from the smallest subnormal to the largest double below 1, with draws
# crowded within 1e-12 of either end
KERNEL_B = st.one_of(
    st.floats(5e-324, 1.0 - 2.0**-53),
    st.floats(5e-324, 1e-12),
    st.floats(1.0 - 1e-12, 1.0 - 2.0**-53),
)


@st.composite
def kernel_arguments(draw):
    n = draw(st.integers(1, 10**6))
    return n, draw(KERNEL_B), draw(st.integers(-1, n))


def _same_bits(n, b, j):
    """`_cdf_sf` at (n, b, j) and, for 0 <= j <= n, `_pmf` at x = j are the
    reference kernel's values to the last bit."""
    assert repr(_cdf_sf(n, b, j)) == repr(ref_cdf_sf(n, b, j)), (n, b, j)
    if j >= 0:
        qh = 1.0 - b
        args = (n, j, b, qh, (1.0 - qh) - b)
        assert repr(_pmf(*args)) == repr(ref_pmf(*args)), args


class TestReferenceKernel:
    """The kernel writes its double-double steps in place and sums its tails
    in a plain loop; `helpers` keeps the form with one call per step and a
    generator of terms.  Both must give the same bits."""

    @given(args=kernel_arguments())
    @settings(max_examples=300)
    def test_matches_reference_kernel(self, args):
        _same_bits(*args)

    def test_matches_reference_on_kernel_grid(self):
        for n, b, j in kernel_cases():
            _same_bits(n, b, j)
            _same_bits(n, b, j - 1)

    def test_clopper_pearson_matches_reference_tails(self, monkeypatch):
        """Endpoints from the kernel and from the reference tail sums are the
        same doubles: the collapsed-bracket cases of `TestTailInvert` (alpha
        twice their target) and 200 seeded cases."""
        rng = random.Random(13)
        cases = [(n, y, 2 * t) for n, y, t in COLLAPSED_BRACKET_CASES]
        for _ in range(200):
            n = rng.choice((rng.randint(1, 40), rng.randint(1, 3000), rng.randint(1, 10**5)))
            cases.append((n, rng.randint(0, n), rng.choice((0.05, 0.01, rng.uniform(1e-6, 0.999)))))
        got = [clopper_pearson(*case) for case in cases]
        monkeypatch.setattr(berncert.binom, "_cdf_sf", ref_cdf_sf)
        want = [clopper_pearson(*case) for case in cases]
        assert [repr(iv[:2]) for iv in got] == [repr(iv[:2]) for iv in want]


IMPORT_PROBE = """
import sys
before = set(sys.modules)
import berncert, berncert.cli
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names))))
"""


CLI_PROBE = """
import sys
from berncert.cli import main
code = main(sys.argv[1:])
print(*(name in sys.modules for name in ("fractions", "decimal")))
print(code, *(name in sys.modules for name in ("numpy", "dataclasses", "typing")))
print(*sorted(name for name in sys.modules if name.partition(".")[0] == "berncert"))
"""

NAMESPACE_PROBE = """
import sys
import berncert
print(*sorted(name for name in sys.modules if name.partition(".")[0] == "berncert"))
"""


def _probe(code: str, *argv: str, flags: tuple[str, ...] = ()) -> str:
    src = os.path.dirname(os.path.dirname(os.path.abspath(berncert.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, *flags, "-c", code, *argv],
        capture_output=True, text=True, env=env, check=True, timeout=60,
    ).stdout


def test_import_does_not_load_mpmath():
    """Importing the package and its CLI loads no third-party module: numpy
    is loaded by the functions that make arrays, and mpmath and scipy are for
    tests only.  Modules loaded before the import (site hooks) are not
    counted."""
    assert _probe(IMPORT_PROBE).split() == ["berncert"]


@pytest.mark.parametrize(
    "argv",
    [
        ("bpci", "--n", "1000000", "--successes", "300000"),
        ("cp-bound", "--n", "2", "--epsilon", "2/3", "--coverage", "0.5"),
        ("counterexample", "--b", "0.3", "--coverage", "0.5", "--epsilon", "2/3", "--n", "2", "--show-cases"),
    ],
)
def test_scalar_commands_do_not_load_numpy(argv):
    *_, exact, status, loaded = _probe(CLI_PROBE, *argv).splitlines()
    # no numpy, and no dataclasses (and its inspect), which cost start-up
    assert status.split()[:3] == ["0", "False", "False"]
    if argv[0] == "bpci":
        # the interval needs the kernel and the estimator, and no other submodule
        assert loaded.split() == ["berncert", "berncert.binom", "berncert.cli", "berncert.intervals"]
        # nor exact rationals: its level is a double
        assert exact.split() == ["False", "False"]


COVERAGE_PROBE = """
import sys
from berncert.intervals import ClopperPearson, coverage_probability, verify_conservative_validity
est = ClopperPearson(30, 0.05)
print(coverage_probability(est, 0.3, 30).coverage >= 0.95, verify_conservative_validity(est, 30, 0.05).valid)
print("numpy" in sys.modules)
"""


def test_coverage_and_verdict_do_not_load_numpy():
    """The coverage at b and the validity verdict take binomial tails in
    Python floats, so neither loads numpy."""
    results, numpy_loaded = _probe(COVERAGE_PROBE).splitlines()
    assert results.split() == ["True", "True"]
    assert numpy_loaded == "False"


def test_simulate_appendix_does_not_load_dataclasses(tmp_path):
    """Every record is a named tuple, so no command loads `dataclasses`."""
    argv = ("simulate-appendix", "--mode", "fully-exact", "--q-max", "2", "--out", str(tmp_path / "grid.csv"))
    *_, status, _ = _probe(CLI_PROBE, *argv).splitlines()
    code, _, dataclasses_loaded, _ = status.split()
    assert (code, dataclasses_loaded) == ("0", "False")


def test_bpci_does_not_load_typing():
    """`typing` costs start-up, and the package imports it only for type
    checkers.  -S keeps the site hook, which may load it first, out of the run."""
    argv = ("bpci", "--n", "300", "--successes", "40", "--json")
    *_, status, _ = _probe(CLI_PROBE, *argv, flags=("-S",)).splitlines()
    assert status.split() == ["0", "False", "False", "False"]


def test_lazy_namespace():
    """Each public name is its submodule's object, resolved on first use: a
    bare import loads no submodule, and an unknown name is an AttributeError."""
    assert _probe(NAMESPACE_PROBE).split() == ["berncert"]
    for name in berncert.__all__:
        obj = getattr(berncert, name)
        assert obj.__module__.startswith("berncert.")
        assert getattr(sys.modules[obj.__module__], name) is obj
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(berncert, "no_such_name")


class TestSeededStream:
    def test_determinism(self):
        a = draw_bernoulli(SeededStream(42, 3), 0.3, 1000)
        b = draw_bernoulli(SeededStream(42, 3), 0.3, 1000)
        assert np.array_equal(a, b)

    def test_distinct_substreams(self):
        s = SeededStream(42)
        a = draw_bernoulli(s.substream(0), 0.5, 1000)
        b = draw_bernoulli(s.substream(1), 0.5, 1000)
        assert not np.array_equal(a, b)

    def test_substream_order_insensitive(self):
        s = SeededStream(7)
        first = [s.substream(i).rng().random(4).tolist() for i in range(5)]
        second = [s.substream(i).rng().random(4).tolist() for i in reversed(range(5))]
        assert first == second[::-1]

    def test_degenerate_draws(self):
        assert draw_bernoulli(SeededStream(0), 0.0, 100).sum() == 0
        assert draw_bernoulli(SeededStream(0), 1.0, 100).sum() == 100
        assert draw_bernoulli(SeededStream(0), 0.5, 0).size == 0

    def test_empirical_mean_hoeffding(self):
        # 5 sigma two-sided Hoeffding tolerance at n = 1e5
        n = 100_000
        delta = 2 * math.exp(-0.5 * 5**2)
        tol = math.sqrt(math.log(2 / delta) / (2 * n))
        mean = draw_bernoulli(SeededStream(123), 0.3, n).mean()
        assert abs(mean - 0.3) <= tol

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            draw_bernoulli(SeededStream(0), 0.5, -1)
