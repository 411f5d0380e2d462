"""Tests for exact binomial computations and seeded streams."""

import math
import os
import random
import struct
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st, target
from scipy.special import betaincinv

import berncert
import berncert.binom
from berncert.binom import (
    N_MAX,
    _B_MAX,
    _B_MIN,
    _TWO_TERM_RTOL,
    SeededStream,
    _cdf_sf,
    _complement,
    _finish,
    _moved_tail,
    _pmf,
    _q2_root,
    _start,
    _two_term_root,
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
def tail_moves(draw):
    """(n, y, side, b0, b) with n <= 1e4, 2 <= y <= n - 2 at the edges or
    within 40 standard deviations of the mean, b0 from 5e-324 to 1 - 2^-53,
    and b a move from b0 of relative size 1e-12 to 1, in b0 or in 1 - b0:
    up to and past the guard of `_moved_tail`, |u| + |v| <= 2^-7."""
    n = draw(st.integers(4, 10**4))
    b0 = min(max(draw(st.one_of(
        st.floats(5e-324, 1.0 - 2.0**-53),
        st.floats(math.log(5e-324), 0.0).map(math.exp),
        st.floats(math.log(2.0**-53), 0.0).map(lambda x: 1.0 - math.exp(x)),
    )), 5e-324), 1.0 - 2.0**-53)
    mean, sd = n * b0, math.sqrt(n * b0 * (1.0 - b0))
    y = min(max(draw(st.one_of(st.sampled_from((2, n - 2)),
                               st.floats(-40.0, 40.0).map(lambda z: int(mean + z * sd)))), 2), n - 2)
    r = math.exp(draw(st.floats(math.log(1e-12), 0.0))) * draw(st.sampled_from((-1.0, 1.0)))
    b = draw(st.sampled_from((b0 + r * b0, b0 - r * (1.0 - b0))))
    return n, y, draw(st.sampled_from(("lower", "upper"))), b0, min(max(b, 5e-324), 1.0 - 2.0**-53)


# a moved tail against `_cdf_sf` at the same b, in ulps of the tail: it
# carries the error of the sum at b0, and two sums at nearby b each err by up
# to about 20 ulps near the mode at n <= 1e4; at (9793, 7344, "upper", 0.75,
# 0.7500125262755927) they err by -19.6 and +13.8 ulps against 40-digit tails,
# and the move adds 0.48 ulp to the first
MOVED_TAIL_ULPS = 64

# roots between two adjacent doubles.  (11, 6, ...) and (124, 32, 0.005) end
# on the end of a Halley step whose predicted remainder is below 2^-56 of b,
# after one tail sum and a moved tail.  The moved tail of (47, 19, ...) lands
# at the rounding floor, where it sets no bracket end, so it ends through the
# collapsed-bracket exit: the walk's anchored sums at the step's end
# 0.433091632131013 and at the double below it, after three tail sums
COLLAPSED_BRACKET_CASES = [(11, 6, 0.2716760504048823), (124, 32, 0.005), (47, 19, 0.4031792535164339)]

# ends reached through a moved tail at the rounding floor, whose sign is off
FLOOR_MOVED_CASES = [(21, 3, 0.005, "lower"), (1218, 347, 0.025, "lower")]

# upper ends of Clopper-Pearson tables whose first Halley step, from the
# two-term root in doubles, met the remainder rule but was rounded past the
# closed bracket, so that the floor walk ended them after two tail sums.
# Two-term ends now take no tail sum and never reach the walk; their ends
# are the same bits
PAST_BRACKET_CASES = [(11, 1, 0.1), (116, 1, 0.005), (498, 1, 0.1)]

# interior upper ends that reach that exit: the Halley step from the third
# iterate, a moved tail, meets the remainder rule but is rounded past the
# closed bracket, and the floor walk takes the tail one double toward the
# root, where the bracket collapses after three tail sums (four with a sum at
# every iterate).  A search of 2e5 random interior draws found these four,
# all at targets below 1e-200
INTERIOR_PAST_BRACKET_CASES = [
    (6812, 3232, 5.1794788506066185e-223), (13134, 3233, 4.3883887441118505e-262),
    (8117, 1936, 9.248566312567588e-213), (6723, 3257, 2.2712231392497096e-219),
]


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
    def test_carried_sum_near_root_is_retaken(self, n, y, t):
        """The walk judges the bracket by its own anchored sums: `_finish`
        takes no tail from the iteration, and from every bracket whose ends
        anchored tails set, and every start inside it, it returns the upper
        end by `binom_cdf` (`assert_finish_contract`).  So a moved tail
        within 1e-13 of the root in h, which sets no bracket end, cannot set
        the end returned."""
        assert_finish_contract((n, y, t, "upper"))

    @pytest.mark.parametrize("case", FLOOR_MOVED_CASES, ids=lambda case: "-".join(map(str, case)))
    def test_moved_tail_at_floor_sets_no_bracket_end(self, case):
        """A moved tail at the rounding floor sets no bracket end; the walk's
        anchored sums end the inversion on the wide side by `binom_cdf` and
        `binom_sf`.  Taking its sign returns the double on the inner side
        at each case."""
        n, y, t, side = case
        b = binom_tail_invert(*case)
        if side == "upper":
            assert binom_cdf(n, b, y) <= t <= binom_cdf(n, math.nextafter(b, 0.0), y)
        else:
            assert binom_sf(n, b, y - 1) <= t <= binom_sf(n, math.nextafter(b, 1.0), y - 1)

    @pytest.mark.parametrize(
        "n,y,t,side",
        [(10, 3, 0.025, "upper"), (10, 3, 0.025, "lower"), (200, 0, 0.005, "upper"),
         (200, 200, 0.005, "lower"), (200, 1, 0.005, "upper"), (200, 199, 0.005, "lower"),
         (256, 90, 0.3, "upper"), (256, 90, 0.3, "lower")],
    )
    def test_one_anchor_per_tail_evaluation(self, monkeypatch, n, y, t, side):
        """The slope comes from the first term of the tail sum just taken,
        and a tail moved from the last iterate's takes no sum, so the
        inversion computes no saddle-point anchor beyond those its sums
        make: at n <= 256 one per sum.  At (10, 3, 0.025, "upper") the one
        sum is the first, and the tail after the first Halley step is moved
        from it.  A closed-form root (y = 0 upper, y = n lower) and a
        two-term one (y = 1 upper, y = n - 1 lower) take neither a sum nor
        an anchor."""
        counts = count_calls(monkeypatch, berncert.binom, "_cdf_sf", "_pmf")
        binom_tail_invert(n, y, t, side)
        if y in ((0, 1) if side == "upper" else (n, n - 1)):
            assert counts["_cdf_sf"] == 0
        else:
            assert counts["_cdf_sf"] > 0
        assert counts["_pmf"] == counts["_cdf_sf"]
        if (n, y, t, side) == (10, 3, 0.025, "upper"):
            assert counts["_cdf_sf"] == 1

    @given(move=tail_moves())
    @settings(max_examples=500, derandomize=True)
    def test_moved_tail(self, move):
        """Where `_moved_tail` admits a move, the tail it takes from the
        tail and pmf_n(y) at b0 lies within MOVED_TAIL_ULPS ulps of `_cdf_sf`
        at b, and its pmf_n(y) within 8 ulps of `_pmf` at b.  Against
        40-digit tails the move itself adds at most 0.51 ulp, its final
        rounding included (6115 admitted moves of a seeded draw at n <=
        3000); the rest is the two sums' own error.  No move raises: the
        guard keeps the logs off -1."""
        n, y, side, b0, b = move
        upper = side == "upper"
        j = y if upper else y - 1
        tail0 = _cdf_sf(n, b0, j)[0 if upper else 1]
        moved = _moved_tail(n, y, upper, b0, tail0, _pmf(n, y, b0, *_complement(b0)), b)
        if moved is not None:
            tail, p = moved
            want_tail, want_p = _cdf_sf(n, b, j)[0 if upper else 1], _pmf(n, y, b, *_complement(b))
            target(abs(tail - want_tail) / math.ulp(want_tail), label="tail ulps")
            assert abs(tail - want_tail) <= MOVED_TAIL_ULPS * math.ulp(want_tail), (move, tail, want_tail)
            assert abs(p - want_p) <= 8 * math.ulp(want_p), (move, p, want_p)

    def test_seeded_sweep_converges(self):
        """2000 random cases, each inverted without ArithmeticError.  A
        collapsed bracket is rare (about 1 case in 3e4 at n <= 300 and
        Clopper-Pearson targets); the seed is one whose cases hold one,
        (47, 19, 0.4031792535164339, "upper")."""
        for case in seeded_sweep_cases():
            assert 0.0 <= binom_tail_invert(*case) <= 1.0


def seeded_sweep_cases():
    """2000 (n, y, target, side) with n <= 300 and the target 0.005, 0.025 or
    uniform in (0, 1), a third each."""
    rng = random.Random(45)
    for _ in range(2000):
        n = rng.randint(1, 300)
        side = rng.choice(("lower", "upper"))
        y = rng.randint(1, n) if side == "lower" else rng.randint(0, n - 1)
        yield n, y, rng.choice((0.005, 0.025, rng.random())), side


def bpci_pool_cases(rounds=64):
    """(n, y, alpha) of `rounds` rounds of Clopper-Pearson calls in the bpci
    benchmark's strata: per round 8 n spread over [10, 30], 8 spread
    log-uniformly over [31, 400] and 4 over [400, 3000], each stratum a
    Latin hypercube; y in turn 0, 1, n - 1, n or a binomial draw (the last
    stratum 1, n - 1 or a draw, which need two inversions), and alpha 0.05
    or 0.01."""
    rng = np.random.default_rng(29)
    strata = ((10, 30, 8, False, ("0", "1", "n-1", "n") + ("draw",) * 4),
              (31, 400, 8, True, ("0", "1", "n-1", "n") + ("draw",) * 4),
              (400, 3000, 4, True, ("1", "draw", "n-1", "draw")))
    for r in range(rounds):
        for low, high, slots, log, kinds in strata:
            u = (np.arange(slots) + rng.random(slots)) / slots
            for i, n in enumerate(np.rint(low * (high / low) ** u if log else low + (high - low) * u)):
                n, kind = int(n), kinds[(i + r) % len(kinds)]
                b = (0.02, 0.1, 0.3, 0.5, 0.8, 0.95)[(i + 2 * r) % 6]
                y = int(rng.binomial(n, b)) if kind == "draw" else {"0": 0, "1": 1, "n-1": n - 1, "n": n}[kind]
                yield n, y, (0.05, 0.01)[rng.integers(2)]


# (y, side) as functions of n where the tail has a closed-form root in b
EXACT_STARTS = {
    "upper y=0": (lambda n: 0, "upper"),  # (1 - b)^n = t
    "lower y=n": (lambda n: n, "lower"),  # b^n = t
    "lower y=1": (lambda n: 1, "lower"),  # (1 - b)^n = 1 - t
    "upper y=n-1": (lambda n: n - 1, "upper"),  # b^n = 1 - t
}


def mp_closed_form_root(n, y, t, side):
    """The root of a closed-form kind at 60 digits: -expm1(log t / n) at
    (upper, y = 0), exp(log t / n) at (lower, y = n), exp(log(1 - t) / n)
    at (upper, y = n - 1) and -expm1(log(1 - t) / n) at (lower, y = 1)."""
    at_end = y in (0, n)
    with mp.workdps(60):
        v = (mp.log(t) if at_end else mp.log1p(-mp.mpf(t))) / n
        return -mp.expm1(v) if (side == "upper") == at_end else mp.exp(v)


def closed_form_targets():
    """Targets of the closed-form checks: 0.025 and 0.005, uniform on
    (1e-12, 1/2), and log-uniform over (1e-300, 1/2)."""
    return st.one_of(
        st.sampled_from((0.025, 0.005)),
        st.floats(1e-12, 0.5, exclude_min=True),
        st.floats(math.log(1e-300), math.log(0.5), exclude_min=True).map(lambda u: min(math.exp(u), 0.5)),
    )


def seeded_closed_form_cases(count=6000):
    """`count` (n, y, target, side) of the four closed-form kinds, with n
    log-uniform up to 1e6 and the target drawn as `closed_form_targets`."""
    rng = random.Random(27)
    kinds = list(EXACT_STARTS.values())
    for _ in range(count):
        n = int(10 ** rng.uniform(0.0, 6.0))
        y_of, side = rng.choice(kinds)
        uniform = rng.uniform(1e-12, 0.5)
        t = rng.choice((0.025, 0.005, uniform, min(math.exp(rng.uniform(math.log(1e-300), math.log(0.5))), 0.5)))
        yield n, y_of(n), t, side


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

# lower ends at q = 2 that took 7 tail sums from Paulson's start
Q2_COST_CASES = [(113, 2, 0.005), (131, 2, 0.005)]

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
        """These two-term ends, which the floor walk once ended after two
        tail sums, are still the wide-side end by `binom_cdf`, and now take
        none (`TestTwoTermEnds`)."""
        b, sums = self.invert(counts, n, y, t, "upper")
        assert binom_cdf(n, b, y) <= t <= binom_cdf(n, math.nextafter(b, 0.0), y)
        assert sums <= 2

    @pytest.mark.parametrize("n,y,t", INTERIOR_PAST_BRACKET_CASES)
    def test_interior_converged_step_past_bracket(self, counts, n, y, t):
        """A step that meets the remainder rule but is rounded past the
        bracket enters the floor walk: the wide-side end, by `binom_cdf`,
        after at most four tail sums."""
        b, sums = self.invert(counts, n, y, t, "upper")
        assert binom_cdf(n, b, y) <= t <= binom_cdf(n, math.nextafter(b, 0.0), y)
        assert sums <= 4

    def test_seeded_sweep(self, counts):
        sums = [self.invert(counts, *case)[1] for case in seeded_sweep_cases()]
        assert max(sums) <= 12
        assert sum(sums) / len(sums) <= 3.6

    def test_seeded_sweep_anchors(self):
        """After the first sum the tail is moved from the last iterate's
        (`_moved_tail`), so the sweep takes 1.44 tail sums per inversion, and
        as many saddle-point anchors, one per sum at n <= 300 (1.37 when a
        sum after a long step carried its first term from the last sum's).
        With a sum at every iterate it took 2.02 anchors and 2.28 sums;
        before Paulson's start and the remainder stop, 2.98 tail sums, and
        2.29 with a sum to confirm each two-term root."""
        sums, anchors, _ = inversion_cost(seeded_sweep_cases())
        assert anchors <= 1.5
        assert sums <= 1.6

    def test_clopper_pearson_tables(self):
        """The inversions of the `ClopperPearson(n, alpha)` tables at n = 30
        and 31, alpha = 0.05 and 0.01: most interior endpoints take one tail
        sum, at their start, and the tail after the first Halley step is
        moved from it; the ends with a closed-form or two-term root take
        none (1.25 per inversion; 1.91 with a sum after the first step, 1.94
        with a sum to confirm each two-term root, 2.01 with one to confirm
        each closed form too, 3.06 with a Wilson start and a sum to confirm
        the last step)."""
        cases = [(n, y, alpha / 2, side) for n in (30, 31) for alpha in (0.05, 0.01)
                 for y in range(n + 1) for side in ("lower", "upper") if y != (0 if side == "lower" else n)]
        assert inversion_cost(cases)[0] <= 1.4

    def test_bpci_pool(self):
        """Clopper-Pearson calls in the bpci benchmark's strata: those at y
        in {0, 1, n - 1, n}, whose two ends each have a closed-form or
        two-term root, take no tail sum (0.58 each with a sum to confirm each
        two-term root), and the interior calls at most 3.2 each (2.96 here,
        3.05 on the benchmark's own pool, seed 1; 4.55 and 4.70 with a sum
        after the first Halley step)."""
        edge, interior = [], []
        with pytest.MonkeyPatch.context() as patch:
            counts = count_calls(patch, berncert.binom, "_cdf_sf")
            for n, y, alpha in bpci_pool_cases():
                before = counts["_cdf_sf"]
                clopper_pearson(n, y, alpha)
                (edge if y in (0, 1, n - 1, n) else interior).append(counts["_cdf_sf"] - before)
        assert max(edge) == 0
        assert sum(interior) / len(interior) <= 3.2

    @pytest.mark.parametrize("n", [2, 10, 1000, 10**6, N_MAX])
    @pytest.mark.parametrize("case", EXACT_STARTS)
    def test_exact_start(self, counts, n, case):
        """Where the tail has a closed-form root the inversion returns it,
        solved in double-double, and takes no tail sum."""
        y_of, side = EXACT_STARTS[case]
        y, t = y_of(n), 0.025
        b, sums = self.invert(counts, n, y, t, side)
        assert sums == 0
        ref = betaincinv(y + 1, n - y, 1 - t) if side == "upper" else betaincinv(y, n - y + 1, t)
        assert abs(b - ref) <= 1e-12 * ref
        root = mp_closed_form_root(n, y, t, side)
        assert abs(b - root) <= 2 * math.ulp(float(root))

    @pytest.mark.parametrize("n", [3, 10, 1000, 10**6, N_MAX])
    @pytest.mark.parametrize("case", TWO_TERM_STARTS)
    def test_two_term_start(self, counts, n, case):
        """Where the tail has two terms the inversion returns their root,
        refined by one double-double Newton step and rounded to the wide
        side, and takes no tail sum."""
        y_of, side = TWO_TERM_STARTS[case]
        y, t = y_of(n), 0.025
        b, sums = self.invert(counts, n, y, t, side)
        assert sums == 0
        a, c = (y + 1, n - y) if side == "upper" else (y, n - y + 1)
        ref = polished_beta_quantile(a, c, t, side == "upper")
        assert abs(b - ref) <= RTOL * ref
        assert_two_term_end((n, y, t, side), b)

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

    @pytest.mark.parametrize("n,y,t", Q2_COST_CASES)
    def test_q2_start(self, counts, n, y, t):
        """From the root of the q = 2 equation the first Halley step meets
        the remainder rule: one tail sum, where Paulson's start, 26% off,
        took 7."""
        b, sums = self.invert(counts, n, y, t, "lower")
        assert sums <= 1
        root = mp_tail_root(n, y, t, "lower", b)
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
    @example(case=(380, 42, 0.4873610767136191, "upper"))  # a normal tail flat over one double
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


# (case, end): at the first four the root lies past the double next to 0 or 1,
# and the end is the boundary that widens the interval; the fifth root is
# sqrt(5e-324), whose target is subnormal; the last root, about 3.29e-324, is
# nearest to 5e-324, on its inner side, and the end is the double below it
CLOSED_FORM_EXTREMES = [
    ((2**53, 2**53, 0.5, "lower"), 1.0 - 2.0**-53),
    ((3, 1, 5e-324, "lower"), 0.0),
    ((1, 0, 1e-300, "upper"), 1.0),
    ((2, 1, 1e-300, "upper"), 1.0),
    ((2, 2, 5e-324, "lower"), 2.2227587494850775e-162),
    ((3, 1, 1e-323, "lower"), 0.0),
]


class TestClosedFormEnds:
    """At y = 0 and n - 1 (upper) and at y = 1 and n (lower) the tail has a
    closed-form root, solved in double-double with no tail sum."""

    @staticmethod
    def check(cases):
        """Each inversion within 2 ulps of the 60-digit root, with no tail
        sum and no saddle-point anchor taken."""
        with pytest.MonkeyPatch.context() as patch:
            counts = count_calls(patch, berncert.binom, "_cdf_sf", "_pmf")
            ends = [(case, binom_tail_invert(*case)) for case in cases]
        assert counts == {"_cdf_sf": 0, "_pmf": 0}
        for case, b in ends:
            root = mp_closed_form_root(*case)
            assert abs(b - root) <= 2 * math.ulp(float(root)), (case, b, float(root))

    def test_seeded_accuracy_and_cost(self):
        self.check(seeded_closed_form_cases())

    @given(n=st.integers(1, 10**6), kind=st.sampled_from(sorted(EXACT_STARTS)), t=closed_form_targets())
    @settings(max_examples=300)
    def test_accuracy_and_cost(self, n, kind, t):
        y_of, side = EXACT_STARTS[kind]
        self.check([(n, y_of(n), t, side)])

    @pytest.mark.parametrize("case,end", CLOSED_FORM_EXTREMES,
                             ids=["-".join(map(str, case)) for case, _ in CLOSED_FORM_EXTREMES])
    def test_extremes(self, case, end):
        """Where the root lies past the double next to 0 or 1, the end that
        widens the interval, as the tail-sum path returned before the closed
        form, with +0.0 and not -0.0; at (2, 2, 5e-324, "lower") the
        correctly rounded root, where that path was about 10 ulps off."""
        b = binom_tail_invert(*case)
        assert b == end and math.copysign(1.0, b) == 1.0

    def test_seeded_subnormal_roots(self):
        """Each end whose root is subnormal lies on the wide side of the
        60-digit root, and within two ulps of it, with no tail sum and no
        saddle-point anchor taken."""
        with pytest.MonkeyPatch.context() as patch:
            counts = count_calls(patch, berncert.binom, "_cdf_sf", "_pmf")
            ends = [(case, binom_tail_invert(*case)) for case in seeded_subnormal_root_cases()]
        assert counts == {"_cdf_sf": 0, "_pmf": 0}
        for case, b in ends:
            root = mp_closed_form_root(*case)
            assert root < 2.0**-1022, case
            assert root - 2 * math.ulp(0.0) <= b <= root, (case, b, float(root))


def seeded_subnormal_root_cases(count=2000):
    """`count` lower ends at y = 1 whose root, about t / n, is subnormal: n
    log-uniform up to 2^53, or 1, where the root is t itself, and the
    target log-uniform from 5e-324 to n 2^-1023."""
    rng = random.Random(28)
    for _ in range(count):
        n = 1 if rng.random() < 0.1 else int(2.0 ** rng.uniform(0.0, 53.0))
        t = math.exp(rng.uniform(math.log(5e-324), math.log(min(0.5, n * 2.0**-1023))))
        yield n, 1, max(t, 5e-324), "lower"


def trial_counts():
    """n from 3 to 2^53: its ends, uniform, and log-uniform."""
    return st.one_of(st.sampled_from((3, 4, N_MAX - 1, N_MAX)), st.integers(3, N_MAX),
                     st.floats(math.log(3.0), math.log(N_MAX)).map(lambda x: min(max(int(math.exp(x)), 3), N_MAX)))


def mp_two_term_log_root(n, log_t, start):
    """log c for the root c of (1 - c)^(n - 1) (1 + (n - 1) c) = e^log_t at
    60 digits, by Newton's method in log c from a start near it."""
    with mp.workdps(60):
        m, u, log_t = mp.mpf(n - 1), mp.mpf(start), mp.mpf(log_t)
        for _ in range(60):
            c, q = mp.exp(u), -mp.expm1(u)
            step = (m * mp.log(q) + mp.log1p(m * c) - log_t) * q * (1 + m * c) / (n * m * c * c)
            u += step
            if abs(step) <= mp.mpf(10) ** -45 * min(1, abs(u)):
                return u
    raise ArithmeticError(f"no 60-digit two-term root for {(n, log_t)}")


class TestTwoTermRoot:
    """Newton's method in log c from the one start 1 - (t / n)^(1 / (n - 1)),
    which lies at or right of the root, with no bracket."""

    @given(n=trial_counts(), log_t=st.floats(math.log(5e-324), math.log(0.5)))
    @settings(max_examples=300)
    def test_accuracy(self, n, log_t):
        """No draw raises, and c and 1 - c each lie within `_TWO_TERM_RTOL`
        of the 60-digit root (2.7e-14 at worst over 15 000 seeded draws)."""
        u = _two_term_root(n, log_t)
        root = mp_two_term_log_root(n, log_t, u)
        with mp.workdps(60):
            for got, want in ((math.exp(u), mp.exp(root)), (-math.expm1(u), -mp.expm1(root))):
                assert abs(got - want) <= _TWO_TERM_RTOL * want, (n, log_t, got, float(want))


def mp_two_term_end_root(n, y, t, side):
    """The root b of a case that is, or a target above 1/2 flips onto, a
    two-term kind (y = 1 upper, y = n - 1 lower), at 60 digits.  The log of
    the target is taken at 60 digits too: a log rounded to a double would
    move the root by up to about 0.4 ulp."""
    upper = side == "upper"
    with mp.workdps(60):
        t = mp.mpf(t)
        if t > 0.5:  # the flip binom_tail_invert makes, exact: 1 - t is a double
            y, upper, t = y + 1 if upper else y - 1, not upper, 1 - t
        assert y == (1 if upper else n - 1), (n, y, side)
        log_t = mp.log(t)
        u = mp_two_term_log_root(n, log_t, _two_term_root(n, float(log_t)))
        return mp.exp(u) if upper else -mp.expm1(u)


def assert_two_term_end(case, b):
    """b lies on the wide side of the 60-digit root and within 2 ulps of it;
    where the root lies past the double next to 1, b is 1.0, the end of that
    last gap that widens the interval."""
    root = mp_two_term_end_root(*case)
    wide_hi = case[3] == "upper"
    if root > 1.0 - 2.0**-53:
        assert wide_hi and b == 1.0, (case, b)
    else:
        assert (b >= root) if wide_hi else (b <= root), (case, b, float(root))
        assert abs(b - root) <= 2 * math.ulp(float(root)), (case, b, float(root))


# the two kinds with a two-term tail, and the two that a target above 1/2 flips onto them
TWO_TERM_KINDS = ("upper y=1", "lower y=n-1", "lower y=2, 1 - t", "upper y=n-2, 1 - t")


def two_term_case(n, t, kind):
    """(n, y, target, side) of `kind` at a target t <= 1/2, or for the
    flipped kinds at 1 - t, with t first clamped to [2^-53, 0.4999] so that
    1/2 < 1 - t < 1."""
    y, side = {"upper y=1": (1, "upper"), "lower y=n-1": (n - 1, "lower"),
               "lower y=2, 1 - t": (2, "lower"), "upper y=n-2, 1 - t": (n - 2, "upper")}[kind]
    if kind.endswith("1 - t"):
        t = 1.0 - min(max(t, 2.0**-53), 0.4999)
    return n, y, t, side


def seeded_two_term_cases(count=2000):
    """`count` cases of `TWO_TERM_KINDS`, with n log-uniform on [3, 2^53] and
    the target log-uniform from 5e-324 to 1/2."""
    rng = random.Random(29)
    for _ in range(count):
        n = min(max(int(math.exp(rng.uniform(math.log(3.0), math.log(N_MAX)))), 3), N_MAX)
        t = max(math.exp(rng.uniform(math.log(5e-324), math.log(0.5))), 5e-324)
        yield two_term_case(n, t, rng.choice(TWO_TERM_KINDS))


# subnormal targets, where the tail-sum path left relative errors of 2.1e-9,
# 1.6e-9 and 1.07e-12
TWO_TERM_SUBNORMAL_TARGETS = [
    (1320, 1, 2.370754e-318, "upper"), (1320, 1319, 2.370754e-318, "lower"), (122, 121, 3.8075639915e-314, "lower"),
]

# roots past the double next to 1: 1 - b is about (t / n)^(1 / (n - 1)), below 2^-54
TWO_TERM_PAST_LAST_DOUBLE = [(3, 1, 1e-40, "upper"), (4, 1, 1e-60, "upper"), (3, 1, 5e-324, "upper")]


class TestTwoTermEnds:
    """At y = 1 (upper) and y = n - 1 (lower) the end is the two-term root,
    refined by one double-double Newton step and rounded to the wide side,
    with no tail sum."""

    @staticmethod
    def check(cases):
        """Each end on the wide side of the 60-digit root and within 2 ulps
        of it, with no tail sum and no saddle-point anchor taken."""
        with pytest.MonkeyPatch.context() as patch:
            counts = count_calls(patch, berncert.binom, "_cdf_sf", "_pmf")
            ends = [(case, binom_tail_invert(*case)) for case in cases]
        assert counts == {"_cdf_sf": 0, "_pmf": 0}
        for case, b in ends:
            assert_two_term_end(case, b)

    def test_seeded_accuracy_and_cost(self):
        self.check(seeded_two_term_cases())

    @given(n=trial_counts(), log_t=st.floats(math.log(5e-324), math.log(0.5)), kind=st.sampled_from(TWO_TERM_KINDS))
    @settings(max_examples=300)
    def test_accuracy_and_cost(self, n, log_t, kind):
        self.check([two_term_case(n, max(math.exp(log_t), 5e-324), kind)])

    @pytest.mark.parametrize("case", TWO_TERM_SUBNORMAL_TARGETS, ids=lambda case: "-".join(map(str, case)))
    def test_subnormal_target(self, case):
        assert_two_term_end(case, binom_tail_invert(*case))

    @pytest.mark.parametrize("case", TWO_TERM_PAST_LAST_DOUBLE, ids=lambda case: "-".join(map(str, case)))
    def test_past_last_double(self, case):
        """The upper end 1.0, as the tail-sum path returned (`check` asserts it)."""
        self.check([case])


def mp_q2_root(n, t, start):
    """The root c of 1 - (1 - c)^(n - 1) (1 + (n - 1) c) = t at 60 digits,
    by Newton's method in log c from a start near it.  The two logs of the
    product cancel to about (n c)^2 / 2 of their size, and n c is near
    sqrt(2 t), so the working precision grows by half the digits of 1 / t."""
    with mp.workdps(70 + int(-math.log10(t) / 2)):
        m, u = mp.mpf(n - 1), mp.log(start)
        log_t = mp.log(-mp.log1p(-mp.mpf(t)))
        for _ in range(60):
            c = mp.exp(u)
            g = -(m * mp.log1p(-c) + mp.log1p(m * c))
            step = (log_t - mp.log(g)) * (1 - c) * (1 + m * c) * g / (m * n * c * c)
            u += step
            if abs(step) <= mp.mpf(10) ** -45:
                return mp.exp(u)
    raise ArithmeticError(f"no 60-digit q = 2 root for {(n, t)}")


# the two kinds with beta parameter q = 2, and the two that a target above 1/2 flips onto them
Q2_KINDS = ("lower y=2", "upper y=n-2", "upper y=1, 1 - t", "lower y=n-1, 1 - t")


def q2_case(n, t, kind):
    """(n, y, target, side) of `kind` at a target t <= 1/2, or for the
    flipped kinds at 1 - t, with t first clamped to [2^-53, 0.4999] so that
    1/2 < 1 - t < 1."""
    y, side = {"lower y=2": (2, "lower"), "upper y=n-2": (n - 2, "upper"),
               "upper y=1, 1 - t": (1, "upper"), "lower y=n-1, 1 - t": (n - 1, "lower")}[kind]
    if kind.endswith("1 - t"):
        t = 1.0 - min(max(t, 2.0**-53), 0.4999)
    return n, y, t, side


def seeded_q2_cases(count=2000):
    """`count` cases of `Q2_KINDS`, with n log-uniform on [3, 2^53], a fifth
    of them up to 100, and the target log-uniform from 5e-324 to 1/2."""
    rng = random.Random(30)
    for _ in range(count):
        top = 100.0 if rng.random() < 0.2 else float(N_MAX)
        n = min(max(int(math.exp(rng.uniform(math.log(3.0), math.log(top)))), 3), N_MAX)
        t = max(math.exp(rng.uniform(math.log(5e-324), math.log(0.5))), 5e-324)
        yield q2_case(n, t, rng.choice(Q2_KINDS))


class _FirstSum(Exception):
    """Raised in place of an inversion's first tail sum, with its b."""


def inversion_start(case):
    """The b at which binom_tail_invert(*case) takes its first tail sum: its
    start, clamped to the doubles next to 0 and 1.  No sum is taken."""
    def first_sum(n, b, j):
        raise _FirstSum(b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(berncert.binom, "_cdf_sf", first_sum)
        try:
            binom_tail_invert(*case)
        except _FirstSum as start:
            return start.args[0]
    raise AssertionError(f"{case} took no tail sum")


class TestQ2Start:
    """At y = 2 (lower) and y = n - 2 (upper) the tail is 1 minus a two-term
    tail, and the inversion starts from that equation's root in doubles."""

    @staticmethod
    def check(case):
        """`_q2_root` within 1e-10 of the 60-digit root (7e-14 at worst), and
        the inversion's start its c (lower) or 1 - c (upper), clamped; at
        n = 3 the kinds are two-term and start nowhere."""
        n, y, t, side = case
        upper = side == "upper"
        if t > 0.5:  # the flip binom_tail_invert makes
            y, upper, t = y + 1 if upper else y - 1, not upper, 1.0 - t
        assert y == (n - 2 if upper else 2), case
        c = _q2_root(n, t)
        root = mp_q2_root(n, t, c)
        assert abs(c - root) <= 1e-10 * root, (case, c, float(root))
        if n >= 4:
            assert inversion_start(case) == min(max(1.0 - c if upper else c, 5e-324), 1.0 - 2.0**-53), case

    def test_seeded(self):
        for case in seeded_q2_cases():
            self.check(case)

    @given(n=trial_counts(), log_t=st.floats(math.log(5e-324), math.log(0.5)), kind=st.sampled_from(Q2_KINDS))
    @settings(max_examples=300)
    def test_accuracy(self, n, log_t, kind):
        self.check(q2_case(n, max(math.exp(log_t), 5e-324), kind))


@st.composite
def start_cases(draw):
    """(n, y, target, upper) of an interior inversion on the side it solves:
    n from 4 to 2^53, 2 <= y <= n - 2 weighted to the ends, where the start
    is `_q2_root`'s, and the target at 1/2, either side of 1e-6, where
    Paulson's start gives way to Wilson's, at 5e-324, or log-uniform between."""
    n = draw(st.one_of(st.sampled_from((4, 5, N_MAX)), st.integers(4, 100),
                       st.floats(math.log(4.0), math.log(N_MAX)).map(lambda x: min(max(int(math.exp(x)), 4), N_MAX))))
    y = draw(st.one_of(st.sampled_from((2, n - 2)), st.integers(2, n - 2)))
    t = draw(st.one_of(st.sampled_from((0.5, 1e-6, math.nextafter(1e-6, 0.0), 5e-324)),
                       st.floats(math.log(5e-324), math.log(0.5)).map(lambda x: min(max(math.exp(x), 5e-324), 0.5))))
    return n, y, t, draw(st.booleans())


class TestStart:
    @given(case=start_cases())
    @settings(max_examples=500)
    def test_double_in_range(self, case):
        """Every interior start, from `_q2_root`, Paulson or Wilson, is a
        double in [`_B_MIN`, `_B_MAX`]: not NaN, infinite or out of range
        (none of 2e5 seeded draws was)."""
        b = _start(*case)
        assert type(b) is float and _B_MIN <= b <= _B_MAX, (case, b)


def assert_wide_side(case, b):
    """b is the end that widens the interval, by `binom_cdf` (upper) or
    `binom_sf` (lower): the tail crosses the target between b and the
    double next to it on the inner side."""
    n, y, t, side = case
    if side == "upper":
        assert binom_cdf(n, b, y) <= t <= binom_cdf(n, math.nextafter(b, 0.0), y), (case, b)
    else:
        assert binom_sf(n, b, y - 1) <= t <= binom_sf(n, math.nextafter(b, 1.0), y - 1), (case, b)


def ordinal(x):
    """The place of a double x >= 0 in the order of the doubles: its bit
    pattern read as an integer."""
    return struct.unpack("<q", struct.pack("<d", x))[0]


def from_ordinal(i):
    """The double at place i, clamped to [0, 1]."""
    return struct.unpack("<d", struct.pack("<q", min(max(i, 0), ordinal(1.0))))[0]


# the most tail sums `_finish` takes from any start in any bracket in [0, 1]:
# 8 one double apart, one more, then 62 bisections of fewer than 2^62 doubles
FINISH_SUMS = 71


def assert_finish_contract(case):
    """From every bracket around the root of `case` whose ends anchored
    tails set, and from six starts inside it, `_finish` returns the end that
    widens the interval (`assert_wide_side`), in at most FINISH_SUMS sums.
    The bracket ends lie 0, 1, 2^10, 2^30 or 2^50 doubles out from the
    collapsed bracket at the root, on either side, or at 0 and 1; an end
    whose tail equals the target, or lies on the wrong side of it by the
    tail's rounding, sets no bracket end and is left out.  The starts are
    the doubles next to either end, next to the root on either side, and
    the midpoints in value and in the order of the doubles."""
    n, y, t, side = case
    upper = side == "upper"
    wide = binom_tail_invert(*case)
    assert_wide_side(case, wide)
    inner = math.nextafter(wide, 0.0 if upper else 1.0)
    below, above = (inner, wide) if upper else (wide, inner)
    j = y if upper else y - 1
    ends = {0.0: True, 1.0: False}  # b -> whether it is a lower end
    for k in (0, 1, 2**10, 2**20, 2**30, 2**40, 2**50):
        for b, low in ((from_ordinal(ordinal(below) - k), True), (from_ordinal(ordinal(above) + k), False)):
            tail = binom_cdf(n, b, y) if upper else binom_sf(n, b, j)
            if 0.0 < b < 1.0 and tail != t and ((tail > t) == upper) == low:
                ends[b] = low
    walks = []
    with pytest.MonkeyPatch.context() as patch:
        counts = count_calls(patch, berncert.binom, "_cdf_sf")
        for lo in (b for b, low in ends.items() if low):
            for hi in (b for b, low in ends.items() if not low):
                starts = {math.nextafter(lo, 1.0), math.nextafter(hi, 0.0), below, above, 0.5 * (lo + hi),
                          from_ordinal((ordinal(lo) + ordinal(hi)) // 2)}
                for b in sorted(b for b in starts if lo < b < hi):
                    before = counts["_cdf_sf"]
                    end = _finish(n, j, t, upper, upper, lo, hi, b)
                    walks.append(((lo, hi, b), end, counts["_cdf_sf"] - before))
    assert len(ends) >= 6, case  # four ends or more besides 0 and 1
    for start, end, sums in walks:
        assert_wide_side(case, end)
        assert sums <= FINISH_SUMS, (case, start, sums)


# interior ends at subnormal targets that raised ArithmeticError before the
# walk bisected on a stalled tail: near each root the anchored tail, a
# multiple of 2^-1074, stays the same for millions of doubles, and a walk of
# one double a step ran out of its 200 steps
SUBNORMAL_WALK_CASES = [
    (2931, 2564, 6.601275e-318, "lower"), (1835, 1602, 2.149e-320, "lower"), (683, 573, 7.919e-320, "lower"),
    (706, 170, 1.077e-321, "upper"), (452, 427, 2.40847e-318, "lower"),
]

# lower ends with y = 2 whose roots lie near 1e-153 and 3e-102
TINY_ROOT_CASES = [(1000, 2, 1e-300, "lower"), (50, 2, 1e-200, "lower")]

# the most tail sums of an inversion at a subnormal target: FINISH_SUMS, and 8
# before the walk, the bound `TestTailInvertCost.test_stress` states at normal targets
SUBNORMAL_SUMS = FINISH_SUMS + 8


def seeded_subnormal_interior_cases(count=4000):
    """`count` interior (n, y, target, side), with n log-uniform on [4, 1e4],
    2 <= y <= n - 2 and the target log-uniform on [5e-324, 2^-1022): subnormal."""
    rng = random.Random(31)
    for _ in range(count):
        n = int(math.exp(rng.uniform(math.log(4.0), math.log(1e4))))
        t = max(math.exp(rng.uniform(math.log(5e-324), math.log(2.0**-1022))), 5e-324)
        yield n, rng.randint(2, n - 2), t, rng.choice(("lower", "upper"))


class TestFloorWalk:
    """`_finish`: the walk on anchored tails to a collapsed bracket, which
    bisects once a subnormal tail stalls or after 8 steps of one double."""

    @pytest.mark.parametrize("case", SUBNORMAL_WALK_CASES, ids=lambda case: "-".join(map(str, case)))
    def test_subnormal_target(self, case):
        """The end that widens the interval, in 17 to 38 tail sums, and
        `_finish` keeps its contract around each root.  The walk's second
        sum, one double on, stalls, and it bisects from there; without the
        stall rule it took 8 steps of one double first, and 24 to 45 sums."""
        with pytest.MonkeyPatch.context() as patch:
            counts = count_calls(patch, berncert.binom, "_cdf_sf")
            b = binom_tail_invert(*case)
        assert_wide_side(case, b)
        assert counts["_cdf_sf"] <= 38
        assert_finish_contract(case)

    @pytest.mark.parametrize("case", TINY_ROOT_CASES, ids=lambda case: "-".join(map(str, case)))
    def test_tiny_root(self, case):
        """`_finish` keeps its contract where the root is near 1e-153 or
        3e-102, from brackets as wide as [0, 1]: a bisection in value would
        take about 560 or 390 halvings there, one in the order of the
        doubles at most 62."""
        assert_finish_contract(case)

    def test_seeded_subnormal_targets(self):
        """No inversion raises, each takes at most SUBNORMAL_SUMS tail sums
        (68 at worst here, 7.4 in the mean), and each ends on the wide side
        by `binom_cdf` or `binom_sf`.  At a subnormal target the tail is a
        multiple of 2^-1074, too coarse to trust a converged Halley step, so
        `_iterate` hands every such step to the walk: 1901 of these 4000 end
        there.  Returning the step's end, as at normal targets, put 790 ends
        on the inner side (3.3 sums in the mean, 47 at worst).  Before the
        walk bisected on a stalled tail, 8 of these 4000 raised
        ArithmeticError.  The walk itself takes at most FINISH_SUMS, which
        `_finish` derives; the rest is `_iterate`, whose bisections on tails
        this coarse took up to 47 sums here and 53 over 4e4 draws."""
        finish, walked, rows = berncert.binom._finish, [], []

        def recorded(*args):
            walked.append(args)
            return finish(*args)

        with pytest.MonkeyPatch.context() as patch:
            counts = count_calls(patch, berncert.binom, "_cdf_sf")
            patch.setattr(berncert.binom, "_finish", recorded)
            for case in seeded_subnormal_interior_cases():
                before = counts["_cdf_sf"]
                rows.append((case, binom_tail_invert(*case), counts["_cdf_sf"] - before))
        assert max(sums for _, _, sums in rows) <= SUBNORMAL_SUMS
        assert len(walked) >= 1000
        for case, b, _ in rows:
            assert_wide_side(case, b)


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

    def test_random_pinned(self):
        """The standard-library stream is `random.Random` seeded with both
        64-bit words side by side, so its uniforms are the same on every
        Python release."""
        assert SeededStream(42, 3).random().random() == 0.7541903711928805
        assert SeededStream(42, 3).random().getstate() == random.Random(42 << 64 | 3).getstate()
        assert SeededStream(-1, 2**64 + 5).random().getstate() == SeededStream(2**64 - 1, 5).random().getstate()

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
