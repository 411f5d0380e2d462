"""Binomial proportion confidence intervals and exact coverage evaluation."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .binom import (
    SeededStream,
    binom_cdf,
    binom_pmf_vector,
    binom_sf,
    binom_tail_invert,
    check_int,
    check_level,
    check_prob,
)


@dataclass(frozen=True)
class IntervalEstimate:
    lower: float
    upper: float
    alpha: float
    n: int
    y: int

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper <= 1.0):
            raise ValueError(
                f"invalid interval [{self.lower}, {self.upper}]: endpoints must "
                "satisfy 0 <= lower <= upper <= 1"
            )

    def contains(self, b: float) -> bool:
        return self.lower <= b <= self.upper


def clopper_pearson(n: int, y: int, alpha: float) -> IntervalEstimate:
    """Exact (conservatively valid) interval by inverting the binomial tails.

    Endpoints at y=0 and y=n are pinned to 0 and 1 (one-sided convention).
    """
    n = check_int(n, "n", 1)
    y = check_int(y, "successes", 0, n)
    alpha = check_level(alpha, "alpha")
    lower = 0.0 if y == 0 else binom_tail_invert(n, y, alpha / 2, "lower")
    upper = 1.0 if y == n else binom_tail_invert(n, y, alpha / 2, "upper")
    return IntervalEstimate(lower=lower, upper=upper, alpha=alpha, n=n, y=y)


class ClopperPearson:
    """Interval estimator y -> Clopper-Pearson interval for fixed (n, alpha)."""

    def __init__(self, n: int, alpha: float):
        self.n = check_int(n, "n", 1)
        self.alpha = check_level(alpha, "alpha")
        self._cache: dict[int, IntervalEstimate] = {}

    def interval(self, y: int) -> IntervalEstimate:
        y = check_int(y, "y", 0, self.n)
        if y not in self._cache:
            self._cache[y] = clopper_pearson(self.n, y, self.alpha)
        return self._cache[y]


class FullInterval:
    """Trivial estimator returning [0, 1] for every outcome; used in tests."""

    def __init__(self, n: int, alpha: float = 0.0):
        self.n = check_int(n, "n", 1)
        self.alpha = alpha

    def interval(self, y: int) -> IntervalEstimate:
        y = check_int(y, "y", 0, self.n)
        return IntervalEstimate(lower=0.0, upper=1.0, alpha=self.alpha, n=self.n, y=y)


@dataclass
class CoverageReport:
    b: float
    coverage: float
    covering_set: frozenset[int]


def _intervals(estimator, n: int) -> list[IntervalEstimate]:
    """The estimator's intervals for y = 0..n, refused unless each is built
    for this n: the coverage at one n says nothing of an estimator for another."""
    ivs = [estimator.interval(y) for y in range(n + 1)]
    other = next((iv.n for iv in ivs if iv.n != n), None)
    if other is not None:
        raise ValueError(f"the estimator's intervals are for n = {other}, not for the n = {n} judged")
    return ivs


def coverage_probability(estimator, b: float, n: int) -> CoverageReport:
    """Exact coverage at b by enumerating all n+1 outcomes."""
    n = check_int(n, "n", 1)
    b = check_prob(b, "b")
    covering = frozenset(y for y, iv in enumerate(_intervals(estimator, n)) if iv.contains(b))
    if len(covering) == n + 1:
        coverage = 1.0  # covering every outcome is certain coverage
    else:
        pmf = binom_pmf_vector(n, b)
        coverage = min(math.fsum(pmf[y] for y in covering), 1.0)
    return CoverageReport(b=b, coverage=coverage, covering_set=covering)


@dataclass
class ValidityReport:
    valid: bool
    worst_b: float
    worst_coverage: float
    alpha: float
    n: int


def endpoint_augmented_grid(estimator, n: int, step: float = 0.001, eps: float = 1e-9) -> list[float]:
    """Uniform b-grid plus every interval endpoint +- eps.

    Coverage as a function of b is piecewise with breakpoints exactly at the
    estimator endpoints, and these points sit on and beside each of them.
    No verdict uses them: `verify_conservative_validity` is exact.
    """
    points = {round(k * step, 12) for k in range(int(round(1.0 / step)) + 1)}
    for iv in _intervals(estimator, check_int(n, "n", 1)):
        for p in (iv.lower, iv.upper):
            for q in (p - eps, p, p + eps):
                if 0.0 <= q <= 1.0:
                    points.add(q)
    points.update((0.0, 1.0))
    return sorted(points)


def _range_probability(n: int, b: float, lo: int, hi: int) -> float:
    """Pr(lo <= Y <= hi) for Y ~ Bin(n, b), from the two tails outside it."""
    if lo > hi:
        return 0.0
    return max(0.0, 1.0 - binom_cdf(n, b, lo - 1) - binom_sf(n, b, hi))


def _coverage_infimum(estimator, n: int) -> tuple[float, float]:
    """(inf of coverage over b in [0, 1], a b next to where it is approached)
    for an estimator whose endpoints are nondecreasing in y.

    Between consecutive distinct endpoints c < d (0 and 1 included) the
    covering set is fixed: {y : lower_y <= c and upper_y >= d}, which for
    monotone endpoints is the range lo..hi.  On that piece the coverage
    Pr(lo <= Y <= hi) has derivative n [pmf_{n-1}(lo - 1) - pmf_{n-1}(hi)]
    in b; the ratio of the two terms is a power of (1 - b)/b, so the sign
    changes at most once, from + to -, and the infimum on the piece is the
    smaller of its limits at c and d.  The intervals are closed, so the
    covering set at a breakpoint contains those of both pieces beside it,
    and the coverage there is at least both one-sided limits.  The smallest
    limit over all pieces is therefore the infimum over [0, 1].

    The b returned is the double next to the limiting breakpoint on the
    piece's side, where `coverage_probability` sees the piece's covering set
    and, up to rounding, the same coverage.  A piece with no double inside
    it still counts towards the infimum; its b is then its other end.
    """
    ivs = _intervals(estimator, n)
    lowers = [iv.lower for iv in ivs]
    uppers = [iv.upper for iv in ivs]
    if any(prev > nxt for ends in (lowers, uppers) for prev, nxt in zip(ends, ends[1:])):
        raise ValueError(
            "the exact validity certificate needs interval endpoints that are "
            "nondecreasing in y: only then is the covering set of each piece "
            "between endpoints a range of y, whose coverage is least at an end"
        )
    breaks = sorted({0.0, 1.0, *lowers, *uppers})
    worst_b, worst_cov = 0.0, 2.0
    for c, d in zip(breaks, breaks[1:]):
        lo = bisect_left(uppers, d)  # first y with upper_y >= d
        hi = bisect_right(lowers, c) - 1  # last y with lower_y <= c
        for end, inside in ((c, d), (d, c)):
            cov = _range_probability(n, end, lo, hi)
            if cov < worst_cov:
                worst_b, worst_cov = math.nextafter(end, inside), cov
    return worst_b, worst_cov


def verify_conservative_validity(estimator, n: int, alpha: float) -> ValidityReport:
    """Is the coverage of `estimator` at least 1 - alpha for every b?

    The verdict is exact: `worst_coverage` is the infimum of the coverage
    over b in [0, 1], found from O(n) binomial tails at the interval
    endpoints (see `_coverage_infimum`), and `worst_b` is a b at which
    `coverage_probability` reproduces it.  This needs endpoints that are
    nondecreasing in y, as those of Clopper-Pearson are, and built for this
    n; for any other estimator it raises ValueError and gives no verdict.
    """
    n = check_int(n, "n", 1)
    alpha = check_level(alpha, "alpha")
    worst_b, worst_cov = _coverage_infimum(estimator, n)
    return ValidityReport(
        valid=worst_cov >= 1.0 - alpha,
        worst_b=worst_b,
        worst_coverage=worst_cov,
        alpha=alpha,
        n=n,
    )


def pac_form_check(
    estimator, b: float, n: int, mc_trials: int, stream: SeededStream
) -> float:
    """Monte Carlo coverage: fraction of simulated calibration sets whose
    interval contains b.  Converges to the exact enumeration value."""
    n = check_int(n, "n", 1)
    b = check_prob(b, "b")
    mc_trials = check_int(mc_trials, "mc_trials", 1)
    import numpy as np

    rng = stream.rng()
    contains = np.array([iv.contains(b) for iv in _intervals(estimator, n)])
    hits = 0
    chunk = 1 << 16
    for start in range(0, mc_trials, chunk):
        m = min(chunk, mc_trials - start)
        hits += int(contains[rng.binomial(n, b, size=m)].sum())
    return hits / mc_trials
