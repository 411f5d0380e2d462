"""Binomial proportion confidence intervals and exact coverage evaluation."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import namedtuple

from .binom import (
    N_MAX,
    SeededStream,
    _range_probability,
    _real,
    binom_pmf_vector,  # not called: perfbench's tracer wraps it here (tests/test_tracer.py)
    binom_tail_invert,
    check_int,
    check_level,
    check_prob,
)


def _check_ends(lower: float, upper: float, what: str) -> None:
    # each end read as `check_prob` reads a probability: text or None is NaN, and refused
    lo = lower if type(lower) is float else _real(lower)
    hi = upper if type(upper) is float else _real(upper)
    if not (0.0 <= lo <= hi <= 1.0):
        raise ValueError(f"invalid {what} [{lower!r}, {upper!r}]: endpoints must satisfy 0 <= lower <= upper <= 1")


class IntervalEstimate(namedtuple("IntervalEstimate", "lower upper alpha n y")):
    """[lower, upper] for b from y successes in n trials at level alpha: a
    named tuple whose endpoints are checked when it is made."""

    __slots__ = ()

    def __new__(cls, lower: float, upper: float, alpha: float, n: int, y: int):
        _check_ends(lower, upper, "interval")
        return super().__new__(cls, lower, upper, alpha, n, y)

    @classmethod
    def _make(cls, iterable):  # so that _replace checks the endpoints too
        return cls(*iterable)

    def contains(self, b: float) -> bool:
        return self.lower <= b <= self.upper


def _check_alpha(alpha: float) -> float:
    """A two-sided level: in (0, 1), and with alpha / 2 above 0, the target
    of each tail; the least subnormal, 5e-324, is a level whose half is 0."""
    alpha = check_level(alpha, "alpha")
    if alpha / 2 == 0.0:
        raise ValueError(f"alpha must be at least 1e-323, so that alpha / 2 is above 0, got {alpha!r}")
    return alpha


def clopper_pearson(n: int, y: int, alpha: float) -> IntervalEstimate:
    """Exact (conservatively valid) interval by inverting the binomial tails.

    Endpoints at y=0 and y=n are pinned to 0 and 1 (one-sided convention).
    """
    n = check_int(n, "n", 1, N_MAX)
    y = check_int(y, "successes", 0, n)
    alpha = _check_alpha(alpha)
    lower = 0.0 if y == 0 else binom_tail_invert(n, y, alpha / 2, "lower")
    upper = 1.0 if y == n else binom_tail_invert(n, y, alpha / 2, "upper")
    return IntervalEstimate(lower=lower, upper=upper, alpha=alpha, n=n, y=y)


class ClopperPearson:
    """Interval estimator y -> Clopper-Pearson interval for fixed (n, alpha)."""

    def __init__(self, n: int, alpha: float):
        self.n = check_int(n, "n", 1, N_MAX)
        self.alpha = _check_alpha(alpha)
        self._cache: dict[int, IntervalEstimate] = {}

    def interval(self, y: int) -> IntervalEstimate:
        y = check_int(y, "y", 0, self.n)
        if y not in self._cache:
            self._cache[y] = clopper_pearson(self.n, y, self.alpha)
        return self._cache[y]


class EndpointTable(namedtuple("EndpointTable", "n lowers uppers")):
    """An estimator as its interval ends [lowers[y], uppers[y]], y = 0..n, checked when made."""

    __slots__ = ()

    def __new__(cls, n: int, lowers, uppers):
        n = check_int(n, "n", 1)
        lowers, uppers = tuple(lowers), tuple(uppers)
        if len(lowers) != n + 1 or len(uppers) != n + 1:
            raise ValueError(f"lowers and uppers must hold n + 1 = {n + 1} ends, got {len(lowers)} and {len(uppers)}")
        for y, (lower, upper) in enumerate(zip(lowers, uppers)):
            _check_ends(lower, upper, f"interval lowers[{y}], uppers[{y}] =")
        return super().__new__(cls, n, lowers, uppers)

    @classmethod
    def _make(cls, iterable):  # so that _replace checks the ends too
        return cls(*iterable)

    @classmethod
    def of(cls, estimator, n: int) -> "EndpointTable":
        """The ends of any `.interval(y)` estimator, or a table passed through; each carries
        its n, and is refused unless built for this n: coverage at one n says nothing of another."""
        n = check_int(n, "n", 1)
        ivs = [estimator] if isinstance(estimator, cls) else [estimator.interval(y) for y in range(n + 1)]
        other = next((iv.n for iv in ivs if iv.n != n), None)
        if other is not None:
            raise ValueError(f"the estimator's intervals are for n = {other}, not for the n = {n} judged")
        return estimator if isinstance(estimator, cls) else cls(n, [iv.lower for iv in ivs], [iv.upper for iv in ivs])

    def check_nondecreasing(self) -> "EndpointTable":
        """The table, refused unless its ends are nondecreasing in y."""
        if any(prev > nxt for ends in (self.lowers, self.uppers) for prev, nxt in zip(ends, ends[1:])):
            raise ValueError(
                "the exact validity certificate needs interval endpoints that are "
                "nondecreasing in y: only then is each covering set a range of y, "
                "whose coverage is least at an endpoint"
            )
        return self


# the coverage at b, a float, and the frozenset of outcomes y whose interval covers b
CoverageReport = namedtuple("CoverageReport", "b coverage covering_set")


def coverage_probability(estimator, b: float, n: int) -> CoverageReport:
    """Exact coverage at b: `_range_probability` summed over the maximal runs
    of consecutive y in the covering set, one run for a monotone estimator."""
    n = check_int(n, "n", 1)
    b = check_prob(b, "b")
    _, lowers, uppers = EndpointTable.of(estimator, n)
    covering = frozenset(y for y in range(n + 1) if lowers[y] <= b <= uppers[y])
    los = sorted(y for y in covering if y - 1 not in covering)
    his = sorted(y for y in covering if y + 1 not in covering)
    coverage = min(math.fsum(_range_probability(n, b, lo, hi) for lo, hi in zip(los, his)), 1.0)
    return CoverageReport(b=b, coverage=coverage, covering_set=covering)


# valid: bool; worst_b, worst_coverage, alpha: floats; n: int
ValidityReport = namedtuple("ValidityReport", "valid worst_b worst_coverage alpha n")


def endpoint_augmented_grid(estimator, n: int, step: float = 0.001, eps: float = 1e-9) -> list[float]:
    """Uniform b-grid plus every interval endpoint +- eps.

    Coverage as a function of b is piecewise with breakpoints exactly at the
    estimator endpoints, and these points sit on and beside each of them.
    No verdict uses them: `verify_conservative_validity` is exact.  It stays
    only because perfbench's tracer looks the name up; it goes when the
    tracer stops wrapping it.
    """
    points = {round(k * step, 12) for k in range(int(round(1.0 / step)) + 1)}
    _, lowers, uppers = EndpointTable.of(estimator, n)
    for p in lowers + uppers:
        for q in (p - eps, p, p + eps):
            if 0.0 <= q <= 1.0:
                points.add(q)
    points.update((0.0, 1.0))
    return sorted(points)


def _coverage_infimum(table: EndpointTable) -> tuple[float, float]:
    """(inf of coverage over b in [0, 1], a b next to where it is approached)
    for a table whose endpoints are nondecreasing in y.

    Between consecutive endpoints the covering set is a range lo..hi of y,
    and Pr(lo <= Y <= hi) has derivative n [pmf_{n-1}(lo - 1) - pmf_{n-1}(hi)]
    in b, which changes sign at most once, from + to -.  So the infimum is a
    one-sided limit at an endpoint c (0 and 1 included); the coverage at c
    itself, with closed intervals, is at least both.  Unless c is an upper
    endpoint, the covering set just above c contains the one just below, at
    the same b, so that limit cannot be the least; unless c is a lower
    endpoint, the limit below cannot.  Unless 1 is a lower endpoint, the one
    just below 1 ties or exceeds an earlier one: it is 1, or it is 0 and the
    largest upper endpoint is below 1, just above which the limit is 0 too.
    The limits left are those just above 0 and each upper endpoint and just
    below each lower endpoint: at most 2n + 1 for Clopper-Pearson, at most
    two tail sums each, visited in ascending c, below first.

    The b returned is the double next to c on the limit's side, where
    `coverage_probability` takes that covering set's coverage by the same
    routine; it is the neighbouring endpoint if no double lies between.
    """
    n, lowers, uppers = table.check_nondecreasing()
    # (c, 1.0) is the limit just above c, covering the y with lower_y <= c < upper_y;
    # (c, -1.0) the one just below, covering those with lower_y < c <= upper_y
    limits = {(0.0, 1.0), *[(c, -1.0) for c in lowers if c > 0.0]}
    limits.update((c, 1.0) for c in uppers if c < 1.0)
    worst_b, worst_cov = 0.0, 2.0
    for c, side in sorted(limits):
        cut = bisect_right if side > 0.0 else bisect_left
        cov = _range_probability(n, c, cut(uppers, c), cut(lowers, c) - 1)
        if cov < worst_cov:
            worst_b, worst_cov = math.nextafter(c, side), cov
    return worst_b, worst_cov


def verify_conservative_validity(estimator, n: int, alpha: float) -> ValidityReport:
    """Is the coverage of `estimator` at least 1 - alpha for every b?

    The verdict is exact: `worst_coverage` is the infimum of the coverage
    over b in [0, 1], the least one-sided limit at the interval endpoints
    (at most 2n + 1 for Clopper-Pearson, see `_coverage_infimum`), and
    `worst_b` is the double beside its endpoint, where `coverage_probability`
    takes the same covering set's coverage by the same routine.  This needs
    endpoints that are nondecreasing in y, as those of Clopper-Pearson are,
    and built for this n; for any other estimator it raises ValueError.
    """
    n = check_int(n, "n", 1)
    alpha = check_level(alpha, "alpha")
    worst_b, worst_cov = _coverage_infimum(EndpointTable.of(estimator, n))
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
    interval contains b.  Converges to the exact enumeration value.

    `coverage_probability` computes the same quantity exactly; this stays
    only as perfbench's `validity` workload's independent cross-check of it.
    """
    n = check_int(n, "n", 1)
    b = check_prob(b, "b")
    mc_trials = check_int(mc_trials, "mc_trials", 1)
    import numpy as np

    rng = stream.rng()
    _, lowers, uppers = EndpointTable.of(estimator, n)
    contains = np.array([lower <= b <= upper for lower, upper in zip(lowers, uppers)])
    hits = 0
    chunk = 1 << 16
    for start in range(0, mc_trials, chunk):
        m = min(chunk, mc_trials - start)
        hits += int(contains[rng.binomial(n, b, size=m)].sum())
    return hits / mc_trials
