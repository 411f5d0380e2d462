"""Estimators, samplers and references that only the tests use."""

import math
from bisect import bisect_left, bisect_right

import pytest
from scipy.special import betainc, betaincc, betaincinv, betaln

import berncert.binom
from berncert.binom import (
    _CHUNK,
    _LN2_HI,
    _LN2_LO,
    _SPLIT,
    _SQRT_HALF,
    _TAIL_STOP,
    _THIRD_HI,
    _THIRD_LO,
    _TINY_MEAN,
    _TWO_PI,
    _complement,
    _mode,
    _range_probability,
    _stirlerr,
    check_int,
    check_prob,
)
from berncert.intervals import EndpointTable


def conformal_claim(n: int, J: int, E: float) -> EndpointTable:
    """The conformal claim "b <= E whenever Y <= J" as an endpoint table:
    the one-sided [0, u(y)], with u(y) = E for y <= J and 1 otherwise."""
    return EndpointTable(n, [0.0] * (n + 1), [E if y <= J else 1.0 for y in range(n + 1)])


def count_calls(monkeypatch, module, *names: str) -> dict[str, int]:
    """Replace each named function of `module` by one that counts its calls;
    the dict returned maps each name to its count so far."""
    counts = dict.fromkeys(names, 0)

    def counted(name, f):
        def wrapper(*args):
            counts[name] += 1
            return f(*args)
        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return counts


def inversion_cost(cases) -> tuple[float, float, int]:
    """(mean tail sums, mean saddle-point anchors, most tail sums) per
    `binom_tail_invert(*case)` over the cases: its `_cdf_sf` and `_pmf` calls."""
    sums = []
    with pytest.MonkeyPatch.context() as patch:
        counts = count_calls(patch, berncert.binom, "_cdf_sf", "_pmf")
        for case in cases:
            before = counts["_cdf_sf"]
            berncert.binom.binom_tail_invert(*case)
            sums.append(counts["_cdf_sf"] - before)
    return sum(sums) / len(sums), counts["_pmf"] / len(sums), max(sums)


def draw_bernoulli(stream, b: float, count: int):
    """i.i.d. 0/1 draws with success probability b from a `SeededStream`."""
    b = check_prob(b, "b")
    count = check_int(count, "count", 0)
    return (stream.rng().random(count) < b).astype("int64")


def indicator_sampler(b: float):
    """Point sampler over {0, 1} matching an indicator measure with P(Q) = b."""

    def sample(rng, count):
        return (rng.random(count) < b).astype(int)

    return sample


def piecewise_coverage_infimum(table: EndpointTable) -> tuple[float, float]:
    """(worst_b, worst_coverage) as the verdict once computed them: both
    one-sided limits at the ends of every piece between consecutive distinct
    endpoints, the first least one kept.  A float reference, made of the
    same `_range_probability` calls, for the bits of the verdict."""
    n, lowers, uppers = table
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


# ------------------------------------------------------------ reference kernel
#
# The binomial kernel as it was written before its double-double steps were
# inlined: one call per Dekker product, Knuth sum and double-double quotient,
# and tail terms drawn from a generator.  The kernel in `berncert.binom` must
# return the same bits, operation for operation.

# 1/25, 1/23, ..., 1/5: the atanh series of ref_log_dd, innermost Horner coefficient first
ATANH_COEFFICIENTS = tuple(1.0 / j for j in range(25, 4, -2))


def ref_two_prod(a: float, b: float) -> tuple[float, float]:
    """a * b as an unevaluated sum hi + lo, exact (Dekker)."""
    p = a * b
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLIT * b
    bh = t - (t - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def ref_two_sum(a: float, b: float) -> tuple[float, float]:
    """a + b as hi + lo, exact (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def ref_dd_div(ah: float, al: float, bh: float, bl: float) -> tuple[float, float]:
    """(ah + al) / (bh + bl) in double-double."""
    q = ah / bh
    ph, pl = ref_two_prod(q, bh)
    r = (((ah - ph) - pl) + al - q * bl) / bh
    s = q + r
    return s, r - (s - q)


def ref_log_dd(rh: float, rl: float) -> tuple[float, float]:
    """log(rh + rl) in double-double, for rh > 0."""
    m, k = math.frexp(rh)
    if m < _SQRT_HALF:
        m *= 2.0
        k -= 1
    ml = math.ldexp(rl, -k)
    dh, dl = ref_two_sum(m, 1.0)
    uh, ul = ref_dd_div(m - 1.0, ml, dh, dl + ml)  # m - 1 is exact
    u2h, u2l = ref_two_prod(uh, uh)
    u2l += 2.0 * uh * ul
    # rest = u^4/5 + u^6/7 + ... + u^24/25, by Horner's rule in u^2
    rest = 0.0
    for coefficient in ATANH_COEFFICIENTS:
        rest = coefficient + u2h * rest
    rest *= u2h * u2h
    # s = 1 + u^2/3 + rest
    ch, cl = ref_two_prod(u2h, _THIRD_HI)
    cl += u2h * _THIRD_LO + u2l * _THIRD_HI
    sh = 1.0 + ch
    sl = (ch - (sh - 1.0)) + cl + rest
    # log m = 2u s, plus k log 2
    ph, pl = ref_two_prod(uh, sh)
    pl += uh * sl + ul * sh
    kh, kl = ref_two_prod(float(k), _LN2_HI)
    hi, lo = ref_two_sum(kh, 2.0 * ph)
    return hi, lo + kl + float(k) * _LN2_LO + 2.0 * pl


def ref_bd0(x: float, mh: float, ml: float) -> tuple[float, float]:
    """Deviance term x log(x/M) + M - x for x >= 1, M = mh + ml > 0, in double-double."""
    if mh < _TINY_MEAN:  # x / M would overflow: log x - log M instead
        ah, al = ref_log_dd(x, 0.0)
        bh, bl = ref_log_dd(mh, ml)
        lh, ll = ref_two_sum(ah, -bh)
        ll += al - bl
    else:
        lh, ll = ref_log_dd(*ref_dd_div(x, 0.0, mh, ml))
    ph, pl = ref_two_prod(x, lh)
    s, e = ref_two_sum(ph, mh)
    hi, e2 = ref_two_sum(s, -x)
    return hi, e2 + e + pl + x * ll + ml


def ref_exp_dd(hi: float, lo: float) -> float:
    """exp(hi + lo); lo need not be below one ulp of hi."""
    hi, lo = ref_two_sum(hi, lo)
    return math.exp(hi) * (1.0 + lo)


def ref_pmf(n: int, x: int, p: float, qh: float, ql: float) -> float:
    """Pr(Y = x) for Y ~ Bin(n, p), 0 < p < 1, q = qh + ql = 1 - p exactly."""
    nf = float(n)
    if x == 0 or x == n:  # q^n or p^n, as exp(n log q) or exp(n log p)
        lh, ll = ref_log_dd(qh, ql) if x == 0 else ref_log_dd(p, 0.0)
        eh, el = ref_two_prod(nf, lh)
        return ref_exp_dd(eh, el + nf * ll)
    xf = float(x)
    yf = nf - xf
    mh, ml = ref_two_prod(nf, p)
    ah, al = ref_bd0(xf, mh, ml)
    mh, ml = ref_two_prod(nf, qh)
    bh, bl = ref_bd0(yf, mh, ml + nf * ql)
    lh, ll = ref_two_sum(-ah, -bh)
    ll += (_stirlerr(nf) - _stirlerr(xf) - _stirlerr(yf)) - al - bl
    return ref_exp_dd(lh, ll) / math.sqrt(_TWO_PI * xf * yf / nf)


def ref_terms(n: int, p: float, qh: float, ql: float, k: int, step: int, end: int):
    """Yield pmf(k), pmf(k + step), ..., pmf(end), moving away from the mode,
    by the ratio recurrence re-anchored every `_CHUNK` terms; stops early at
    an anchor that underflows."""
    if step > 0:
        factor = ref_dd_div(p, 0.0, qh, ql)[0]
    else:
        factor = ref_dd_div(qh, ql, p, 0.0)[0]
    for k0 in range(k, end + step, step * _CHUNK):
        t = ref_pmf(n, k0, p, qh, ql)
        if t == 0.0:
            return
        yield t
        num, den = (float(n - k0), float(k0 + 1)) if step > 0 else (float(k0), float(n - k0 + 1))
        for _ in range(min(_CHUNK - 1, abs(end - k0))):
            t *= num / den * factor
            num -= 1.0
            den += 1.0
            yield t


def ref_cdf_sf(n: int, b: float, j: int) -> tuple[float, float, int, float]:
    """(Pr(Y <= j), Pr(Y > j), k, Pr(Y = k)) for Y ~ Bin(n, b), as
    `berncert.binom._cdf_sf` returns them."""
    n = check_int(n, "n", 1)
    b = check_prob(b, "b")
    j = check_int(j, "j")
    if j < 0 or j >= n:
        return (0.0, 1.0, j, 0.0) if j < 0 else (1.0, 0.0, j, 0.0)
    if b in (0.0, 1.0):
        return (1.0, 0.0, j, 0.0) if b == 0.0 else (0.0, 1.0, j, 0.0)
    qh, ql = _complement(b)
    lower = j < _mode(n, b)
    k, step, end = (j, -1, 0) if lower else (j + 1, 1, n)
    terms = ref_terms(n, b, qh, ql, k, step, end)
    # the first term is positive, so it never meets the stopping rule
    first = total = next(terms, 0.0)
    for t in terms:
        total += t
        if t <= _TAIL_STOP * total:
            break
    return (total, 1.0 - total, k, first) if lower else (1.0 - total, total, k, first)


def polished_beta_quantile(a, b, t, upper):
    """x with Pr(Beta(a, b) > x) = t (upper) or Pr(Beta(a, b) <= x) = t:
    betaincinv's root, moved by one Newton step on betaincc or betainc at t
    itself.  betaincinv alone is off by 1.2e-12 at a = 1000, b = 9000,
    t = 0.1, and the upper root it solves for is that of the rounded 1 - t,
    5.7e-12 away at a = 1, b = 1e4, t = 5e-7.  After the step the oracle
    agrees with Clopper-Pearson to 1.3e-15 over 3e4 random cases at n <= 1e4."""
    x = float(betaincinv(a, b, 1.0 - t if upper else t))
    density = math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - betaln(a, b))
    return x + (betaincc(a, b, x) - t) / density if upper else x - (betainc(a, b, x) - t) / density
