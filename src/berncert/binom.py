"""Binomial pmf, cdf, survival function and tail inversion in floating point,
plus seeded sampling.

One kernel serves every call.  The pmf is Loader's saddle-point form,
exp(lc) / sqrt(2 pi x (n - x) / n), with lc built from the Stirling-series
error `stirlerr` and the deviance term `bd0` (C. Loader, "Fast and Accurate
Computation of Binomial Probabilities", 2000; the algorithm behind R's
`dbinom`), or q^n = exp(n log q) and p^n = exp(n log p) at x = 0 and x = n.
`bd0` and the logs are evaluated in double-double arithmetic, so the
exponent is exact to far below one unit in the last place even where it is
in the hundreds; the pmf keeps a relative error of a few 1e-16 for values
down to 1e-300.  The anchor is straight-line code: each Dekker product,
Knuth sum and double-double quotient is written out in place, with the
splits of the constants made once at import, and it gives the same bits as
the form with one call per step that the tests keep as a reference.

Every sum of pmf values is one loop, `_tail`: pmf(k) + ... + pmf(last),
from k away from the mode, by the ratio recurrence re-anchored at a
saddle-point value every 256 terms, stopped at the first term below 1e-17
of the partial sum.  `_cdf_sf` sums the tail on the far side of the mode
from j and takes the other value as its complement, of a tail of at most
about 1/2, so it loses no relative accuracy.  `_range_probability` sums a
run on one side of the mode once, and takes a run across it as 1 minus
the two tails outside it.  The public functions check the arguments;
`_cdf_sf`, `_range_probability` and `_tail` trust them.  Tail inversion is
Halley's method on the log tail, safeguarded by a shrinking bracket.  Its
slope needs pmf_n(y), which is the first term of the tail sum the same step
has just taken, or one ratio step from it, so a step pays for at most one
saddle-point anchor, not two; the second derivative follows from the slope
and pmf_n(y)'s own log derivative, at no further cost.  A sum after a long
step pays for none: it carries its first term from the last sum's by the
exact ratio of the two pmfs, where that ratio's exponent is small enough to
keep it to a few ulps, and a carried sum that lands next to the root is
retaken with its anchor.
Where the tail has a closed-form root (y = 0, 1, n - 1 or n), or two terms
(y = 1 for the cdf, y = n - 1 for the survival function), whose root a few
Newton steps in doubles find, the first tail sum only confirms the start.
Elsewhere the start is Paulson's cube-root normal approximation to the beta
quantile (E. Paulson, Annals of Math. Stat. 13, 1942), off by a median 5e-4
relative at n = 30 and 6e-7 at n = 3000, and a Wilson score bound only at
targets below 1e-6.  One rule decides every stop: a step's end is returned
unconfirmed once its remainder, predicted from the same h'' as
(h'' / (2 h'))^2 times the step cubed, is below 2^-56 of b: two tail sums
for most interior Clopper-Pearson endpoints at n = 30, one for about half at
n = 3000.  One finish takes a step that cannot be returned, after a sum at
the rounding floor of h or rounded past the bracket: a collapsed bracket,
one double at a time, on the end that widens the interval, judged by
anchored tails.  A target above 1/2 is
solved as the complementary tail at 1 - t, which is exact, and iterates stay
between the doubles next to 0 and 1, so a root past them costs one tail sum
there.

The scalar functions compute on Python floats and load no numpy; numpy is
imported only inside the functions that make an array or a random stream.

Four checkers here validate every argument of the package: `check_int`
for counts (integral floats pass), `check_prob` for probabilities in
[0, 1], `check_level` for levels in (0, 1) and `check_epsilon` for exact
significance levels in [0, 1].  Anything else raises ValueError.
"""

from __future__ import annotations

import math
from collections import namedtuple

TYPE_CHECKING = False  # typing is not imported at run time: it costs start-up
if TYPE_CHECKING:
    from fractions import Fraction

    import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF

# stirlerr(k) = log(k!) - log(sqrt(2 pi k) (k/e)^k) for k = 1..15, rounded
# from 50-digit values; larger k use the five-term series in _stirlerr
_STIRLERR = (
    0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)
_S0, _S1, _S2, _S3, _S4 = 1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188

# double-double constants: value = _HI + _LO
_LN2_HI, _LN2_LO = 0.6931471805599453, 2.3190468138462996e-17
_THIRD_HI, _THIRD_LO = 0.3333333333333333, 1.850371707708594e-17
_SQRT_HALF = 0.7071067811865476
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp splitting constant
# Veltkamp halves of _THIRD_HI and _LN2_HI, for Dekker's products with them
_THIRD_HI_H = _SPLIT * _THIRD_HI - (_SPLIT * _THIRD_HI - _THIRD_HI)
_THIRD_HI_L = _THIRD_HI - _THIRD_HI_H
_LN2_HI_H = _SPLIT * _LN2_HI - (_SPLIT * _LN2_HI - _LN2_HI)
_LN2_HI_L = _LN2_HI - _LN2_HI_H
_TWO_PI = 2.0 * math.pi
_SQRT_TWO_PI = math.sqrt(_TWO_PI)
# 1/5, 1/7, ..., 1/25: the atanh series of _log_dd past its double-double terms
_A5, _A7, _A9, _A11, _A13, _A15, _A17, _A19, _A21, _A23, _A25 = (1.0 / j for j in range(5, 27, 2))
# below this the ratio x / M in bd0 could overflow
_TINY_MEAN = 1e-290

# the recurrence restarts from a saddle-point value every _CHUNK terms, so
# its rounding compounds over at most this many steps
_CHUNK = 256
# a tail sum stops at the first term below this fraction of the partial sum
_TAIL_STOP = 1e-17
# the inversion stops after a step whose predicted remainder, the error it
# leaves, is below this fraction of the iterate (at most an eighth of an ulp)
_HALLEY_STOP = 2.0**-56
_NEWTON_MAX_STEPS = 200
# below this target Paulson's start is poor or has no root, and a Wilson score
# bound takes its place
_PAULSON_MIN_TARGET = 1e-6
# every iterate lies between the doubles next to 0 and 1, so a root past either
# lies in a bracket with no double inside, which the inversion exits at once
_B_MIN = math.ulp(0.0)
_B_MAX = 1.0 - 2.0**-53
# the two-term solve stops after a step below this fraction of c and of 1 - c;
# Newton's steps converge quadratically, so the error left is of the order of its square
_TWO_TERM_RTOL = 1e-8
_TWO_TERM_MAX_STEPS = 20
# after a step of at least this fraction of b, a tail sum carries its first
# term from the last sum's (`_carried`) instead of taking a saddle-point anchor;
# |log(tail / target)| at most _CARRY_END_H is the rounding floor: a carried sum
# there is retaken with its anchor, since a few ulps could flip its sign, and a
# bracket end must lie on the side of the root that the public tail functions
# put it; a sum after a step that lands there ends the inversion only through
# the floor walk to a collapsed bracket, the one finish also of a converged
# step rounded past the bracket
_CARRY_STEP = 2.0**-13
_CARRY_END_H = 1e-13
_NORMAL_MIN = 2.0**-1022  # the smallest normal double


def check_int(k, name: str, lo: float = -math.inf, hi: float = math.inf) -> int:
    """Validate that ``k`` is an integer in [lo, hi] and return it as an int.
    Integral floats such as 3.0 pass; 2.5, NaN, inf and strings do not."""
    try:
        i = int(k)
    except (TypeError, ValueError, OverflowError):
        i = None
    if i is None or i != k or not lo <= i <= hi:
        raise ValueError(f"{name} must be an integer in [{lo}, {hi}], got {k!r}")
    return i


def _real(x) -> float:
    """x as a float, or NaN where x is not a real number: strings and bytes
    are text, not numbers, although float() parses them."""
    if isinstance(x, (str, bytes)):
        return math.nan
    try:
        return float(x)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def check_prob(p: float, name: str = "probability") -> float:
    """Validate that ``p`` lies in [0, 1] and return it as a float."""
    x = p if type(p) is float else _real(p)  # the kernel passes floats: no call
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {p!r}")
    return x


def check_level(a: float, name: str) -> float:
    """Validate that ``a`` lies strictly inside (0, 1) and return it as a float."""
    x = a if type(a) is float else _real(a)
    if not 0.0 < x < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {a!r}")
    return x


def check_epsilon(epsilon) -> Fraction:
    """Validate a significance level in [0, 1] and return it as an exact
    Fraction.  Text is refused here too, although Fraction() parses it.
    `fractions` (and its `decimal`) is imported here, not with the module:
    `bpci` needs neither."""
    from fractions import Fraction

    try:
        eps = epsilon if type(epsilon) is Fraction else Fraction(epsilon)  # callers keep Fractions
    except (TypeError, ValueError, OverflowError):
        eps = None
    if eps is None or isinstance(epsilon, (str, bytes)) or not 0 <= eps <= 1:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon!r}")
    return eps


def _fmt(x: float) -> str:
    """12 significant digits: how the CLI prints and the CSV stores a float."""
    return f"{x:.12g}"


# The double-double routines write each exact step out in place, as a call
# costs more than the few flops it would wrap.  Dekker's product a * b = p + e
# splits a = ah + al by ah = t - (t - a) with t = _SPLIT * a, and b alike, then
# e = ((ah * bh - p) + ah * bl + al * bh) + al * bl; Knuth's sum a + b = s + e
# has bb = s - a, e = (a - (s - bb)) + (b - bb); a double-double quotient is
# q = ah / bh plus (((ah - p) - e) + al - q * bl) / bh, with p + e = q * bh.


def _log_dd(rh: float, rl: float) -> tuple[float, float]:
    """log(rh + rl) in double-double, for rh > 0.

    r = 2^k m with m in [1/sqrt 2, sqrt 2]; log m = 2 atanh(u) with
    u = (m - 1)/(m + 1), |u| <= 0.172.  The terms 2u and 2u^3/3 are kept in
    double-double; the rest of the series, below 1e-4 of log m, is one
    fixed Horner polynomial in u^2 from u^5/5 to u^25/25 (times 2), since at
    |u| <= 0.172 the first term left out, u^27/27, is below 3e-18 of u^5/5.
    """
    m, k = math.frexp(rh)
    if m < _SQRT_HALF:
        m *= 2.0
        k -= 1
    ml = math.ldexp(rl, -k)
    # m + 1 = dh + dl (Knuth), then u = (m - 1 + ml) / (dh + dl + ml); m - 1 is exact
    dh = m + 1.0
    bb = dh - m
    dl = (m - (dh - bb)) + (1.0 - bb)
    m -= 1.0
    q = m / dh
    p = q * dh
    qh = (t := _SPLIT * q) - (t - q)
    ql = q - qh
    bh = (t := _SPLIT * dh) - (t - dh)
    bl = dh - bh
    e = ((qh * bh - p) + qh * bl + ql * bh) + ql * bl
    r = (((m - p) - e) + ml - q * (dl + ml)) / dh
    uh = q + r
    ul = r - (uh - q)
    # u^2 (Dekker)
    u2h = uh * uh
    ah = (t := _SPLIT * uh) - (t - uh)
    al = uh - ah
    u2l = (((ah * ah - u2h) + ah * al + al * ah) + al * al) + 2.0 * uh * ul
    # rest = u^4/5 + u^6/7 + ... + u^24/25 by Horner's rule in u^2
    rest = u2h * u2h * (_A5 + u2h * (_A7 + u2h * (_A9 + u2h * (_A11 + u2h * (_A13 + u2h * (
        _A15 + u2h * (_A17 + u2h * (_A19 + u2h * (_A21 + u2h * (_A23 + u2h * _A25))))))))))
    # s = 1 + u^2/3 + rest, with u^2 * _THIRD_HI by Dekker
    ch = u2h * _THIRD_HI
    vh = (t := _SPLIT * u2h) - (t - u2h)
    vl = u2h - vh
    cl = ((vh * _THIRD_HI_H - ch) + vh * _THIRD_HI_L + vl * _THIRD_HI_H) + vl * _THIRD_HI_L
    cl += u2h * _THIRD_LO + u2l * _THIRD_HI
    sh = 1.0 + ch
    sl = (ch - (sh - 1.0)) + cl + rest
    # log m = 2u s (Dekker's u * sh), plus k log 2 (Dekker's k * _LN2_HI and Knuth's sum)
    ph = uh * sh
    bh = (t := _SPLIT * sh) - (t - sh)
    bl = sh - bh
    pl = (((ah * bh - ph) + ah * bl + al * bh) + al * bl) + (uh * sl + ul * sh)
    kf = float(k)
    kh = kf * _LN2_HI
    bh = (t := _SPLIT * kf) - (t - kf)
    bl = kf - bh
    kl = ((bh * _LN2_HI_H - kh) + bh * _LN2_HI_L + bl * _LN2_HI_H) + bl * _LN2_HI_L
    ph *= 2.0
    hi = kh + ph
    bb = hi - kh
    lo = (kh - (hi - bb)) + (ph - bb)
    return hi, lo + kl + kf * _LN2_LO + 2.0 * pl


def _bd0(x: float, mh: float, ml: float) -> tuple[float, float]:
    """Deviance term x log(x/M) + M - x for x >= 1, M = mh + ml > 0, in
    double-double.  It is the exponent's main part, up to about 745 where
    the pmf is still representable, so it must be exact far below one ulp."""
    if mh < _TINY_MEAN:  # x / M would overflow: log x - log M instead
        ah, al = _log_dd(x, 0.0)
        bh, bl = _log_dd(mh, ml)
        lh = ah - bh
        bb = lh - ah
        ll = ((ah - (lh - bb)) + (-bh - bb)) + (al - bl)
    else:  # x / M in double-double; its low dividend part is 0
        q = x / mh
        p = q * mh
        qh = (t := _SPLIT * q) - (t - q)
        ql = q - qh
        bh = (t := _SPLIT * mh) - (t - mh)
        bl = mh - bh
        r = (((x - p) - (((qh * bh - p) + qh * bl + ql * bh) + ql * bl)) - q * ml) / mh
        lh = q + r
        lh, ll = _log_dd(lh, r - (lh - q))
    # x log(x/M) (Dekker), then + M (Knuth) and - x (Knuth)
    ph = x * lh
    ah = (t := _SPLIT * x) - (t - x)
    al = x - ah
    bh = (t := _SPLIT * lh) - (t - lh)
    bl = lh - bh
    pl = ((ah * bh - ph) + ah * bl + al * bh) + al * bl
    s = ph + mh
    bb = s - ph
    e = (ph - (s - bb)) + (mh - bb)
    hi = s - x
    bb = hi - s
    return hi, (s - (hi - bb)) + (-x - bb) + e + pl + x * ll + ml


def _stirlerr(k: float) -> float:
    """log(k!) - log(sqrt(2 pi k) (k/e)^k) for integer k >= 1."""
    if k <= 15.0:
        return _STIRLERR[int(k) - 1]
    kk = k * k
    return (_S0 - (_S1 - (_S2 - (_S3 - _S4 / kk) / kk) / kk) / kk) / k


def _complement(b: float) -> tuple[float, float]:
    """1 - b as hi + lo, exact."""
    qh = 1.0 - b
    return qh, (1.0 - qh) - b


def _pmf(n: int, x: int, p: float, qh: float, ql: float) -> float:
    """Pr(Y = x) for Y ~ Bin(n, p), 0 < p < 1, q = qh + ql = 1 - p exactly."""
    nf = float(n)
    nh = (t := _SPLIT * nf) - (t - nf)  # n's Veltkamp halves, for each Dekker product with n
    nl = nf - nh
    if x == 0 or x == n:  # q^n or p^n, as exp(n log q) or exp(n log p)
        lh, ll = _log_dd(qh, ql) if x == 0 else _log_dd(p, 0.0)
        eh = nf * lh
        bh = (t := _SPLIT * lh) - (t - lh)
        bl = lh - bh
        el = (((nh * bh - eh) + nh * bl + nl * bh) + nl * bl) + nf * ll
        # exp(eh + el), el made the low part of a Knuth sum first
        s = eh + el
        bb = s - eh
        return math.exp(s) * (1.0 + ((eh - (s - bb)) + (el - bb)))
    xf = float(x)
    yf = nf - xf
    # bd0 at the means M = n p and n q, each made exact by Dekker
    mh = nf * p
    bh = (t := _SPLIT * p) - (t - p)
    bl = p - bh
    ah, al = _bd0(xf, mh, ((nh * bh - mh) + nh * bl + nl * bh) + nl * bl)
    mh = nf * qh
    bh = (t := _SPLIT * qh) - (t - qh)
    bl = qh - bh
    bh, bl = _bd0(yf, mh, (((nh * bh - mh) + nh * bl + nl * bh) + nl * bl) + nf * ql)
    # exp(-bd0(x) - bd0(y) + stirlerr terms), the sum kept by Knuth
    lh = -ah - bh
    bb = lh + ah
    ll = (-ah - (lh - bb)) + (-bh - bb)
    ll += (_stirlerr(nf) - _stirlerr(xf) - _stirlerr(yf)) - al - bl
    s = lh + ll
    bb = s - lh
    return math.exp(s) * (1.0 + ((lh - (s - bb)) + (ll - bb))) / math.sqrt(_TWO_PI * xf * yf / nf)


def _mode(n: int, b: float) -> int:
    return min(int((n + 1) * b), n)


def _tail(n: int, p: float, qh: float, ql: float, k: int, last: int,
          first: float = 0.0) -> tuple[float, float]:
    """(sum, pmf(k)) of pmf(k) + ... + pmf(last), from k toward `last`, away
    from the mode, by the ratio recurrence re-anchored at a saddle-point value
    every `_CHUNK` terms; a positive `first` is pmf(k), known, and stands in
    for the first anchor.  The sum stops after the first term at most
    `_TAIL_STOP` times the partial sum, at `last`, or at an anchor that
    underflows (pmf(k) is then 0.0): the values past it are smaller still."""
    step = 1 if last >= k else -1
    # the ratio p / q above the mode, q / p below it: the high part of a double-double quotient
    ah, al, dh, dl = (p, 0.0, qh, ql) if step > 0 else (qh, ql, p, 0.0)
    f = ah / dh
    g = f * dh
    fh = (t := _SPLIT * f) - (t - f)
    fl = f - fh
    bh = (t := _SPLIT * dh) - (t - dh)
    bl = dh - bh
    e = ((fh * bh - g) + fh * bl + fl * bh) + fl * bl
    factor = f + ((((ah - g) - e) + al - f * dl) / dh)
    stop = _TAIL_STOP  # a local: the inner loop reads it every term
    total = 0.0
    for k0 in range(k, last + step, step * _CHUNK):
        t = first if k0 == k and first > 0.0 else _pmf(n, k0, p, qh, ql)
        if t == 0.0:
            break
        if k0 == k:
            first = t
        # pmf(i + 1) / pmf(i) = (n - i) p / ((i + 1) q) for i = k0, k0 + 1, ...;
        # pmf(i - 1) / pmf(i) = i q / ((n - i + 1) p) for i = k0, k0 - 1, ...
        num, den = (float(n - k0), float(k0 + 1)) if step > 0 else (float(k0), float(n - k0 + 1))
        for _ in range(min(_CHUNK, abs(last - k0) + 1)):
            total += t
            if t <= stop * total:
                return total, first
            t *= num / den * factor
            num -= 1.0
            den += 1.0
    return total, first


def _cdf_sf(n: int, b: float, j: int, first: float = 0.0) -> tuple[float, float, int, float]:
    """(Pr(Y <= j), Pr(Y > j), k, Pr(Y = k)) for Y ~ Bin(n, b), on checked
    arguments; total on integers j.  Sums only the tail on the far side of
    the mode from j (module docstring); k is the index of its first term, j
    below the mode and j + 1 above it, and Pr(Y = k) that term, 0.0 where no
    tail is summed or its first term underflows.  A positive `first` is
    Pr(Y = k), known to the caller, and the sum takes no anchor for it."""
    if j < 0 or j >= n:
        return (0.0, 1.0, j, 0.0) if j < 0 else (1.0, 0.0, j, 0.0)
    if b in (0.0, 1.0):
        return (1.0, 0.0, j, 0.0) if b == 0.0 else (0.0, 1.0, j, 0.0)
    qh, ql = _complement(b)
    if j < _mode(n, b):
        total, first = _tail(n, b, qh, ql, j, 0, first)
        return total, 1.0 - total, j, first
    total, first = _tail(n, b, qh, ql, j + 1, n, first)
    return 1.0 - total, total, j + 1, first


def _range_probability(n: int, b: float, lo: int, hi: int) -> float:
    """Pr(lo <= Y <= hi) for Y ~ Bin(n, b), on checked arguments, 0.0 where
    lo > hi.  A run wholly on one side of the mode is one tail sum, from its
    end next to the mode to its far end, which keeps its relative accuracy
    deep in a tail and next to the mode alike; a run across the mode is 1
    minus the two tails outside it, each at most about 1/2."""
    if lo > hi:
        return 0.0
    mode = _mode(n, b)
    if lo <= mode <= hi:
        return max(0.0, 1.0 - _cdf_sf(n, b, lo - 1)[0] - _cdf_sf(n, b, hi)[1])
    if b in (0.0, 1.0):  # all mass at the mode, 0 or n
        return 0.0
    qh, ql = _complement(b)
    return _tail(n, b, qh, ql, hi, lo)[0] if hi < mode else _tail(n, b, qh, ql, lo, hi)[0]


def binom_pmf(n: int, b: float, y: int) -> float:
    """Pr(Y = y) for Y ~ Bin(n, b), by the saddle-point formula."""
    n = check_int(n, "n", 1)
    b = check_prob(b, "b")
    y = check_int(y, "y", 0, n)
    if b == 0.0:
        return 1.0 if y == 0 else 0.0
    if b == 1.0:
        return 1.0 if y == n else 0.0
    return _pmf(n, y, b, *_complement(b))


def binom_pmf_vector(n: int, b: float) -> np.ndarray:
    """All pmf values Pr(Y = y) for y = 0..n as a float array, each the bits
    `binom_pmf` gives.  It takes one saddle-point value per y, about 1 s at
    n = 1e5 on one core of an Intel Xeon, where a ratio recurrence outward
    from the mode took milliseconds.  Nothing in the package calls it; it
    stays only because perfbench's tracer looks the name up."""
    import numpy as np

    n = check_int(n, "n", 1)
    b = check_prob(b, "b")
    if b in (0.0, 1.0):
        out = np.zeros(n + 1)
        out[0 if b == 0.0 else n] = 1.0
        return out
    qh, ql = _complement(b)
    return np.array([_pmf(n, y, b, qh, ql) for y in range(n + 1)])


def binom_cdf(n: int, b: float, j: int) -> float:
    """Pr(Y <= j) for Y ~ Bin(n, b); total on integers (j < 0 -> 0, j >= n -> 1)."""
    return _cdf_sf(check_int(n, "n", 1), check_prob(b, "b"), check_int(j, "j"))[0]


def binom_sf(n: int, b: float, j: int) -> float:
    """Pr(Y > j) for Y ~ Bin(n, b); total on integers (j < 0 -> 1, j >= n -> 0)."""
    return _cdf_sf(check_int(n, "n", 1), check_prob(b, "b"), check_int(j, "j"))[1]


def _normal_quantile(t: float) -> float:
    """z with Pr(Z > z) = t for 0 < t <= 1/2, to about 5e-4 (Abramowitz and
    Stegun 26.2.23); only a starting point for the inversion."""
    s = math.sqrt(-2.0 * math.log(t))
    return s - (2.515517 + 0.802853 * s + 0.010328 * s * s) / (
        1.0 + 1.432788 * s + 0.189269 * s * s + 0.001308 * s * s * s
    )


def _paulson_start(n: int, y: int, target: float, upper: bool) -> float | None:
    """The start of an inversion with 2 <= y <= n - 2: its root by Paulson's
    normal approximation to the F quantile, or None where that approximation
    has no root (at q = 2 below a target of about 3e-5).

    With W ~ Beta(p, q), F = q W / (p (1 - W)) follows F(2p, 2q), and F^(1/3)
    is close to normal (Wilson and Hilferty): Pr(W > w) = t where
    ((1 - c2) F^(1/3) - (1 - c1)) / sqrt(c1 + c2 F^(2/3)) = z, Pr(Z > z) = t,
    c1 = 1 / (9p) and c2 = 1 / (9q); a quadratic in F^(1/3) (E. Paulson, "An
    approximate normalization of the analysis of variance distribution",
    Annals of Math. Stat. 13, 1942).  W is the b of side="upper" with
    (p, q) = (y + 1, n - y), and 1 - b of side="lower" with (n - y + 1, y).
    z is `_normal_quantile` refined by one Newton step on erfc.
    """
    p, q = (y + 1, n - y) if upper else (n - y + 1, y)
    z = _normal_quantile(target)
    z += (0.5 * math.erfc(z * _SQRT_HALF) - target) * _SQRT_TWO_PI * math.exp(0.5 * z * z)
    c1, c2 = 1.0 / (9 * p), 1.0 / (9 * q)
    a1, a2 = 1.0 - c1, 1.0 - c2
    den = a2 * a2 - z * z * c2
    if den <= 0.0:
        return None
    u = (a1 * a2 + z * math.sqrt(a1 * a1 * c2 + a2 * a2 * c1 - z * z * c1 * c2)) / den
    m = q / (p * u * u * u + q)  # 1 - W, free of cancellation where W is near 1
    return 1.0 - m if upper else m


def _wilson_lower(n: int, y: int, z: float) -> float:
    """Lower Wilson score bound y^2 / (n (y + z^2/2 + z s)), free of cancellation."""
    s = math.sqrt(y * (n - y) / n + z * z / 4.0)
    return y * y / (n * (y + z * z / 2.0 + z * s))


def _two_term_root(n: int, log_t: float) -> float:
    """log c for the root c in (0, 1) of (1 - c)^(n - 1) (1 + (n - 1) c) = t,
    for n >= 3 and log t = log_t <= -log 2: the two-term tail Pr(Y <= 1) at
    b = c, and Pr(Y >= n - 1) at b = 1 - c.

    Newton's method in u = log c on g(u) = (n - 1) log(1 - c) + log(1 + (n - 1) c)
    - log t, which decreases and is concave in u; from the right of the root
    its steps stay there, so c never reaches 1, and a bracket catches what
    rounding does near the root.  The start is the smaller of two bounds
    above the root: lambda / n, where e^-lambda (1 + lambda) = t is the
    Poisson limit (lambda > 1.6 at t <= 1/2, and a binomial cdf at 1 lies
    below the Poisson one of the same mean there: Anderson and Samuels,
    "Some inequalities among binomial and Poisson probabilities", 1967), and
    1 - (t / n)^(1 / (n - 1)), the root with 1 + (n - 1) c raised to n.
    Both c = e^u and 1 - c = -expm1(u) keep full relative accuracy, so this
    serves b near 0 and near 1 alike.
    """
    nm = float(n - 1)
    # w = 1 + lambda solves w - log w = s: two fixed-point steps from below,
    # then a Newton step, which lands above the root of this convex function
    s = 1.0 - log_t
    w = s + math.log(s + math.log(s))
    w -= (w - math.log(w) - s) * w / (w - 1.0)
    c = (w - 1.0) / n
    q = math.exp((log_t - math.log(n)) / nm)
    u = math.log(c) if c < 1.0 - q else math.log1p(-q)
    lo, hi = -math.inf, 0.0
    for _ in range(_TWO_TERM_MAX_STEPS):
        c, q = math.exp(u), -math.expm1(u)
        # log(1 - c) from c where c is small, from 1 - c where it is not
        g = nm * (math.log1p(-c) if c < 0.5 else math.log(q)) + math.log1p(nm * c) - log_t
        if g > 0.0:
            lo = u
        else:
            hi = u
        # -g / g'(u), with g'(u) = -n (n - 1) c^2 / ((1 - c) (1 + (n - 1) c))
        du = g * q * (1.0 + nm * c) / ((n * c) * (nm * c))
        new = u + du
        if abs(du) * max(1.0, c / q) <= _TWO_TERM_RTOL:
            return new
        u = new if lo < new < hi else 0.5 * (lo + hi)
    raise ArithmeticError(f"the two-term root at n = {n}, log t = {log_t} did not converge")


def _log_ratio(tail: float, target: float, log_target: float) -> float:
    """log(tail / target), from the ratio wherever it is a finite normal
    double, so that its rounding is relative to it and not to |log target|;
    elsewhere log(tail) - log_target, and -inf at tail = 0."""
    ratio = tail / target
    if _NORMAL_MIN <= ratio < math.inf:
        return math.log(ratio)
    return math.log(tail) - log_target if tail > 0.0 else -math.inf


def _carried(n: int, k: int, b0: float, p0: float, b: float) -> float:
    """pmf_n(k; b) from p0 = pmf_n(k; b0), or 0.0 where the move is refused.

    pmf_n(k; b) = p0 (b / b0)^k ((1 - b) / (1 - b0))^(n - k)
    = p0 exp(k log1p(u) + (n - k) log1p(v)), with u = (b - b0) / b0 and
    v = (b0 - b) / (1 - b0).  The move is admitted where |u| and |v| are at
    most 1/2 and both products at most 1 in magnitude.  Then b - b0 is exact
    (Sterbenz), u and v are off by an ulp or two, and each product by a few
    units of 2^-53 absolute, so the exponent is good to a few ulps of 1 and
    the result to a few ulps: within 8 ulps of `_pmf` at the same (n, k, b),
    on a hypothesis draw over n <= 1e6 and b0, b from 5e-324 to 1 - 2^-53
    (6 ulps at worst over 2e4 admitted moves, subnormal values included).
    The bounds on u and v keep log1p off -1, where rounding would put a move
    toward 0 or 1 from far away.  A p0 of 0.0 carries 0.0, as a refusal.
    """
    d = b - b0
    u = d / b0
    v = -d / (1.0 - b0)
    if not (-0.5 <= u <= 0.5 and -0.5 <= v <= 0.5):
        return 0.0
    e = k * math.log1p(u)
    f = (n - k) * math.log1p(v)
    return p0 * math.exp(e + f) if -1.0 <= e <= 1.0 and -1.0 <= f <= 1.0 else 0.0


def binom_tail_invert(n: int, y: int, target: float, side: str) -> float:
    """Solve a binomial tail equation for the success probability b.

    side="upper" returns the b with Pr(Y <= y) = target; side="lower" the b
    with Pr(Y >= y) = target.  These are the beta quantiles
    B(1 - target; y + 1, n - y) and B(target; y, n - y + 1).  Degenerate
    cases with no root in (0, 1) return the boundary value 0 or 1.

    Halley's method runs on the log tail h as a function of log b (lower)
    or log(1 - b) (upper).  Both are concave, as the beta densities involved
    are log-concave.  The derivative of the tail in b is -n pmf_{n-1}(y)
    (upper) or n pmf_{n-1}(y - 1) (lower), and n pmf_{n-1}(y) (1 - b) =
    (n - y) pmf_n(y), n pmf_{n-1}(y - 1) b = y pmf_n(y); so the slopes s of
    the log tail are (n - y) pmf_n(y) / tail and y pmf_n(y) / tail.
    pmf_n(y) is the first term of the tail sum `_cdf_sf` has just taken, or
    is one ratio step from it when that sum starts at y - 1 or y + 1.  Then
    h'' = s (a - s), where a is the derivative of log pmf_n(y) in the same
    variable: (n - y) - y (1 - b) / b (upper) or y - (n - y) b / (1 - b)
    (lower).  Halley's step is Newton's -h / s divided by 1 - h h'' / (2 s^2);
    where that divisor lies outside (1/2, 2), far from the root, the step is
    Newton's.  The start is the root itself where the tail has a closed
    form: (1 - b)^n at y = 0 and 1 - b^n at y = n - 1 (upper), b^n at y = n
    and 1 - (1 - b)^n at y = 1 (lower).  Where it has two terms, (1 - c)^(n
    - 1) (1 + (n - 1) c) with c = b at y = 1 (upper) and c = 1 - b at y = n
    - 1 (lower), the start is their root, solved in doubles
    (`_two_term_root`).  Elsewhere it is Paulson's cube-root normal
    approximation to the beta quantile (`_paulson_start`; E. Paulson, Annals
    of Math. Stat. 13, 1942), off by a median 5e-4 relative at n = 30 and
    6e-7 at n = 3000 over the interior Clopper-Pearson ends at alpha = 0.05
    and 0.01, where a Wilson score bound is off by a median 3% at n = 30.
    Below a target of 1e-6, or where Paulson's quadratic has no root, the
    start is the Wilson score bound.  A target t above 1/2, where the log
    tail is flat and its rounding would move b far, is solved as the other
    side's tail at 1 - t, exact by Sterbenz's lemma: Pr(Y <= y) = t exactly
    where Pr(Y >= y + 1) = 1 - t.

    Every iterate lies between the doubles next to 0 and 1: a start or a
    step past one of them is clamped to it, so where the root lies past the
    last double one tail sum there shows it.  A step that leaves the
    bracket, which shrinks at every step, is replaced by bisection.

    h is log(tail / target) wherever that ratio is a finite normal double,
    so that a tiny target costs h no accuracy; log(tail) - log(target)
    would lose about 1e-16 |log target| to rounding.  The first tail sum
    takes its saddle-point anchor.  A sum after a step of at least 2^-13 of
    b, on the same side of the mode as the last one, takes its first term
    pmf_n(k) from the last sum's by `_carried` instead, where that admits
    the move; this saves about a quarter of the anchors at n <= 300, and few
    at large n, where the move must be short.  A carried sum with |h| <=
    1e-13 is retaken with its anchor before its sign or its step is used,
    so that every bracket end next to the root, and so the end a collapsed
    bracket returns, is judged by the tail `binom_cdf` and `binom_sf` give.
    The retake is rare: 7 times in 6719 Clopper-Pearson and seeded
    inversions at n <= 3000.

    One rule decides every stop: iteration stops where the error a step
    leaves is predicted below 2^-56 of b, and returns the step's end without
    a tail sum to confirm it.  From an error e, Halley's step leaves
    (A^2 - B) e^3 + O(e^4), with A = h'' / (2 s) = (a - s) / 2 from the h''
    in hand and B = h''' / (6 s), which is not in hand.  The step is about
    e, so the prediction in b is K step^2 |new - b|, with K = max(1, A^2),
    the 1 standing in for B: a stated rule, not yet a proven bound.  After
    Newton's step |A step| >= 1/2, so the rule holds only for a move below
    2^-54 of b, under half an ulp.  The end returned may lie an ulp or so on
    either side of the root, below the tail's own few-ulp rounding.

    One finish takes the step from a sum at the rounding floor, |h| <=
    1e-13, after an earlier step, since h there is mostly rounding, and a
    step that meets the rule but is rounded past the closed bracket: the
    tail at the step's end if it lies inside the bracket, then at one double
    after another toward the root, until no double is left strictly inside.
    So every end is a tail equal to the target (h = 0), a converged step's
    end inside the bracket, or the end of a collapsed bracket.  The root
    then lies between two adjacent doubles, or past the last double before
    0 or 1, and the end returned widens the interval: the upper end for
    side="upper", the lower end for side="lower", whichever tail a target
    above 1/2 made it solve.
    """
    n = check_int(n, "n", 1)
    y = check_int(y, "y", 0, n)
    target = check_level(target, "target")
    if side not in ("lower", "upper"):
        raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")
    upper = side == "upper"
    if upper and y == n:  # Pr(Y <= n) == 1 for every b: no root
        return 1.0
    if not upper and y == 0:  # Pr(Y >= 0) == 1 for every b: no root
        return 0.0
    wide_end_hi = upper  # the end of a collapsed bracket that widens the interval
    if target > 0.5:  # Pr(Y <= y) = t iff Pr(Y >= y + 1) = 1 - t, exact by Sterbenz
        target = 1.0 - target
        y += 1 if upper else -1
        upper = not upper

    log_target = math.log(target)
    if y == (0 if upper else n):  # (1 - b)^n or b^n equals the target
        b = -math.expm1(log_target / n) if upper else math.exp(log_target / n)
    elif y == (n - 1 if upper else 1):  # b^n or (1 - b)^n equals 1 - target
        b = math.exp(math.log1p(-target) / n) if upper else -math.expm1(math.log1p(-target) / n)
    elif y == (1 if upper else n - 1):  # two terms, in c = b or 1 - b
        u = _two_term_root(n, log_target)
        b = math.exp(u) if upper else -math.expm1(u)
    else:
        b = _paulson_start(n, y, target, upper) if target >= _PAULSON_MIN_TARGET else None
        if b is None:  # too deep a target for Wilson-Hilferty
            z = _normal_quantile(target)
            b = 1.0 - _wilson_lower(n, n - y, z) if upper else _wilson_lower(n, y, z)
    b = min(max(b, _B_MIN), _B_MAX)
    lo, hi = 0.0, 1.0
    j = y if upper else y - 1
    b0, k, pk = b, j, 0.0  # the last sum's iterate, first index and first term
    walk = False  # at the rounding floor: each iterate is the double next to the last
    for i in range(_NEWTON_MAX_STEPS):
        # after a long step on the same side of the mode, the first term is
        # carried from the last sum's where `_carried` admits the move
        first = 0.0
        if abs(b - b0) >= _CARRY_STEP * b0 and k == (j if j < _mode(n, b) else j + 1):
            first = _carried(n, k, b0, pk, b)
        cdf, sf, k, pk = _cdf_sf(n, b, j, first)
        h = _log_ratio(cdf if upper else sf, target, log_target)
        if first > 0.0 and abs(h) <= _CARRY_END_H:  # a sum that may end the inversion takes its anchor
            cdf, sf, k, pk = _cdf_sf(n, b, j)
            h = _log_ratio(cdf if upper else sf, target, log_target)
        tail = cdf if upper else sf
        b0 = b
        # pmf_n(y) from the tail sum's first term pk = pmf_n(k), k in {y - 1, y, y + 1};
        # left to right, so that a subnormal b cannot make the ratio overflow
        py = pk
        if k > y:
            py = py * (y + 1) * (1.0 - b) / ((n - y) * b)
        elif k < y:
            py = py * (n - y + 1) * b / (y * (1.0 - b))
        # d log tail / d log(1 - b) (upper) or d log b (lower)
        slope = py * (n - y if upper else y) / tail if tail > 0.0 else 0.0
        if h == 0.0:
            return b
        if (h > 0.0) == upper:
            lo = b
        else:
            hi = b
        if hi <= math.nextafter(lo, 1.0):  # no double left inside the bracket
            return hi if wide_end_hi else lo
        if walk:
            b = math.nextafter(b, hi if b == lo else lo)
        elif slope > 0.0:
            # Halley's step is Newton's over d = 1 - h h'' / (2 slope^2), with
            # h'' = slope (a - slope) and a = d log pmf_n(y) in the same variable
            a = (n - y) - y * (1.0 - b) / b if upper else y - (n - y) * b / (1.0 - b)
            d = 1.0 - 0.5 * h * (a - slope) / slope
            # Newton's step where d is no modest correction (a subnormal b makes it inf)
            step = h / slope / (d if 0.5 < d < 2.0 else 1.0)
            new = -math.expm1(math.log1p(-b) - step) if upper else b * math.exp(-step)
            floor = i > 0 and abs(h) <= _CARRY_END_H
            # the error left after Halley's step is about (h'' / (2 slope))^2 step^3
            if floor or max(1.0, 0.25 * (a - slope) ** 2) * step * step * abs(new - b) <= _HALLEY_STOP * b:
                if not floor and lo <= new <= hi:
                    return new
                # the floor walk: the tail at the step's end if it is inside,
                # then at one double after another, until the bracket collapses
                walk = True
                b = new if lo < new < hi else math.nextafter(b, hi if b == lo else lo)
            elif lo < new < hi:
                b = new
            else:  # past the bracket: the double next to 0 or 1 if still inside it, else bisection
                new = min(max(new, _B_MIN), _B_MAX)
                b = new if lo < new < hi else 0.5 * (lo + hi)
        else:
            b = 0.5 * (lo + hi)
    raise ArithmeticError(f"binom_tail_invert({n}, {y}, {target}, {side!r}) did not converge")


def _mix64(a: int, b: int) -> int:
    """SplitMix64-style finalizer combining two 64-bit words."""
    x = (a * 0x9E3779B97F4A7C15 + b) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


class SeededStream(namedtuple("SeededStream", "master_seed stream_id", defaults=(0,))):
    """Value-semantics random stream: (master_seed, stream_id) fully determines it.

    Substreams are derived by mixing the stream id, so parallel consumers get
    independent streams regardless of evaluation order.
    """

    __slots__ = ()

    def rng(self) -> np.random.Generator:
        import numpy as np

        return np.random.default_rng(
            np.random.SeedSequence([self.master_seed & _MASK64, self.stream_id & _MASK64])
        )

    def substream(self, child_id: int) -> "SeededStream":
        return SeededStream(self.master_seed, _mix64(self.stream_id, child_id))
