"""Tests for exact binomial computations and seeded streams."""

import math
import os
import random
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import berncert
import berncert.binom
from berncert.binom import (
    SeededStream,
    _cdf_sf,
    _pmf,
    binom_cdf,
    binom_pmf,
    binom_pmf_vector,
    binom_sf,
    binom_tail_invert,
    draw_bernoulli,
)
from berncert.intervals import clopper_pearson
from helpers import ref_cdf_sf, ref_pmf


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


# roots between two adjacent doubles, where no Newton step from either one
# lands inside the collapsed bracket
COLLAPSED_BRACKET_CASES = [(11, 6, 0.2716760504048823), (124, 32, 0.005), (47, 19, 0.4031792535164339)]


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

    @pytest.mark.parametrize(
        "n,y,t,side",
        [(10, 3, 0.025, "upper"), (10, 3, 0.025, "lower"), (200, 0, 0.005, "upper"),
         (200, 200, 0.005, "lower"), (256, 90, 0.3, "upper"), (256, 90, 0.3, "lower")],
    )
    def test_one_anchor_per_tail_evaluation(self, monkeypatch, n, y, t, side):
        """The Newton slope comes from the first term of the tail sum just
        taken, so the inversion computes no saddle-point anchor beyond those
        the tail sums make: at n <= 256 one each."""
        counts = {"pmf": 0, "tail": 0}

        def counted(name, f):
            def wrapper(*args):
                counts[name] += 1
                return f(*args)
            return wrapper

        monkeypatch.setattr(berncert.binom, "_pmf", counted("pmf", berncert.binom._pmf))
        monkeypatch.setattr(berncert.binom, "_cdf_sf", counted("tail", berncert.binom._cdf_sf))
        binom_tail_invert(n, y, t, side)
        assert counts["tail"] > 0
        assert counts["pmf"] == counts["tail"]

    def test_seeded_sweep_converges(self):
        """2000 random cases, each inverted without ArithmeticError.  A
        collapsed bracket is rare (about 1 case in 3e4 at n <= 300 and
        Clopper-Pearson targets); the seed is one whose cases hold one,
        (47, 19, 0.4031792535164339, "upper")."""
        rng = random.Random(45)
        for _ in range(2000):
            n = rng.randint(1, 300)
            side = rng.choice(("lower", "upper"))
            y = rng.randint(1, n) if side == "lower" else rng.randint(0, n - 1)
            t = rng.choice((0.005, 0.025, rng.random()))
            assert 0.0 <= binom_tail_invert(n, y, t, side) <= 1.0


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
        for y in range(0, n + 1, max(1, n // 997)):
            exact = binom_pmf(n, b, y)
            if exact >= SMALLEST_CHECKED:
                assert abs(vec[y] - exact) <= KERNEL_RTOL * exact, (n, b, y)

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
    *_, status, loaded = _probe(CLI_PROBE, *argv).splitlines()
    # no numpy, and no dataclasses (and its inspect), which cost start-up
    assert status.split()[:3] == ["0", "False", "False"]
    if argv[0] == "bpci":
        # the interval needs the kernel and the estimator, and no other submodule
        assert loaded.split() == ["berncert", "berncert.binom", "berncert.cli", "berncert.intervals"]


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
