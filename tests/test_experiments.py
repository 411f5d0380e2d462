"""Tests for the grid experiment harness and the toy safety demo."""

import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import binom

import berncert
from berncert.binom import SeededStream
from berncert.experiments import (
    CSV_HEADER,
    AppendixConfig,
    ExperimentRow,
    emit_csv,
    linear_contraction_system,
    rollout_unsafe,
    run_appendix,
    run_safety_demo,
)
from berncert.indicator import PredictionSetKind, monte_carlo_SE_probability


class TestConfig:
    def test_defaults(self):
        config = AppendixConfig()
        assert (config.q_min, config.q_max) == (0, 98)
        assert config.epsilon == Fraction(2, 3)
        assert config.E_of(49) == pytest.approx(0.5)

    def test_regimes_bracket_E(self):
        config = AppendixConfig()
        for q in (0, 49, 98):
            (_, E1, b1), (_, E2, b2) = config.regimes_of(q)
            assert E1 == E2
            assert b1 < E1 < b2

    def test_E_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            AppendixConfig(q_min=99, q_max=99)
        with pytest.raises(ValueError):
            AppendixConfig(q_min=5, q_max=3)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            AppendixConfig(mode="guess")

    @pytest.mark.parametrize("alpha_frac", [2.0, -0.1, float("nan"), "0.005"], ids=repr)
    def test_alpha_frac_outside_unit_interval_rejected(self, alpha_frac):
        # refused by the config itself, not later by a row's b
        with pytest.raises(ValueError, match=r"alpha_frac must lie in \[0, 1\]"):
            AppendixConfig(alpha_frac=alpha_frac, q_min=0, q_max=0, mode="fully_exact")


class TestRunAppendix:
    def test_fully_exact_closed_forms(self):
        config = AppendixConfig(q_min=49, q_max=49, mode="fully_exact")
        rows = {r.regime: r for r in run_appendix(config)}
        above = rows["b_gt_E"]
        assert above.b == pytest.approx(0.5 * 1.005)
        assert above.exact_prob_SE == pytest.approx(0.25250625, abs=1e-12)
        assert above.frac_qbar_covering == 0.0
        below = rows["b_le_E"]
        assert below.exact_prob_SE == 1.0
        assert below.frac_qbar_covering == pytest.approx(1 - 0.4975**2, abs=1e-12)
        assert below.frac_fullspace == pytest.approx(0.4975**2, abs=1e-12)

    def test_bound_never_violated(self):
        rows = run_appendix(AppendixConfig(mode="fully_exact"))
        assert len(rows) == 198
        for r in rows:
            assert r.exact_prob_SE >= r.bound_Esq - 1e-12

    def test_exact_inner_within_tolerance(self):
        config = AppendixConfig(
            q_min=20, q_max=30, n_cal=5000, n_test=1, master_seed=3, mode="exact_inner"
        )
        for r in run_appendix(config):
            tol = 5 * math.sqrt(r.exact_prob_SE * (1 - r.exact_prob_SE) / r.n_cal)
            assert abs(r.h_hat - r.exact_prob_SE) <= tol
            if r.regime == "b_gt_E":
                assert r.frac_qbar_covering == 0.0
            else:
                assert r.h_hat == 1.0

    def test_monte_carlo_within_slackened_tolerance(self):
        # wide regimes (|b - E| = 0.2 E) so inner estimation rarely flips a
        # replicate across the coverage threshold
        config = AppendixConfig(
            q_min=40,
            q_max=45,
            alpha_frac=0.2,
            n_cal=2000,
            n_test=2000,
            master_seed=5,
            mode="monte_carlo",
        )
        for r in run_appendix(config):
            base = 5 * math.sqrt(max(r.exact_prob_SE * (1 - r.exact_prob_SE), 1e-4) / r.n_cal)
            inner_slack = 5 * math.sqrt(0.25 / r.n_test)
            assert abs(r.h_hat - r.exact_prob_SE) <= base + inner_slack

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_monte_carlo_rows_match_finite_test_target(self, seed):
        # paper settings; a row's substream depends on q alone, so a one-q
        # sweep gives the same rows as the full one
        for q in (0, 2, 39, 70, 98):
            config = AppendixConfig(q_min=q, q_max=q, master_seed=seed, mode="monte_carlo")
            for r in run_appendix(config):
                target = monte_carlo_SE_probability(r.b, config.n_calibration_size, config.epsilon, r.E, r.n_test)
                covered = round(r.h_hat * r.n_cal)
                two_sided = 2 * min(binom.cdf(covered, r.n_cal, target), binom.sf(covered - 1, r.n_cal, target))
                assert two_sided >= 1e-9, (r, target)

    FIRST_IMPORT = """
import sys
from berncert.experiments import AppendixConfig, run_appendix
for mode in ("exact_inner", "monte_carlo"):
    rows = run_appendix(AppendixConfig(q_min=10, q_max=14, n_cal=500, master_seed=9, mode=mode))
    print(repr([(r.q, r.regime, r.h_hat, r.frac_fullspace) for r in rows]))
print("numpy" in sys.modules)
"""

    def test_first_numpy_import_in_fresh_interpreter(self, tmp_path):
        """Neither the sweep nor its command imports numpy, in any mode: in
        a fresh interpreter a Monte Carlo sweep leaves numpy unloaded, with
        the rows of this process, and `simulate-appendix` imports no numpy
        module and writes the CSV of this process's rows."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(berncert.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        *out, numpy_loaded = subprocess.run(
            [sys.executable, "-c", self.FIRST_IMPORT],
            capture_output=True, text=True, env=env, check=True, timeout=60,
        ).stdout.splitlines()
        assert numpy_loaded == "False"
        expected = []
        for mode in ("exact_inner", "monte_carlo"):
            rows = run_appendix(AppendixConfig(q_min=10, q_max=14, n_cal=500, master_seed=9, mode=mode))
            expected.append(repr([(r.q, r.regime, r.h_hat, r.frac_fullspace) for r in rows]))
        assert out == expected
        for mode in ("exact-inner", "monte-carlo", "fully-exact"):
            path, reference = tmp_path / f"{mode}.csv", tmp_path / f"{mode}-reference.csv"
            argv = ["--q-min", "10", "--q-max", "14", "--n-cal", "500", "--n-test", "300", "--seed", "9"]
            imports = subprocess.run(
                [sys.executable, "-X", "importtime", "-m", "berncert.cli", "simulate-appendix", *argv,
                 "--mode", mode, "--out", str(path)],
                capture_output=True, text=True, env=env, check=True, timeout=60,
            ).stderr
            modules = {line.rpartition("|")[2].strip() for line in imports.splitlines()}
            assert "berncert.experiments" in modules
            assert not {name for name in modules if name.partition(".")[0] == "numpy"}, mode
            config = AppendixConfig(q_min=10, q_max=14, n_cal=500, n_test=300, master_seed=9, mode=mode.replace("-", "_"))
            emit_csv(run_appendix(config), reference)
            assert path.read_bytes() == reference.read_bytes()

    # (q, regime, h_hat, frac_fullspace, frac_qbar_covering) for q = 38..40,
    # n_cal = 300, n_test = 200, master_seed = 17
    PINNED = {
        "monte_carlo": [
            (38, "b_le_E", 0.6366666666666667, 0.15666666666666668, 0.48),
            (38, "b_gt_E", 0.5533333333333333, 0.15666666666666668, 0.39666666666666667),
            (39, "b_le_E", 0.68, 0.19333333333333333, 0.4866666666666667),
            (39, "b_gt_E", 0.5966666666666667, 0.21333333333333335, 0.38333333333333336),
            (40, "b_le_E", 0.5966666666666667, 0.16, 0.43666666666666665),
            (40, "b_gt_E", 0.58, 0.12666666666666668, 0.4533333333333333),
        ],
        "exact_inner": [
            (38, "b_le_E", 1.0, 0.15666666666666668, 0.8433333333333334),
            (38, "b_gt_E", 0.15666666666666668, 0.15666666666666668, 0.0),
            (39, "b_le_E", 1.0, 0.19333333333333333, 0.8066666666666666),
            (39, "b_gt_E", 0.21333333333333335, 0.21333333333333335, 0.0),
            (40, "b_le_E", 1.0, 0.16, 0.84),
            (40, "b_gt_E", 0.12666666666666668, 0.12666666666666668, 0.0),
        ],
    }

    @pytest.mark.parametrize("mode", sorted(PINNED))
    def test_seeded_rows_pinned(self, mode):
        config = AppendixConfig(q_min=38, q_max=40, n_cal=300, n_test=200, master_seed=17, mode=mode)
        rows = run_appendix(config)
        got = [(r.q, r.regime, r.h_hat, r.frac_fullspace, r.frac_qbar_covering) for r in rows]
        assert got == self.PINNED[mode]


class TestEmitCsv:
    def test_single_row(self, tmp_path):
        rows = run_appendix(AppendixConfig(q_min=0, q_max=0, mode="fully_exact"))[:1]
        path = tmp_path / "one.csv"
        emit_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2

    def test_fully_exact_bytes_pinned(self, tmp_path):
        rows = run_appendix(AppendixConfig(q_min=49, q_max=49, mode="fully_exact"))
        path = tmp_path / "q49.csv"
        emit_csv(rows, path)
        assert path.read_bytes() == (
            b"q,E,b,regime,mode,h_hat,exact_prob_SE,bound_Esq,frac_fullspace,frac_qbar_covering,n_cal,n_test,seed\n"
            b"49,0.5,0.4975,b_le_E,fully_exact,1,1,0.25,0.24750625,0.75249375,50000,50000,0\n"
            b"49,0.5,0.5025,b_gt_E,fully_exact,0.25250625,0.25250625,0.25,0.25250625,0,50000,50000,0\n"
        )

    def test_full_grid_line_count(self, tmp_path):
        rows = run_appendix(AppendixConfig(mode="fully_exact"))
        path = tmp_path / "grid.csv"
        emit_csv(rows, path)
        assert len(path.read_text().splitlines()) == 199

    def test_byte_identical_rerun(self, tmp_path):
        config = AppendixConfig(q_min=0, q_max=4, n_cal=300, master_seed=21)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_appendix(config), p1)
        emit_csv(run_appendix(config), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([], tmp_path / "x.csv")

    def test_unwritable_path(self):
        rows = run_appendix(AppendixConfig(q_min=0, q_max=0, mode="fully_exact"))
        with pytest.raises(OSError):
            emit_csv(rows, "/nonexistent-dir/x.csv")


class TestSafetyDemo:
    def test_unreachable_unsafe_set(self):
        system = linear_contraction_system(threshold=10.0)
        report = run_safety_demo(
            system, 100, 0.05, Fraction(2, 3), 0.4, SeededStream(1)
        )
        assert report.n_unsafe == 0
        assert report.interval.lower == 0.0
        assert report.interval.upper == pytest.approx(1 - 0.025 ** (1 / 100), abs=1e-9)

    def test_everything_unsafe(self):
        system = linear_contraction_system(threshold=0.0)
        report = run_safety_demo(
            system, 100, 0.05, Fraction(2, 3), 0.4, SeededStream(2)
        )
        assert report.n_unsafe == 100
        assert report.interval.upper == 1.0
        assert report.interval.lower == pytest.approx(0.025 ** (1 / 100), abs=1e-9)

    def test_contraction_never_enters_unsafe_later(self):
        system = linear_contraction_system()
        x0 = np.linspace(-2, 2, 4001)
        unsafe = rollout_unsafe(system, x0)
        assert np.array_equal(unsafe, np.abs(x0) > 1)

    def test_interval_covers_true_half(self):
        system = linear_contraction_system()
        report = run_safety_demo(
            system, 400, 0.05, Fraction(2, 3), 0.4, SeededStream(3)
        )
        assert report.interval.contains(0.5)
        assert report.prediction in (
            PredictionSetKind.Q_COMPLEMENT,
            PredictionSetKind.FULL_SPACE,
        )
        assert "not" in report.note

    def test_invalid_n_cal(self):
        with pytest.raises(ValueError):
            run_safety_demo(
                linear_contraction_system(), 0, 0.05, Fraction(2, 3), 0.4, SeededStream(0)
            )
