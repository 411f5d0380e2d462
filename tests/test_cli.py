"""CLI surface tests: flags, exit codes, output formats."""

import argparse
import json
import math
from fractions import Fraction

import pytest

from berncert.binom import binom_cdf
from berncert.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBpci:
    def test_zero_successes(self, capsys):
        code, out, _ = run_cli(capsys, "bpci", "--n", "10", "--successes", "0", "--alpha", "0.05")
        assert code == 0
        # 1 - 0.025**(1/10) = 0.30849710781876..., to the 13 digits printed
        assert "upper = 0.3084971078188\n" in out

    def test_all_successes(self, capsys):
        code, out, _ = run_cli(capsys, "bpci", "--n", "2", "--successes", "2", "--alpha", "0.1")
        assert code == 0
        assert "lower = 0.22360679775" in out

    def test_successes_above_n_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "bpci", "--n", "10", "--successes", "11", "--alpha", "0.05")
        assert code == 1
        assert "successes" in err

    @pytest.mark.parametrize("n,y", [(2**53 + 1, 1), (10**16, 10**16 - 1), (10**18, 1), (10**301, 0)],
                             ids=["2**53+1", "10**16", "10**18", "10**301"])
    def test_trial_count_past_the_domain_exits_1(self, capsys, n, y):
        """n past 2^53, where n - 1 rounds to n as a float.  Before the domain
        was stated, the middle two raised ZeroDivisionError in the pmf and
        ValueError from log1p(-1.0), and the last computed with NaN."""
        code, out, err = run_cli(capsys, "bpci", "--n", str(n), "--successes", str(y))
        assert code == 1 and out == ""
        assert err.startswith("error: n must be an integer in [1, 9007199254740992], got ")

    def test_json_round_trip(self, capsys):
        args = ["bpci", "--n", "10", "--successes", "3", "--alpha", "0.05", "--json"]
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        record = json.loads(out)
        assert record["n"] == 10 and record["successes"] == 3
        # re-printing the parsed record is the identity
        assert json.dumps(record, sort_keys=True) == out.strip()

    def test_collapsed_bracket_exits_0(self, capsys):
        # alpha / 2 puts the upper end between two adjacent doubles
        args = ["bpci", "--n", "11", "--successes", "6", "--alpha", "0.5433521008097646"]
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        assert "upper = 0.6736606202466\n" in out

    def test_subnormal_level_exits_0(self, capsys):
        """alpha / 2 = 6.601275e-318: near the lower end the anchored tail
        stays the same for millions of doubles, where the floor walk of one
        double a step ran out of steps and the command exited 1 with a
        traceback."""
        args = ["bpci", "--n", "2931", "--successes", "2564", "--alpha", "1.320255e-317", "--json"]
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        record = json.loads(out)
        assert 0.0 < record["lower"] < record["upper"] < 1.0

    def test_subnormal_level_wide_side(self, capsys):
        """alpha / 2 = 1e-323: the upper end is the double on the wide side by
        `binom_cdf`, Pr(Y <= 649) <= 1e-323 there and above it one double
        below.  Returning a converged Halley step's end at this subnormal
        target printed 0.31089010598593936, on the inner side."""
        args = ["bpci", "--n", "6173", "--successes", "649", "--alpha", "2e-323", "--json"]
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        upper = json.loads(out)["upper"]
        assert binom_cdf(6173, upper, 649) <= 1e-323 <= binom_cdf(6173, math.nextafter(upper, 0.0), 649)

    def test_alpha_as_double(self, capsys):
        """--alpha is read as the double float(Fraction(text)) gives, without
        `fractions`: a ratio and its decimal give the same interval, and what
        Fraction() refuses or puts outside [0, 1] is a usage error."""
        args = ["bpci", "--n", "10", "--successes", "3", "--json"]
        outs = {text: run_cli(capsys, *args, "--alpha", text) for text in ("1/20", "0.05", " 1_0/20_0 ")}
        assert len({out for _, out, _ in outs.values()}) == 1
        assert json.loads(outs["1/20"][1])["alpha"] == 0.05
        for text in ("3/2", "1/0", "-1/-2", "1 /2", "nan", "inf", "x"):
            with pytest.raises(SystemExit) as excinfo:
                main([*args, "--alpha", text])
            assert excinfo.value.code == 2, text
        capsys.readouterr()

    def test_method_is_constant(self, capsys):
        args = ["bpci", "--n", "10", "--successes", "3"]
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        assert out.startswith("method = clopper-pearson\n")
        code, out, _ = run_cli(capsys, *args, "--json")
        assert code == 0
        assert json.loads(out)["method"] == "clopper-pearson"
        with pytest.raises(SystemExit) as excinfo:
            main([*args, "--method", "clopper-pearson"])
        assert excinfo.value.code == 2  # the option is gone

    def test_level_whose_half_underflows_exits_1(self, capsys):
        args = ["bpci", "--n", "10", "--successes", "3", "--alpha"]
        code, out, err = run_cli(capsys, *args, "5e-324")
        assert code == 1 and out == ""
        assert err.startswith("error: alpha ")
        code, out, _ = run_cli(capsys, *args, "1e-323")
        assert code == 0
        assert "lower = 3.453036244796e-109\n" in out


class TestCpBound:
    def test_eq8_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "cp-bound", "--n", "2", "--epsilon", "0.6667", "--coverage", "0.4"
        )
        assert code == 0
        assert "J = 1" in out
        assert "confidence (1 - delta) = 0.16" in out

    def test_exact_fraction_epsilon(self, capsys):
        code, out, _ = run_cli(
            capsys, "cp-bound", "--n", "2", "--epsilon", "2/3", "--coverage", "0.4"
        )
        assert code == 0
        assert "J = 1" in out

    def test_epsilon_zero_vacuous(self, capsys):
        code, out, _ = run_cli(
            capsys, "cp-bound", "--n", "2", "--epsilon", "0", "--coverage", "0.4"
        )
        assert code == 0
        assert "J = -1" in out
        assert "confidence (1 - delta) = 1" in out

    def test_nine_trials(self, capsys):
        code, out, _ = run_cli(
            capsys, "cp-bound", "--n", "9", "--epsilon", "0.5", "--coverage", "0.1"
        )
        assert code == 0
        assert "delta = 0.99910908" in out

    def test_invalid_probability_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["cp-bound", "--n", "2", "--epsilon", "1.5", "--coverage", "0.4"])
        assert excinfo.value.code == 2  # argparse usage error


class TestCounterexample:
    def test_invalid_verdict(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "counterexample", "--b", "0.5", "--coverage", "0.4", "--epsilon", "2/3", "--n", "2",
        )
        assert code == 0
        assert "prob_SE = 0.25" in out
        assert "conditional coverage = 0" in out
        assert "verdict: INVALID" in out

    def test_valid_verdict(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "counterexample", "--b", "0.3", "--coverage", "0.5", "--epsilon", "2/3", "--n", "2",
        )
        assert code == 0
        assert "prob_SE = 1" in out
        assert "conditional coverage = 1" in out
        assert "verdict: VALID" in out

    def test_claim_never_issued(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "counterexample", "--b", "1", "--coverage", "0.5", "--epsilon", "2/3", "--n", "2",
        )
        assert code == 0
        assert "claim never issued" in out

    def test_knife_edge_case_table_agrees(self, capsys):
        # b is the double just above E: outside the coverage event, so only
        # the full-space case (probability b^2) is in it, as prob_SE says
        code, out, _ = run_cli(
            capsys,
            "counterexample", "--b", "0.30000000000000004", "--coverage", "0.3",
            "--epsilon", "2/3", "--n", "2", "--show-cases",
        )
        assert code == 0
        assert "prob_SE = 0.09\n" in out
        cases = [line for line in out.splitlines() if line.startswith("  case [")]
        assert [line.endswith("in_SE=True") for line in cases] == [False, False, True]

    def test_show_cases_needs_n_2(self, capsys):
        code, out, err = run_cli(
            capsys,
            "counterexample", "--b", "0.3", "--coverage", "0.5", "--epsilon", "2/3",
            "--n", "3", "--show-cases",
        )
        assert code == 1
        assert "n = 2" in err
        assert out == ""


class TestSimulateAppendix:
    def test_fully_exact_grid(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, out, _ = run_cli(
            capsys, "simulate-appendix", "--mode", "fully-exact", "--out", str(out_path)
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 199
        assert "min margin" in out
        margin = float(out.split("=")[-1])
        assert margin >= 0

    @pytest.mark.parametrize("mode", ["fully-exact", "exact-inner", "monte-carlo"])
    def test_modes_report_deviation_and_margin(self, capsys, tmp_path, mode):
        out_path = tmp_path / "grid.csv"
        code, out, _ = run_cli(
            capsys, "simulate-appendix", "--mode", mode, "--n-cal", "5000", "--n-test", "5000", "--out", str(out_path)
        )
        assert code == 0
        assert len(out_path.read_text().splitlines()) == 199  # header + 99 q values x 2 regimes
        *_, deviation, margin = out.splitlines()
        assert margin.startswith("min margin exact_prob_SE - bound = ")
        assert float(margin.split("=")[-1]) >= 0
        # every row against its own target, in standard errors: exact_prob_SE,
        # or in monte-carlo mode the finite-test target; a fully-exact row is its target
        label, value = deviation.split(" = ")
        assert label == "max |h_hat - target|/sigma"
        assert float(value) < 6
        assert (float(value) == 0) == (mode == "fully-exact")

    def test_monte_carlo_target_of_one_met_exactly(self, capsys, tmp_path):
        # alpha_frac = 1 at E = 0.61 puts the regimes at b = 0 and b = 1, where
        # the target is 1 and sigma 0: every replicate covers, so the deviation is 0
        code, out, _ = run_cli(
            capsys, "simulate-appendix", "--mode", "monte-carlo", "--alpha-frac", "1", "--q-min", "60", "--q-max", "60",
            "--n-cal", "50", "--n-test", "50", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 0
        assert "max |h_hat - target|/sigma = 0\n" in out

    def test_mode_choices_are_modes(self):
        """The parser names the modes itself, since `bpci` must not import
        `experiments`; read with underscores, its choices are MODES."""
        from berncert.cli import _build_parser
        from berncert.experiments import MODES

        (commands,) = (a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        (mode,) = (a for a in commands.choices["simulate-appendix"]._actions if a.dest == "mode")
        assert tuple(choice.replace("-", "_") for choice in mode.choices) == MODES

    def test_exact_inner_seeded(self, capsys, tmp_path):
        out_path = tmp_path / "ei.csv"
        code, _, _ = run_cli(
            capsys,
            "simulate-appendix",
            "--mode", "exact-inner", "--n-cal", "1000", "--seed", "7",
            "--q-min", "10", "--q-max", "12",
            "--out", str(out_path),
        )
        assert code == 0
        assert len(out_path.read_text().splitlines()) == 7

    @staticmethod
    def sweep_config(capsys, tmp_path, monkeypatch, *argv):
        """The AppendixConfig the command builds from `argv`; the sweep run is
        only its first row pair, in fully_exact mode."""
        import berncert.experiments as experiments

        configs = []
        run = experiments.run_appendix

        def recorded(config):
            configs.append(config)
            return run(config._replace(q_min=0, q_max=0, mode="fully_exact"))

        monkeypatch.setattr(experiments, "run_appendix", recorded)
        code, _, _ = run_cli(capsys, "simulate-appendix", *argv, "--out", str(tmp_path / "x.csv"))
        assert code == 0
        return configs[0]

    def test_defaults_are_appendix_config(self, capsys, tmp_path, monkeypatch):
        from berncert.experiments import AppendixConfig

        config = self.sweep_config(capsys, tmp_path, monkeypatch)
        assert config == AppendixConfig()
        assert config.n_cal == config.n_test == 50_000  # the paper's scale

    def test_options_given_replace_fields(self, capsys, tmp_path, monkeypatch):
        from berncert.experiments import AppendixConfig

        config = self.sweep_config(
            capsys, tmp_path, monkeypatch,
            "--q-min", "3", "--q-max", "5", "--alpha-frac", "1/100", "--epsilon", "1/2",
            "--n-cal", "1000", "--n-test", "20", "--cal-size", "3", "--seed", "7", "--mode", "monte-carlo",
        )
        assert config == AppendixConfig(
            q_min=3, q_max=5, alpha_frac=0.01, epsilon=Fraction(1, 2), n_cal=1000, n_test=20,
            n_calibration_size=3, master_seed=7, mode="monte_carlo",
        )
        config = self.sweep_config(capsys, tmp_path, monkeypatch, "--n-test", "20")
        assert config == AppendixConfig(n_test=20)

    def test_q_out_of_range_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "simulate-appendix", "--q-min", "99", "--out", str(tmp_path / "x.csv")
        )
        assert code == 1
        assert "q" in err

    def test_n_test_past_domain_exits_1_before_writing(self, capsys, tmp_path):
        # refused by the config, before any row is computed or the CSV written
        out_path = tmp_path / "x.csv"
        code, out, err = run_cli(
            capsys, "simulate-appendix", "--mode", "monte-carlo", "--q-min", "0", "--q-max", "0",
            "--n-cal", "10", "--n-test", "9007199254740993", "--out", str(out_path),
        )
        assert code == 1
        assert "n_test" in err
        assert out == ""
        assert not out_path.exists()

    def test_unwritable_out_exits_3(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "simulate-appendix", "--mode", "fully-exact", "--q-max", "0",
            "--out", str(tmp_path / "missing" / "x.csv"),
        )
        assert code == 3  # an I/O error; 2 is left to argparse's usage errors
        assert err.startswith("I/O error:")


class TestSafetyDemo:
    DEFAULT_OUTPUT = (
        "unsafe trajectories: 53/100\n"
        "interval estimate for unsafe probability (alpha=0.05): [0.427581, 0.630595]\n"
        "conformal prediction set: Q_complement\n"
        "coverage-event bound: confidence 0.000000 at E = 0.4\n"
        "note: the interval is a confidence interval for the unsafe probability; "
        "the conformal prediction-set bound is not, and must not be read as one\n"
    )

    def test_default_output(self, capsys):
        assert run_cli(capsys, "safety-demo") == (0, self.DEFAULT_OUTPUT, "")
        args = ["safety-demo", "--n-cal", "100", "--alpha", "0.05", "--coverage", "0.4", "--seed", "0"]
        assert run_cli(capsys, *args) == (0, self.DEFAULT_OUTPUT, "")

    def test_options(self, capsys):
        code, out, _ = run_cli(capsys, "safety-demo", "--n-cal", "37", "--seed", "5")
        assert code == 0
        assert out.startswith(
            "unsafe trajectories: 21/37\n"
            "interval estimate for unsafe probability (alpha=0.05): [0.394884, 0.729021]\n"
            "conformal prediction set: Q_complement\n"
            "coverage-event bound: confidence 0.000643 at E = 0.4\n"
        )

    def test_alpha_as_ratio(self, capsys):
        assert run_cli(capsys, "safety-demo", "--alpha", "1/20") == (0, self.DEFAULT_OUTPUT, "")

    def test_domain_and_usage_errors(self, capsys):
        code, out, err = run_cli(capsys, "safety-demo", "--alpha", "1")
        assert code == 1 and out == ""
        assert err.startswith("error: alpha ")
        code, _, err = run_cli(capsys, "safety-demo", "--n-cal", "0")
        assert code == 1
        assert err.startswith("error: n_cal ")
        with pytest.raises(SystemExit) as excinfo:
            main(["safety-demo", "--alpha", "2"])
        assert excinfo.value.code == 2
        capsys.readouterr()


# ratios, decimals, exponents down to the least subnormal and past it,
# underscores, spaces, signed zeros, and texts that are no probability
PROBABILITY_TEXTS = [
    "0", "-0", "+0", "0.0", "-0.0", "0/7", "-0/7", "0e5", "1", "1.0", "1/1", "+1", "10/10", "1/3", "2/3",
    " 1/3 ", "+2/3", "1_0/3_0", "0.4", "4e-1", ".4", "4.", "0.4_0", "0.39999999999999997", "0.1", "1e-300",
    "5e-324", "2.5e-324", "2e-324", "1e-400", "1/" + "9" * 400, "9" * 400 + "/" + "1" + "0" * 400,
    "3/2", "-1/3", "1.5", "1/0", "-1e-300", "nan", "inf", "1 /3", "0x1p-3", "x", "",
]


def _nearest_double(text):
    """repr of the double nearest the exact value of `text`, or None where
    Fraction refuses it or puts it outside [0, 1]."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None
    return repr(float(value)) if 0 <= value <= 1 else None


class TestProbabilityOptions:
    """Every probability option except --epsilon takes the double nearest its
    text's exact value: a text gives the output of that double's repr, and
    what Fraction refuses or puts outside [0, 1] is a usage error."""

    COMMANDS = {
        "counterexample --b": ["counterexample", "--coverage", "0.4", "--epsilon", "2/3", "--n", "2",
                               "--show-cases", "--b"],
        "counterexample --coverage": ["counterexample", "--b", "0.4", "--epsilon", "2/3", "--n", "2",
                                      "--show-cases", "--coverage"],
        "cp-bound --coverage": ["cp-bound", "--n", "20", "--epsilon", "1/10", "--coverage"],
        "cp-bound --json --coverage": ["cp-bound", "--n", "20", "--epsilon", "1/10", "--json", "--coverage"],
        "simulate-appendix --alpha-frac": ["simulate-appendix", "--mode", "fully-exact", "--q-max", "3",
                                           "--alpha-frac"],
    }

    @staticmethod
    def output(capsys, tmp_path, argv, value):
        path = tmp_path / "grid.csv"
        args = [*argv[:-1], f"{argv[-1]}={value}"]  # "=", so that "-0" is not read as an option
        if argv[0] == "simulate-appendix":
            args += ["--out", str(path)]
        code, out, err = run_cli(capsys, *args)
        return code, out, err, path.read_bytes() if path.exists() else None

    @pytest.mark.parametrize("command", COMMANDS)
    def test_nearest_double(self, capsys, tmp_path, command):
        argv = self.COMMANDS[command]
        for text in PROBABILITY_TEXTS:
            reference = _nearest_double(text)
            if reference is None:
                with pytest.raises(SystemExit) as excinfo:
                    main([*argv[:-1], f"{argv[-1]}={text}"])
                assert excinfo.value.code == 2, text
                assert repr(text) in capsys.readouterr().err
                continue
            assert self.output(capsys, tmp_path, argv, text) == self.output(capsys, tmp_path, argv, reference), text
