"""CLI surface tests: flags, exit codes, output formats."""

import json
from fractions import Fraction

import pytest

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

    def test_unwritable_out_exits_3(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "simulate-appendix", "--mode", "fully-exact", "--q-max", "0",
            "--out", str(tmp_path / "missing" / "x.csv"),
        )
        assert code == 3  # an I/O error; 2 is left to argparse's usage errors
        assert err.startswith("I/O error:")
