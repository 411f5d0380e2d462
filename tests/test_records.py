"""Every record is a named tuple: it survives copy, deepcopy and pickle
equal to itself, and a checked record checks again on `_replace`."""

import copy
import pickle
from fractions import Fraction

import pytest

from berncert.binom import SeededStream
from berncert.conformal import CalibrationScores, IndicatorINM, PacParams, estimate_SE_probability, theorem1_bound
from berncert.experiments import AppendixConfig, linear_contraction_system, run_appendix, run_safety_demo
from berncert.indicator import enumerate_example1, exact_SE_probability, naive_interval_coverage
from berncert.intervals import (
    ClopperPearson,
    EndpointTable,
    clopper_pearson,
    coverage_probability,
    verify_conservative_validity,
)
from helpers import indicator_sampler

PARAMS = PacParams(epsilon=Fraction(2, 3), coverage_E=0.4, n=5)


def _records():
    """One instance of each record type, by name."""
    table = enumerate_example1(0.3, Fraction(2, 3), 0.5)
    inm = IndicatorINM(lambda z: z == 1, target_prob=0.3)
    return {
        "IntervalEstimate": clopper_pearson(10, 3, 0.05),
        "EndpointTable": EndpointTable.of(ClopperPearson(5, 0.05), 5),
        "CoverageReport": coverage_probability(ClopperPearson(5, 0.05), 0.3, 5),
        "ValidityReport": verify_conservative_validity(ClopperPearson(5, 0.05), 5, 0.05),
        "SeededStream": SeededStream(7, 3),
        "CalibrationScores": CalibrationScores((0.0, 1.0, 1.0)),
        "PacParams": PARAMS,
        "PacBound": theorem1_bound(PARAMS),
        "GuaranteeReport": estimate_SE_probability(inm, indicator_sampler(0.3), PARAMS, 20, 20, SeededStream(1)),
        "ExactSEResult": exact_SE_probability(0.3, 2, Fraction(2, 3), 0.5),
        "Example1Case": table.cases[0],
        "Example1Table": table,
        "NaiveIntervalReport": naive_interval_coverage(0.3, 0.5, 2, Fraction(2, 3)),
        "AppendixConfig": AppendixConfig(q_max=1, master_seed=-4, mode="fully_exact"),
        "ExperimentRow": run_appendix(AppendixConfig(q_max=0, mode="fully_exact"))[0],
        "ToySafetySystem": linear_contraction_system(),
        "SafetyDemoReport": run_safety_demo(
            linear_contraction_system(), 20, 0.05, Fraction(1, 2), 0.3, SeededStream(5)),
    }


RECORDS = _records()


@pytest.mark.parametrize("name", RECORDS)
def test_copy_round_trip(name):
    record = RECORDS[name]
    assert type(record).__name__ == name
    for clone in (copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is type(record)
        assert clone == record


@pytest.mark.parametrize("name", [name for name in RECORDS if name != "ToySafetySystem"])  # holds lambdas
def test_pickle_round_trip(name):
    record = RECORDS[name]
    clone = pickle.loads(pickle.dumps(record))
    assert type(clone) is type(record)
    assert clone == record


def test_pac_params_replace_checks_and_derives_J():
    assert PARAMS.J == 3
    assert PARAMS._replace(n=11).J == 7
    assert PARAMS._replace(epsilon=Fraction(1, 3)).J == 1
    assert PARAMS._replace(J=0) == PARAMS  # J is derived, not set
    with pytest.raises(ValueError, match="calibration size"):
        PARAMS._replace(n=0)
    with pytest.raises(ValueError, match="coverage_E"):
        PARAMS._replace(coverage_E=1.5)


@pytest.mark.parametrize(
    "record, change, message",
    [
        (CalibrationScores((1.0,)), {"scores": ()}, "calibration size"),
        (EndpointTable(2, [0.0] * 3, [1.0] * 3), {"n": 3}, "lowers and uppers must hold"),
        (EndpointTable(2, [0.0] * 3, [1.0] * 3), {"uppers": [1.0, 1.0, 1.5]}, r"lowers\[2\], uppers\[2\]"),
        (AppendixConfig(), {"master_seed": 1.5}, "master_seed"),
        (AppendixConfig(), {"q_max": -1}, "q_max"),
        (AppendixConfig(), {"mode": "exact"}, "mode"),
        (AppendixConfig(), {"epsilon": 1}, r"epsilon must lie in \[0, 1\)"),
        (linear_contraction_system(), {"horizon": 2.5}, "horizon"),
    ],
    ids=["CalibrationScores scores", "EndpointTable n", "EndpointTable uppers", "AppendixConfig master_seed",
         "AppendixConfig q_max", "AppendixConfig mode", "AppendixConfig epsilon", "ToySafetySystem horizon"],
)
def test_replace_checks(record, change, message):
    with pytest.raises(ValueError, match=message):
        record._replace(**change)
