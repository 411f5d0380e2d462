"""berncert: binomial proportion confidence intervals next to
training-conditional conformal prediction, with exact closed forms for the
Bernoulli-indicator special case.

Each public name resolves from its submodule on first access (PEP 562), so
`import berncert` loads no submodule and a caller loads only those it uses.
"""

import importlib

_EXPORTS = {
    "binom": ("SeededStream", "binom_cdf", "binom_pmf", "binom_sf", "binom_tail_invert"),
    "conformal": (
        "CalibrationScores", "IndicatorINM", "PacBound", "PacParams",
        "estimate_SE_probability", "inp_contains", "p_value", "theorem1_bound",
    ),
    "indicator": (
        "ClaimNeverIssuedError", "ExactSEResult", "PredictionSetKind", "enumerate_example1",
        "exact_SE_probability", "inp_closed_form", "monte_carlo_SE_probability", "naive_interval_coverage",
    ),
    "intervals": (
        "ClopperPearson", "EndpointTable", "IntervalEstimate", "clopper_pearson", "coverage_probability",
        "verify_conservative_validity",
    ),
}
# public name -> the submodule that defines it
_SOURCES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCES)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCES[name]}"), name)
    globals()[name] = value  # bound, so later lookups do not come here
    return value
