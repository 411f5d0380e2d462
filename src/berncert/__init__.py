"""berncert: binomial proportion confidence intervals next to
training-conditional conformal prediction, with exact closed forms for the
Bernoulli-indicator special case."""

from .binom import (
    SeededStream,
    binom_cdf,
    binom_pmf,
    binom_sf,
    binom_tail_invert,
    draw_bernoulli,
)
from .conformal import (
    CalibrationScores,
    IndicatorINM,
    PacBound,
    PacParams,
    estimate_SE_probability,
    inp_contains,
    p_value,
    theorem1_bound,
)
from .indicator import (
    ClaimNeverIssuedError,
    ExactSEResult,
    PredictionSetKind,
    enumerate_example1,
    exact_SE_probability,
    inp_closed_form,
    naive_interval_coverage,
)
from .intervals import (
    ClopperPearson,
    FullInterval,
    IntervalEstimate,
    clopper_pearson,
    coverage_probability,
    pac_form_check,
    verify_conservative_validity,
)

__version__ = "0.1.0"
