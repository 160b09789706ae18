"""Numerical verification of l1 concentration bounds for multinomial and
Dirichlet distributions, including the asymptotic limit law under uniform p."""

__version__ = "0.14.0"

from .errors import CapacityError, ConfigError, ValidationError
from .sampling import StreamKey
from .deviation import l1_deviation
from .bounds import (
    BoundEvaluation,
    BoundFamily,
    BoundSpec,
    agrawal_epsilon,
    devroye_valid,
    evaluate_bound,
)
from .asymptotic import (
    anticoncentration_threshold,
    expected_Z,
    helmert_matrix,
    limit_covariance,
)
from .montecarlo import (
    DeviationSource,
    QuantileCurve,
    TailEstimate,
    Verdict,
    clopper_pearson,
    estimate_quantile_curve,
    estimate_tail_probability,
    exact_tail_small,
    falsify_bound,
)
from .experiment import (
    ExperimentConfig,
    Report,
    emit_plot_data,
    emit_report,
    parse_config,
    run_experiment,
)

__all__ = [
    "BoundEvaluation", "BoundFamily", "BoundSpec", "CapacityError", "ConfigError",
    "DeviationSource", "ExperimentConfig", "QuantileCurve", "Report", "StreamKey",
    "TailEstimate", "ValidationError", "Verdict", "agrawal_epsilon",
    "anticoncentration_threshold", "clopper_pearson", "devroye_valid",
    "emit_plot_data", "emit_report", "estimate_quantile_curve", "estimate_tail_probability",
    "evaluate_bound", "exact_tail_small", "expected_Z", "falsify_bound", "helmert_matrix",
    "l1_deviation", "limit_covariance", "parse_config", "run_experiment",
]
