"""Unbalanced two-path interferometer: phase resolution vs. back action.

Closed-form performance metrics for a coherent beam split with an
arbitrary ratio over a probed and a reference arm, an independent
truncated Fock-space simulator that checks every formula, optimizers
for the splitting angles under practical constraints, and a CLI for
sweeps and verification runs.
"""

from .analytic import (
    evaluate_metrics,
    fluctuation_performance_ratio,
    intensity_performance_ratio,
    mean_difference_signal,
    phase_resolution,
    probe_arm_stats,
    std_difference_signal,
    visibility,
)
from .fock import (
    FockCutoff,
    TruncationError,
    TruncationWarning,
    coherent_state,
    loss_channel,
    simulate,
)
from .optimize import ConstraintRegime, OptimumReport, optimize
from .params import InterferometerParams, PerformanceMetrics

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "InterferometerParams",
    "PerformanceMetrics",
    "probe_arm_stats",
    "mean_difference_signal",
    "std_difference_signal",
    "phase_resolution",
    "intensity_performance_ratio",
    "fluctuation_performance_ratio",
    "visibility",
    "evaluate_metrics",
    "FockCutoff",
    "TruncationError",
    "TruncationWarning",
    "coherent_state",
    "loss_channel",
    "simulate",
    "ConstraintRegime",
    "OptimumReport",
    "optimize",
]
