"""Unbalanced two-path interferometer: phase resolution vs. back action.

Closed-form performance metrics for a coherent beam split with an
arbitrary ratio over a probed and a reference arm, an independent
truncated Fock-space simulator that checks every formula, optimizers
for the splitting angles under practical constraints, and a CLI for
sweeps and verification runs.
"""

from .analytic import evaluate_metrics
from .fock import TruncationError, TruncationWarning, simulate
from .optimize import ConstraintRegime, OptimumReport, optimize
from .params import InterferometerParams, PerformanceMetrics

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "InterferometerParams",
    "PerformanceMetrics",
    "evaluate_metrics",
    "TruncationError",
    "TruncationWarning",
    "simulate",
    "ConstraintRegime",
    "OptimumReport",
    "optimize",
]
