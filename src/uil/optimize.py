"""Splitting-angle optimization for the performance ratios, in closed form.

Three constraint regimes are supported: fully free splitting angles,
one shared splitter angle (the Michelson-style reuse case), and a
balanced output mixer with only the input splitter free.  The operating
phase is either held fixed or left free.

Every regime's optimum is a formula.  With ``T = exp(-kappa)`` and
``u = tan(theta1)^2`` (theta1 in the quarter turn), the ratios are

    rho_fluctuation = 2 eta T |sin(2 theta2) sin(phi)| / sqrt(1 + T^2 u)
    rho_intensity   = rho_fluctuation / (|alpha| sin(theta1))

Both carry the factor ``eta T |sin(2 theta2) sin(phi)|``, so a free
phase is exactly pi/2 and a free output mixer exactly pi/4.  What is
left of rho_fluctuation only falls as u grows.  Hence:

- With a free or balanced mixer, rho_fluctuation is largest at
  theta1 = 0, where its removable limit ``2 eta T |sin(phi)|`` is
  attained; rho_intensity grows like ``1/theta1`` there, without bound.
- With equal splitters, ``sin(2 theta) = 2 sqrt(u) / (1 + u)`` joins
  in, and rho_fluctuation^2 is proportional to
  ``u / ((1 + u)^2 (1 + T^2 u))``.  Its logarithmic derivative
  vanishes where ``1 - u - 2 T^2 u^2 = 0``, the only interior maximum:
  ``tan^2 theta* = 2 / (1 + sqrt(1 + 8 T^2))``.  Without loss this is
  arctan(1/sqrt(2)), with value 8 sqrt(3) / 9.
- With equal splitters, rho_intensity is
  ``4 eta T |sin(phi)| / (|alpha| sqrt((1 + u)(1 + T^2 u)))``, which
  falls with u: its supremum ``4 eta T |sin(phi)| / |alpha|`` is the
  theta1 -> 0 limit, which no angle attains.

The report's value comes from one :func:`~uil.analytic.metrics_values`
call at the reported angles, so ``uil optimize`` and ``uil metrics``
agree bit for bit wherever the supremum is attained; the two suprema
that are not attained are reported as their limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import metrics_values
from .params import check_domain, modulus

OBJECTIVES = ("rho_fluctuation", "rho_intensity")
REGIME_KINDS = ("free", "equal_splitters", "fixed_mixer")

__all__ = [
    "ConstraintRegime",
    "OptimumReport",
    "optimize",
    "OBJECTIVES",
    "REGIME_KINDS",
]


@dataclass(frozen=True)
class ConstraintRegime:
    """Which angles are free, at what loss, and at what operating phase.

    ``phi = None`` leaves the operating phase free (it is then optimized
    alongside the angles); otherwise it is held fixed.
    """

    kind: str
    kappa: float = 0.0
    phi: float | None = math.pi / 2

    def __post_init__(self) -> None:
        if self.kind not in REGIME_KINDS:
            raise ValueError(f"regime kind must be one of {REGIME_KINDS}, got {self.kind!r}")
        check_domain("kappa", self.kappa)


@dataclass(frozen=True)
class OptimumReport:
    """Outcome of one optimization.

    ``boundary_supremum`` marks a supremum approached at vanishing input
    splitting, reported at theta1 = 0; ``unbounded`` additionally marks
    an objective that grows without bound there (value ``inf``).

    Where the computed optimum is 0 (``sin(phi) = 0`` with phi fixed,
    ``T = exp(-kappa) = 0``, rho_intensity at ``|alpha| = 0``, or a
    product of factors that underflows, as at phi = 5e-324) the report
    is the regime's boundary point: value 0.0,
    ``boundary_supremum`` true, ``unbounded`` false, theta1 = 0, and
    theta2 = pi/4 (0 with equal splitters).
    """

    objective: str
    regime: str
    kappa: float
    eta: float
    alpha_abs: float
    theta1: float
    theta2: float
    phi: float
    value: float
    n_evaluations: int
    boundary_supremum: bool = False
    unbounded: bool = False


def _equal_splitter_angle(t: float) -> float:
    """Stationary angle of rho_fluctuation at theta1 = theta2."""
    return math.atan(math.sqrt(2.0 / (1.0 + math.sqrt(1.0 + 8.0 * t * t))))


def optimize(
    objective: str,
    regime: ConstraintRegime,
    alpha: complex = 1.0 + 0.0j,
    eta: float = 1.0,
) -> OptimumReport:
    """Maximize a performance ratio over the regime's free angles."""
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    phi = math.pi / 2 if regime.phi is None else check_domain("phi", regime.phi)
    check_domain("eta", eta)
    alpha_abs = modulus(alpha)
    t = float(np.exp(-regime.kappa))
    intensity = objective == "rho_intensity"
    equal = regime.kind == "equal_splitters"

    interior = equal and not intensity
    theta1 = _equal_splitter_angle(t) if interior else 0.0
    theta2 = theta1 if equal else math.pi / 4
    metrics = metrics_values(theta1, theta2, phi, regime.kappa, eta, alpha_abs)
    value = float(metrics[objective])
    if intensity and alpha_abs > 0.0:
        # the theta1 -> 0 supremum, not attained: finite with equal splitters,
        # else without bound unless rho_fluctuation's limit there is 0
        if equal:
            value = 4.0 * eta * t * abs(math.sin(phi)) / alpha_abs
        elif metrics["rho_fluctuation"] > 0.0:
            value = math.inf
    if value == 0.0:  # identically 0, or a factor underflows
        interior, theta1, theta2 = False, 0.0, (0.0 if equal else math.pi / 4)
    return OptimumReport(
        objective=objective,
        regime=regime.kind,
        kappa=regime.kappa,
        eta=eta,
        alpha_abs=alpha_abs,
        theta1=theta1,
        theta2=theta2,
        phi=phi,
        value=value,
        n_evaluations=1,
        boundary_supremum=not interior,
        unbounded=not equal and value == math.inf,
    )
