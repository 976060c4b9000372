"""Closed-form model of the intensity-unbalanced two-path interferometer.

Every function here is a pure function of an operating point.  The
conventions (which arm is the probe, where the phase and the loss act)
are those of the Conventions section of the README; the Fock engine in
:mod:`uil.fock` implements the same network independently and is used by
the test suite to cross-check every formula in this module.

Every observable is a closed form in the probe-arm transmission
``T = exp(-kappa)``, with ``c_i = cos(theta_i)``, ``s_i = sin(theta_i)``
and the noise ``N = sqrt(c1^2 + T^2 s1^2)``:

    mean_O          = |alpha| [cos2t2 (T^2 s1^2 - c1^2) + T sin2t1 sin2t2 cos(phi)] |alpha|
    std_O           = |alpha| N
    delta_phi       = N / (eta |alpha| T |sin2t1 sin2t2 sin(phi)|)
    rho_fluctuation = 2 eta T |c1 sin2t2 sin(phi)| / N
    rho_intensity   = rho_fluctuation / (|alpha| |s1|)

:func:`metrics_values` evaluates all of them, with the probe-arm
moments and the visibility, over broadcast arrays.
:func:`evaluate_metrics` bundles them at one
:class:`~uil.params.InterferometerParams` as a
:class:`~uil.params.PerformanceMetrics`, whose docstring says what each
field means; read one with ``evaluate_metrics(params).delta_phi`` and so
on.  No formula squares ``|alpha|`` on its own, so a moment beyond the
double range becomes ``inf`` while the ratios stay finite.
"""

from __future__ import annotations

import numpy as np

from .params import InterferometerParams, PerformanceMetrics

__all__ = [
    "evaluate_metrics",
    "metrics_values",
]


def evaluate_metrics(params: InterferometerParams) -> PerformanceMetrics:
    """Bundle every derived scalar at one operating point."""
    columns = metrics_values(
        params.theta1, params.theta2, params.phi, params.kappa, params.eta, abs(params.alpha)
    )
    return PerformanceMetrics(**{name: float(value) for name, value in columns.items()})


def metrics_values(theta1, theta2, phi, kappa, eta, alpha_abs) -> dict[str, np.ndarray]:
    """Every :class:`~uil.params.PerformanceMetrics` field over broadcast inputs.

    Returns the eight columns, in field order, as arrays of the inputs'
    broadcast shape.  Each operation runs at its operands' own shapes,
    so a column that depends on fewer inputs than the others is computed
    at its smaller shape and returned as a read-only broadcast view.
    Squares go through np.square: on a NumPy scalar
    ``x ** 2`` calls libm pow, which is not always correctly rounded.
    The sensitivity 1/delta_phi and rho_fluctuation are products in
    which every factor after the first is at most 1, except the last,
    |sin(2 t1)|/N <= 2 or |c1|/N <= 1, so an intermediate can only
    underflow where the result itself is at the edge of the double range.
    """
    inputs = [np.asarray(x, dtype=float) for x in (theta1, theta2, phi, kappa, eta, alpha_abs)]
    shape = np.broadcast(*inputs).shape
    theta1, theta2, phi, kappa, eta, alpha_abs = inputs
    t = np.exp(-kappa)
    c1, s1 = np.cos(theta1), np.sin(theta1)
    c2, s2 = np.cos(theta2), np.sin(theta2)
    # from |theta| = 2^1023 on, 2 theta overflows to inf: there the double
    # angle comes from theta's own sine and cosine, elsewhere from the exact 2 theta
    huge1, huge2 = np.abs(theta1) >= 2.0**1023, np.abs(theta2) >= 2.0**1023
    twice1, twice2 = 2.0 * np.where(huge1, 0.0, theta1), 2.0 * np.where(huge2, 0.0, theta2)
    sin2t1 = np.where(huge1, 2.0 * s1 * c1, np.sin(twice1))
    sin2t2 = np.where(huge2, 2.0 * s2 * c2, np.sin(twice2))
    cos2t2 = np.where(huge2, (c2 - s2) * (c2 + s2), np.cos(twice2))
    noise = np.hypot(c1, t * s1)
    mixer, sin_phi = np.abs(sin2t2), np.abs(np.sin(phi))
    sensitivity = alpha_abs * t * eta * mixer * sin_phi * (np.abs(sin2t1) / noise)
    rho_fluctuation = 2.0 * eta * t * mixer * sin_phi * (np.abs(c1) / noise)
    probe_std = alpha_abs * np.abs(s1)
    imbalance = np.square(t * s1) - np.square(c1)
    phase_term = t * sin2t1 * sin2t2 * np.cos(phi)
    # Imax + Imin = 2|alpha|^2 (s2^2 c1^2 + T^2 c2^2 s1^2); written as
    # oscillation + (|s2 c1| - T|c2 s1|)^2 (halved, per unit |alpha|^2)
    # it has no cancellation and is exact at the balanced point.
    oscillation = 2.0 * t * np.abs(s1 * c1 * s2 * c2)
    total = oscillation + np.square(np.abs(s2 * c1) - t * np.abs(c2 * s1))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        delta_phi = 1.0 / sensitivity  # no sensitivity: 1/0 = inf
        mean = alpha_abs * (cos2t2 * imbalance + phase_term) * alpha_abs
        contrast = np.where((total == 0.0) | (alpha_abs == 0.0), 0.0, oscillation / total)
        columns = {
            "mean_O": mean,
            "std_O": alpha_abs * noise,
            "delta_phi": delta_phi,
            "intensity_probe": np.square(probe_std),
            "std_intensity_probe": probe_std,
            "rho_intensity": np.where(
                (rho_fluctuation == 0.0) | (sin2t1 == 0.0) | (alpha_abs == 0.0),
                0.0,
                rho_fluctuation / probe_std,
            ),
            "rho_fluctuation": rho_fluctuation,
            "visibility": contrast,
        }
    return {name: value if value.shape == shape else np.broadcast_to(value, shape) for name, value in columns.items()}
