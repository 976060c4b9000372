"""Closed-form model of the intensity-unbalanced two-path interferometer.

Every function here is a pure function of an operating point.  The
conventions (which arm is the probe, where the phase and the loss act)
come from :mod:`uil.modes`; the truncated Fock-space engine in
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

:func:`metrics_values` evaluates all of them over broadcast arrays, and
the scalar functions, which take an
:class:`~uil.params.InterferometerParams`, wrap it.  The ``*_values``
kernels compute one objective each, with the same arithmetic, for the
optimizer.  No formula squares ``|alpha|`` on its own, so a moment
beyond the double range becomes ``inf`` while the ratios stay finite.
"""

from __future__ import annotations

import math

import numpy as np

from .modes import INPUT_MODE, mirror_factors
from .params import InterferometerParams, OutputAmplitudes, PerformanceMetrics

__all__ = [
    "beam_splitter_matrix",
    "output_amplitudes",
    "probe_arm_stats",
    "mean_difference_signal",
    "difference_signal_phase_gradient",
    "std_difference_signal",
    "phase_resolution",
    "intensity_performance_ratio",
    "fluctuation_performance_ratio",
    "visibility",
    "evaluate_metrics",
    "metrics_values",
    "phase_resolution_values",
    "intensity_ratio_values",
    "fluctuation_ratio_values",
]


def beam_splitter_matrix(theta: float) -> np.ndarray:
    """Return the 2x2 rotation mixing the two path amplitudes.

    ``[[cos, sin], [-sin, cos]]``; orthogonal with determinant 1, and
    ``cos(theta)**2`` / ``sin(theta)**2`` are the transmitted/reflected
    intensity fractions.
    """
    if not math.isfinite(theta):
        raise ValueError(f"mixing angle must be finite, got {theta!r}")
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


def output_amplitudes(params: InterferometerParams) -> OutputAmplitudes:
    """Coherent amplitudes at the two detectors.

    Splitter, probe-arm phase/attenuation, mixer, applied to the input
    amplitude vector (coherent drive in one port, vacuum in the other):

        a3 = cos(t2)*(cos(t1)*alpha) + e^(-i*phi-kappa)*sin(t2)*(-sin(t1)*alpha)
        b3 = -sin(t2)*(cos(t1)*alpha) + e^(-i*phi-kappa)*cos(t2)*(-sin(t1)*alpha)

    With kappa = 0 the map is unitary and |a3|^2 + |b3|^2 = |alpha|^2.
    This matrix route is independent of the closed forms below, which
    the tests check against it.
    """
    vec = np.zeros(2, dtype=complex)
    vec[INPUT_MODE] = params.alpha
    vec = beam_splitter_matrix(params.theta1) @ vec
    vec = mirror_factors(params.phi, params.kappa) * vec
    vec = beam_splitter_matrix(params.theta2) @ vec
    return OutputAmplitudes(a3=complex(vec[0]), b3=complex(vec[1]))


def probe_arm_stats(params: InterferometerParams) -> tuple[float, float]:
    """Mean photon number and its standard deviation in the probe arm.

    Evaluated between the first splitter and the mirror, so independent
    of ``phi``, ``kappa`` and ``theta2``.  Coherent light is Poissonian:
    the fluctuation is the square root of the intensity.
    """
    metrics = evaluate_metrics(params)
    return metrics.intensity_probe, metrics.std_intensity_probe


def mean_difference_signal(params: InterferometerParams) -> float:
    """Expected photon-number difference between the two detectors.

        |alpha|^2 [cos(2 t2) (T^2 sin(t1)^2 - cos(t1)^2) + T sin(2 t1) sin(2 t2) cos(phi)]

    which is |b3|^2 - |a3|^2 of the attenuated output amplitudes.
    """
    return evaluate_metrics(params).mean_O


def difference_signal_phase_gradient(params: InterferometerParams) -> float:
    """d<difference signal>/d(phi), used by :func:`phase_resolution`."""
    alpha_abs = abs(params.alpha)
    return (
        -alpha_abs
        * math.exp(-params.kappa)
        * math.sin(2.0 * params.theta1)
        * math.sin(2.0 * params.theta2)
        * math.sin(params.phi)
        * alpha_abs
    )


def std_difference_signal(params: InterferometerParams) -> float:
    """Standard deviation of the detector difference signal.

    The output state is a product of coherent beams, so the variance is
    the sum of the two output intensities (independent Poisson counts),
    |alpha|^2 (cos(t1)^2 + T^2 sin(t1)^2).  Lossless this equals |alpha|
    for any angles.
    """
    return evaluate_metrics(params).std_O


def phase_resolution(params: InterferometerParams) -> float:
    """Smallest resolvable phase shift (noise over signal gradient).

        sqrt(cos(t1)^2 + T^2 sin(t1)^2) / (eta |alpha| T |sin(2 t1) sin(2 t2) sin(phi)|)

    At kappa = 0 the numerator is 1 and this reduces to
    1 / |alpha sin(2 t1) sin(2 t2) sin(phi)|.  Detector efficiency
    inflates the resolvable angle by 1/eta, which makes both
    performance ratios scale linearly with eta.

    Returns ``inf`` when the operating point has no phase sensitivity
    (any of the sine factors, T or |alpha| vanishing); that is not an
    error, callers must handle it.
    """
    return evaluate_metrics(params).delta_phi


def intensity_performance_ratio(params: InterferometerParams) -> float:
    """Inverse of (phase resolution x probe intensity).

    Extended-real contract: 0 when the resolution is infinite, ``inf``
    in the formally unbounded regime of zero probe intensity at finite
    resolution.  Lossless closed form:
    |sin(2 t1) sin(2 t2) sin(phi)| / (|alpha| sin(t1)^2).
    """
    return evaluate_metrics(params).rho_intensity


def fluctuation_performance_ratio(params: InterferometerParams) -> float:
    """Inverse of (phase resolution x probe intensity fluctuation).

    Independent of |alpha| and equal to
    |sin(2 t1) sin(2 t2) sin(phi)| / |sin(t1)| when lossless.  The
    sin(2 t1)/sin(t1) kink at theta1 = 0 is removable (equal to
    2 cos(t1)), and the implementation uses that continuous form, so
    the theta1 -> 0 homodyne-like limit evaluates to its limit value
    rather than 0/0.  Scales linearly with detector efficiency.
    """
    return evaluate_metrics(params).rho_fluctuation


def visibility(params: InterferometerParams) -> float:
    """Fringe contrast (Imax - Imin)/(Imax + Imin) of one detector.

    The detected intensity is harmonic in the swept phase, so the
    extrema are analytic; ``params.phi`` is ignored.  Written so that a
    balanced lossless interferometer gives exactly 1, and zero input
    gives 0.
    """
    return evaluate_metrics(params).visibility


def evaluate_metrics(params: InterferometerParams) -> PerformanceMetrics:
    """Bundle every derived scalar at one operating point."""
    columns = metrics_values(
        params.theta1, params.theta2, params.phi, params.kappa, params.eta, abs(params.alpha)
    )
    return PerformanceMetrics(**{name: float(value) for name, value in columns.items()})


# Vectorized kernels.  The helpers below fix the order of every floating
# point operation, so the bundle and the single-objective kernels agree
# bit for bit at every point, whatever the shapes of their inputs.
#
# 1/delta_phi and rho_fluctuation are products in which every factor
# after the first is at most 1, except the last, |sin(2 t1)|/N <= 2 or
# |c1|/N <= 1.  An intermediate can thus only underflow where the result
# itself is at the edge of the double range.


def _terms(theta1, theta2, phi, kappa):
    """T, cos(t1), sin(t1), sin(2 t1), the noise N, and (|sin(2 t2)|, |sin(phi)|)."""
    theta1 = np.asarray(theta1, dtype=float)
    t = np.exp(-np.asarray(kappa, dtype=float))
    c1, s1 = np.cos(theta1), np.sin(theta1)
    mixer = np.abs(np.sin(2.0 * np.asarray(theta2, dtype=float))), np.abs(np.sin(phi))
    return t, c1, s1, np.sin(2.0 * theta1), np.hypot(c1, t * s1), mixer


def _resolution(t, sin2t1, noise, mixer, eta, alpha_abs):
    sin2t2, sin_phi = mixer
    with np.errstate(divide="ignore", over="ignore"):  # no sensitivity: 1/0 = inf
        return 1.0 / (alpha_abs * t * eta * sin2t2 * sin_phi * (np.abs(sin2t1) / noise))


def _fluctuation(t, c1, noise, mixer, eta):
    sin2t2, sin_phi = mixer
    return 2.0 * eta * t * sin2t2 * sin_phi * (np.abs(c1) / noise)


def _intensity(delta_phi, rho_fluctuation, probe_std):
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(np.isinf(delta_phi), 0.0, rho_fluctuation / probe_std)


def metrics_values(theta1, theta2, phi, kappa, eta, alpha_abs) -> dict[str, np.ndarray]:
    """Every :class:`~uil.params.PerformanceMetrics` field over broadcast inputs.

    Returns the eight columns, in field order, as arrays of the inputs'
    broadcast shape.
    """
    theta1, theta2, phi, kappa, eta, alpha_abs = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (theta1, theta2, phi, kappa, eta, alpha_abs))
    )
    t, c1, s1, sin2t1, noise, mixer = _terms(theta1, theta2, phi, kappa)
    c2, s2 = np.cos(theta2), np.sin(theta2)
    delta_phi = _resolution(t, sin2t1, noise, mixer, eta, alpha_abs)
    rho_fluctuation = _fluctuation(t, c1, noise, mixer, eta)
    probe_std = alpha_abs * np.abs(s1)
    imbalance = (t * s1) ** 2 - c1**2
    phase_term = t * sin2t1 * np.sin(2.0 * theta2) * np.cos(phi)
    # Imax + Imin = 2|alpha|^2 (s2^2 c1^2 + T^2 c2^2 s1^2); written as
    # oscillation + (|s2 c1| - T|c2 s1|)^2 (halved, per unit |alpha|^2)
    # it has no cancellation and is exact at the balanced point.
    oscillation = 2.0 * t * np.abs(s1 * c1 * s2 * c2)
    total = oscillation + (np.abs(s2 * c1) - t * np.abs(c2 * s1)) ** 2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        mean = alpha_abs * (np.cos(2.0 * theta2) * imbalance + phase_term) * alpha_abs
        contrast = np.where((total == 0.0) | (alpha_abs == 0.0), 0.0, oscillation / total)
        return {
            "mean_O": mean,
            "std_O": alpha_abs * noise,
            "delta_phi": delta_phi,
            "intensity_probe": probe_std**2,
            "std_intensity_probe": probe_std,
            "rho_intensity": _intensity(delta_phi, rho_fluctuation, probe_std),
            "rho_fluctuation": rho_fluctuation,
            "visibility": contrast,
        }


def phase_resolution_values(theta1, theta2, phi, kappa, eta=1.0, alpha_abs=1.0):
    """Broadcasting version of :func:`phase_resolution`."""
    t, _, _, sin2t1, noise, mixer = _terms(theta1, theta2, phi, kappa)
    return _resolution(t, sin2t1, noise, mixer, eta, alpha_abs)


def intensity_ratio_values(theta1, theta2, phi, kappa, eta=1.0, alpha_abs=1.0):
    """Broadcasting version of :func:`intensity_performance_ratio`."""
    t, c1, s1, sin2t1, noise, mixer = _terms(theta1, theta2, phi, kappa)
    delta_phi = _resolution(t, sin2t1, noise, mixer, eta, alpha_abs)
    rho_fluctuation = _fluctuation(t, c1, noise, mixer, eta)
    return _intensity(delta_phi, rho_fluctuation, alpha_abs * np.abs(s1))


def fluctuation_ratio_values(theta1, theta2, phi, kappa, eta=1.0):
    """Broadcasting version of :func:`fluctuation_performance_ratio`."""
    t, c1, _, _, noise, mixer = _terms(theta1, theta2, phi, kappa)
    return _fluctuation(t, c1, noise, mixer, eta)
