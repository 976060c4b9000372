"""Output amplitudes by explicit 2x2 matrices, the tests' cross-check.

The coherent amplitude vector is pushed through the input splitter, the
mirror factors and the output mixer as plain matrix products.  This
route shares nothing with the closed forms of :mod:`uil.analytic` but
the mode labeling of the README's Conventions, taken from
``dense_fock``, so the tests check the closed forms and the Fock
engine against it.  Beside it sits the closed-form
phase gradient of the mean signal, which the tests check by finite
differences and use to check ``delta_phi``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from uil.params import InterferometerParams

from dense_fock import INPUT_MODE, PROBE_MODE


@dataclass(frozen=True)
class OutputAmplitudes:
    """Coherent amplitudes leaving the interferometer toward the detectors."""

    a3: complex
    b3: complex

    @property
    def total_intensity(self) -> float:
        a, b = abs(self.a3), abs(self.b3)
        return a * a + b * b  # ** 2 would raise OverflowError instead of giving inf


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


def mirror_factors(phi: float, kappa: float) -> np.ndarray:
    """Per-mode multipliers applied between the two splitters.

    The reference arm is untouched; the probe arm picks up the phase
    delay ``exp(-i*phi)`` and the amplitude attenuation ``exp(-kappa)``.
    """
    factors = np.ones(2, dtype=complex)
    factors[PROBE_MODE] = np.exp(-1j * phi - kappa)
    return factors


def difference_signal_phase_gradient(params: InterferometerParams) -> float:
    """d(mean_O)/d(phi); ``delta_phi`` is std_O / (eta |gradient|)."""
    alpha_abs = abs(params.alpha)
    return (
        -alpha_abs
        * math.exp(-params.kappa)
        * math.sin(2.0 * params.theta1)
        * math.sin(2.0 * params.theta2)
        * math.sin(params.phi)
        * alpha_abs
    )


def output_amplitudes(params: InterferometerParams) -> OutputAmplitudes:
    """Coherent amplitudes at the two detectors.

    Splitter, probe-arm phase/attenuation, mixer, applied to the input
    amplitude vector (coherent drive in one port, vacuum in the other):

        a3 = cos(t2)*(cos(t1)*alpha) + e^(-i*phi-kappa)*sin(t2)*(-sin(t1)*alpha)
        b3 = -sin(t2)*(cos(t1)*alpha) + e^(-i*phi-kappa)*cos(t2)*(-sin(t1)*alpha)

    With kappa = 0 the map is unitary and |a3|^2 + |b3|^2 = |alpha|^2.
    """
    vec = np.zeros(2, dtype=complex)
    vec[INPUT_MODE] = params.alpha
    vec = beam_splitter_matrix(params.theta1) @ vec
    vec = mirror_factors(params.phi, params.kappa) * vec
    vec = beam_splitter_matrix(params.theta2) @ vec
    return OutputAmplitudes(a3=complex(vec[0]), b3=complex(vec[1]))
