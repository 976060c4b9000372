"""Parameter and result containers for the interferometer model."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class InterferometerParams:
    """One operating point of the two-path interferometer.

    Attributes:
        theta1: mixing angle of the input beam splitter, radians.
        theta2: mixing angle of the output beam mixer, radians.
        phi: phase delay picked up in the probe arm, radians.
        kappa: amplitude attenuation exponent of the probe arm; the
            surviving amplitude fraction is exp(-kappa).
        eta: quantum efficiency of both detectors, in (0, 1].
        alpha: coherent amplitude driving the input port (the other
            port is vacuum).  Only |alpha| enters any reported metric.
    """

    theta1: float
    theta2: float
    phi: float
    kappa: float = 0.0
    eta: float = 1.0
    alpha: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        for name in ("theta1", "theta2", "phi"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not (math.isfinite(self.kappa) and self.kappa >= 0.0):
            raise ValueError(f"kappa must be finite and >= 0, got {self.kappa!r}")
        if not (0.0 < self.eta <= 1.0):
            raise ValueError(f"eta must lie in (0, 1], got {self.eta!r}")
        a = complex(self.alpha)
        if not math.isfinite(math.hypot(a.real, a.imag)):  # abs() raises on overflow
            raise ValueError(f"alpha must have a finite modulus, got {self.alpha!r}")
        object.__setattr__(self, "alpha", a)

    @property
    def transmission(self) -> float:
        """Probe-arm amplitude transmission exp(-kappa)."""
        return math.exp(-self.kappa)


@dataclass(frozen=True)
class OutputAmplitudes:
    """Coherent amplitudes leaving the interferometer toward the detectors."""

    a3: complex
    b3: complex

    @property
    def total_intensity(self) -> float:
        return abs(self.a3) ** 2 + abs(self.b3) ** 2


@dataclass(frozen=True)
class PerformanceMetrics:
    """All derived scalars at one parameter point.

    Values follow the extended-real contract of the README.
    ``delta_phi`` is ``inf`` when the operating point has no phase
    sensitivity (or its value exceeds the double range), and
    ``rho_intensity`` is then 0.  ``rho_fluctuation`` does not depend on
    ``|alpha|`` and is evaluated in its continuous form, so at
    ``delta_phi = inf`` it is 0 only where that form vanishes, such as
    ``phi = 0`` or ``theta2 = 0``.  At ``theta1 = 0`` (no probe light)
    it takes the removable limit
    ``2 eta exp(-kappa) |sin(2 theta2) sin(phi)|``.

    Overflow rule: ``|alpha|`` enters every formula as a factor, never
    squared on its own.  The moments ``mean_O`` and ``intensity_probe``
    scale with ``|alpha|^2`` and become ``+-inf`` (or 0) beyond the
    double range; ``std_O``, ``std_intensity_probe``, ``delta_phi`` and
    the ratios scale with at most one power and stay finite.  No field
    is ever NaN for valid parameters.
    """

    mean_O: float
    std_O: float
    delta_phi: float
    intensity_probe: float
    std_intensity_probe: float
    rho_intensity: float
    rho_fluctuation: float
    visibility: float

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

