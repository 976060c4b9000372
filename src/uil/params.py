"""Parameter and result containers for the interferometer model, and the input checks."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np


_FINITE = ("finite", np.isfinite)
_NONNEGATIVE = ("finite and >= 0", lambda v: np.isfinite(v) & np.greater_equal(v, 0.0))
_UNIT_INTERVAL = ("in (0, 1]", lambda v: np.greater(v, 0.0) & np.less_equal(v, 1.0))

# The domain of every parameter of an operating point, shared by the
# dataclasses, the optimizer and every CLI entry point: a description
# and a vectorised test.  ``transmission`` is exp(-kappa), ``alpha_abs``
# is |alpha|; the keys, in this order, are the axes ``uil sweep`` takes.
DOMAINS = {
    "theta1": _FINITE,
    "theta2": _FINITE,
    "phi": _FINITE,
    "kappa": _NONNEGATIVE,
    "transmission": _UNIT_INTERVAL,
    "eta": _UNIT_INTERVAL,
    "alpha_abs": _NONNEGATIVE,
}


def check_domain(name: str, values):
    """``values`` unchanged, or a ValueError naming the first one outside ``name``'s domain."""
    domain, valid = DOMAINS[name]
    ok = valid(values)
    if not ok.all():
        bad = np.ravel(values)[~np.ravel(ok)][0]
        raise ValueError(f"{name} must be {domain}, got {float(bad)!r}")
    return values


def modulus(alpha) -> float:
    """``abs(complex(alpha))``, checked against the ``alpha_abs`` domain."""
    try:
        value = abs(complex(alpha))
    except OverflowError:
        value = math.inf
    return check_domain("alpha_abs", value)


def physical_memory_bytes() -> int | None:
    """Installed memory, or None where the system does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf, or the names are unknown
        return None


def check_memory(needed: int, subject: str, what: str, error: type[Exception]) -> None:
    """The package's one memory refusal: raise ``error`` where ``needed`` bytes exceed physical memory.

    ``subject`` names the input and how ``needed`` bounds its cost
    ("n_max = 40 needs about"); ``what`` says what the bytes hold.
    """
    memory = physical_memory_bytes()
    if memory is not None and needed > memory:
        raise error(f"{subject} {needed} bytes, {what}, more than the {memory} bytes of physical memory")


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
        for name in ("theta1", "theta2", "phi", "kappa", "eta"):
            check_domain(name, getattr(self, name))
        object.__setattr__(self, "alpha", complex(self.alpha))
        modulus(self.alpha)


@dataclass(frozen=True)
class PerformanceMetrics:
    """All derived scalars at one parameter point.

    ``mean_O`` and ``std_O`` are the moments of the detector difference
    n_b - n_a.  The output is a product of coherent beams, so the
    variance is the sum of the two output intensities, and ``std_O`` is
    ``|alpha|`` at any angles when lossless.  ``intensity_probe`` and
    ``std_intensity_probe`` are the (Poissonian) photon-number moments
    of the probe arm before the mirror, so independent of ``theta2``,
    ``phi`` and ``kappa``.  ``delta_phi`` is noise over signal gradient,
    scaled by ``1/eta``.  ``rho_intensity`` and ``rho_fluctuation`` are
    the inverse of ``delta_phi`` times ``intensity_probe`` and times
    ``std_intensity_probe``.  ``visibility`` is the fringe contrast
    (Imax - Imin) / (Imax + Imin) of one detector as the phase is swept,
    so it ignores ``phi``; it is exactly 1 balanced and lossless, and 0
    at zero input.

    Values follow the extended-real contract of the README.
    ``delta_phi`` is ``inf`` when the operating point has no phase
    sensitivity (or its value exceeds the double range).
    ``rho_intensity`` is 0 where there is no sensitivity at all
    (``rho_fluctuation``, ``sin(2 theta1)`` or ``|alpha|`` is 0), but
    where only ``delta_phi`` overflows it stays
    ``rho_fluctuation / std_intensity_probe``; it is ``inf`` where the
    probe fluctuation underflows to 0.  ``rho_fluctuation`` does not depend on
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

