"""Independent closed forms the benchmark checks `uil` outputs against.

Written from the interferometer model, not from the package: this
module imports nothing from `uil`.  With T = exp(-kappa), c_i = cos(theta_i)
and s_i = sin(theta_i), a coherent drive |alpha> in the reference port
leaves the network with detector amplitudes

    a3 =  alpha (c1 c2 - T s1 s2 e^{-i phi})
    b3 = -alpha (s2 c1 + T s1 c2 e^{-i phi})

from which every reported quantity follows:

    mean_O    = |a|^2 [cos2t2 (T^2 s1^2 - c1^2) + T sin2t1 sin2t2 cos phi]
    std_O^2   = |a|^2 (c1^2 + T^2 s1^2)
    delta_phi = sqrt(c1^2 + T^2 s1^2) / (eta |a| T |sin2t1 sin2t2 sin phi|)
    rho_fluctuation = 2 eta T |c1 sin2t2 sin phi| / sqrt(c1^2 + T^2 s1^2)

The Cramer-Rao bound (Braunstein & Caves, PRL 72, 3439 (1994)) for the
two independent Poisson detector counts eta|a3|^2 and eta|b3|^2 gives
delta_phi * sqrt(F) >= 1, with equality at the balanced working point.
"""

from __future__ import annotations

import math

import numpy as np

QUANTITIES = (
    "mean_O",
    "std_O",
    "delta_phi",
    "intensity_probe",
    "std_intensity_probe",
    "rho_intensity",
    "rho_fluctuation",
    "visibility",
)

# Relative tolerance for strictly positive quantities, and the absolute
# tolerance for mean_O in units of |alpha|^2 (mean_O crosses zero, so a
# relative test is meaningless there).
RTOL = 1e-12
MEAN_ATOL = 1e-12
# Cramer-Rao holds with equality at the balanced working point, where
# roundoff may put delta_phi * sqrt(F) a few ulps below 1.
CR_FLOOR = 1.0 - 16 * np.finfo(float).eps

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def closed_forms(theta1, theta2, phi, kappa, eta, alpha_abs) -> dict[str, np.ndarray]:
    """Every reported quantity, broadcast over the inputs, in the T form."""
    theta1, theta2, phi, kappa, eta, alpha_abs = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (theta1, theta2, phi, kappa, eta, alpha_abs))
    )
    t = np.exp(-kappa)
    c1, s1 = np.cos(theta1), np.sin(theta1)
    c2, s2 = np.cos(theta2), np.sin(theta2)
    sin2t1, sin2t2 = np.sin(2.0 * theta1), np.sin(2.0 * theta2)
    power = alpha_abs**2
    noise = np.sqrt(c1**2 + (t * s1) ** 2)
    sensitivity = eta * alpha_abs * t * np.abs(sin2t1 * sin2t2 * np.sin(phi))
    fringe = 2.0 * t * np.abs(c1 * s1 * c2 * s2)
    fringe_sum = (s2 * c1) ** 2 + (t * c2 * s1) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        delta_phi = np.where(sensitivity == 0.0, np.inf, noise / sensitivity)
        rho_fluctuation = 2.0 * eta * t * np.abs(c1 * sin2t2 * np.sin(phi)) / noise
        rho_intensity = np.where(
            np.isinf(delta_phi),
            0.0,
            np.where(s1 == 0.0, np.inf, rho_fluctuation / (alpha_abs * np.abs(s1))),
        )
        visibility = np.where((fringe_sum == 0.0) | (alpha_abs == 0.0), 0.0, fringe / fringe_sum)
    return {
        "mean_O": power * (np.cos(2.0 * theta2) * ((t * s1) ** 2 - c1**2) + t * sin2t1 * sin2t2 * np.cos(phi)),
        "std_O": alpha_abs * noise,
        "delta_phi": delta_phi,
        "intensity_probe": power * s1**2,
        "std_intensity_probe": alpha_abs * np.abs(s1),
        "rho_intensity": rho_intensity,
        "rho_fluctuation": rho_fluctuation,
        "visibility": visibility,
    }


def fisher_information(theta1, theta2, phi, kappa, eta, alpha_abs) -> np.ndarray:
    """Fisher information about phi in the two Poisson detector counts.

    F = sum_i (d lambda_i / d phi)^2 / lambda_i with lambda_i = eta |out_i|^2.
    The rates come from the output amplitudes; the slopes
    d|a3|^2/dphi = -d|b3|^2/dphi = |a|^2 (T/2) sin2t1 sin2t2 sin(phi) are
    taken in product form, because differentiating the amplitudes
    numerically cancels to roundoff as theta1 -> pi/2.
    """
    theta1, theta2, phi, kappa, eta, alpha_abs = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (theta1, theta2, phi, kappa, eta, alpha_abs))
    )
    t = np.exp(-kappa)
    c1, s1 = np.cos(theta1), np.sin(theta1)
    c2, s2 = np.cos(theta2), np.sin(theta2)
    rotor = np.exp(-1j * phi)
    a3 = alpha_abs * (c1 * c2 - t * s1 * s2 * rotor)
    b3 = -alpha_abs * (s2 * c1 + t * s1 * c2 * rotor)
    slope = eta * alpha_abs**2 * 0.5 * t * np.sin(2.0 * theta1) * np.sin(2.0 * theta2) * np.sin(phi)
    total = np.zeros(theta1.shape)
    for amp in (a3, b3):
        rate = eta * np.abs(amp) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            total += np.where(rate > 0.0, slope**2 / rate, np.where(slope == 0.0, 0.0, np.inf))
    return total


def cramer_rao_products(delta_phi, theta1, theta2, phi, kappa, eta, alpha_abs) -> np.ndarray:
    """delta_phi * sqrt(F) for the rows with finite delta_phi (>= 1 by Cramer-Rao)."""
    delta_phi = np.asarray(delta_phi, dtype=float)
    fisher = fisher_information(theta1, theta2, phi, kappa, eta, alpha_abs)
    delta_phi, fisher = np.broadcast_arrays(delta_phi, fisher)
    finite = np.isfinite(delta_phi)
    return delta_phi[finite] * np.sqrt(fisher[finite])


def golden_max(f, lo: float, hi: float, tol: float = 1e-11) -> tuple[float, float]:
    """Maximize a unimodal f on [lo, hi] by golden-section search."""
    c, d = hi - _INV_GOLDEN * (hi - lo), lo + _INV_GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_GOLDEN * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_GOLDEN * (hi - lo)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def equal_splitter_fluctuation_optimum(kappa: float, eta: float) -> tuple[float, float]:
    """Interior maximum of rho_fluctuation with theta1 = theta2, phi = pi/2."""

    def ratio(theta: float) -> float:
        return float(closed_forms(theta, theta, math.pi / 2, kappa, eta, 1.0)["rho_fluctuation"])

    return golden_max(ratio, 0.0, math.pi / 2)


def expected_optimum(objective: str, regime: str, kappa: float, eta: float, alpha_abs: float) -> dict:
    """The optimum `uil optimize` must report, for either phi setting.

    Besides the equal-splitter interior maximum of rho_fluctuation, every
    case is a theta1 -> 0 limit: rho_fluctuation tends to 2 eta T at a
    balanced mixer, rho_intensity to 4 eta T / |alpha| with equal
    splitters, and it diverges like 1/theta1 with a free or balanced mixer.
    """
    t = math.exp(-kappa)
    if objective == "rho_fluctuation" and regime == "equal_splitters":
        theta, value = equal_splitter_fluctuation_optimum(kappa, eta)
        return {"theta1": theta, "theta2": theta, "value": value, "boundary_supremum": False, "unbounded": False}
    if objective == "rho_intensity" and regime == "equal_splitters":
        return {"theta1": 0.0, "theta2": 0.0, "value": 4.0 * eta * t / alpha_abs, "boundary_supremum": True, "unbounded": False}
    if objective == "rho_fluctuation":
        return {"theta1": 0.0, "theta2": math.pi / 4, "value": 2.0 * eta * t, "boundary_supremum": True, "unbounded": False}
    return {"theta1": 0.0, "theta2": math.pi / 4, "value": math.inf, "boundary_supremum": True, "unbounded": True}


def mismatches(name: str, got, want, scale=1.0) -> list[str]:
    """Describe the entries of `got` that disagree with `want`.

    Exact comparison where the reference is inf or 0, an absolute
    tolerance MEAN_ATOL * scale for mean_O, and RTOL elsewhere.  NaN on
    either side is always a mismatch.
    """
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    got, want, scale = np.broadcast_arrays(got, want, np.asarray(scale, dtype=float))
    exact = np.isinf(want) | (want == 0.0)
    with np.errstate(invalid="ignore"):
        if name == "mean_O":
            close = np.abs(got - want) <= MEAN_ATOL * scale
        else:
            close = np.abs(got - want) <= RTOL * np.abs(want)
    ok = np.where(exact & (name != "mean_O"), got == want, close) & ~np.isnan(got) & ~np.isnan(want)
    bad = np.flatnonzero(~ok)
    return [f"{name}[{i}]: got {float(got.flat[i])!r}, want {float(want.flat[i])!r}" for i in bad[:3]] + (
        [f"{name}: {bad.size - 3} more"] if bad.size > 3 else []
    )
