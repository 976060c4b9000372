"""Truncated Fock-space simulator of the interferometer.

Brute-force oracle for the closed forms in :mod:`uil.analytic`: the
drive is held as its Poisson photon-number weights, up to n_max
photons or to where they underflow to 0, beam splitters are
exponentials of the quadratic mode generator, and probe-arm
attenuation is a beam splitter coupling the probe to a vacuum ancilla
that is traced out (the non-unitary shortcut used by the closed forms
only works for coherent beams; the dilation works for any drive).

:func:`simulate` never holds a two- or three-mode state.  Every photon
of the drive leaves the input splitter, the phase and the loss in one
mode, and the loss keeps each one independently, so the ancilla traces
out to sectors of N surviving photons: sector N has the weight K[N],
the drive's photon-number distribution thinned binomially
(:func:`_thinned`), and the pure state v_N of N photons in the
survivors' mode, after the output mixer.  Each v_N follows from the one
before by one creation operator, v_N = (x a† + y b†) v_(N-1) / sqrt(N),
with (x, y) the mixer applied to that mode.  Lossy and lossless calls
take one path, at O(n^2) time and O(n) memory a point, n the drive's
last photon number: the drive, not the cutoff, sets the cost.

:func:`simulate_values` is that engine over arrays of theta1, theta2,
phi and kappa that share the drive and the cutoff, as
:func:`~uil.analytic.metrics_values` takes them.  The thinnings and
each sector's column carry a point axis, so the sector loop runs once
for a chunk of points, as many as fit in 1/2048 of physical memory.
:func:`simulate` is its one-point call.

Truncation is surfaced, never hidden.  :func:`check_cutoff` is the one
rule for which cutoff holds a drive, and :func:`simulate_values` and
``uil verify`` (with its tolerance) both apply it; coherent states are
not renormalized.  One pass over the drive's Poisson tail,
:func:`_truncation`, gives that rule, the cutoff that
:func:`required_cutoff` names and the moment shift at which
:func:`simulate_values` emits :class:`TruncationWarning`.  Its weights,
from one start at the mode (:func:`_poisson`), are the engine's drive.
"""

from __future__ import annotations

import math
from numbers import Integral
import sys
from typing import NamedTuple
import warnings

import numpy as np

from . import params as _params
from .params import InterferometerParams, check_memory

TAIL_TOL = 1e-10  # Poisson weight a coherent state may leave beyond n_max
SHIFT_TOL = 1e-8  # moment shift of the drive truncated at n_max at which simulate warns
_CHUNK_SHARE = 2048  # a chunk of simulate_values's points counts at most 1/_CHUNK_SHARE of physical memory
_POINT_BYTES = 192, 72  # a point on the drive's weights 0 .. n counts 192 (n + 72) bytes, at least its traced peak

__all__ = [
    "TruncationError",
    "TruncationWarning",
    "SimulationMoments",
    "check_cutoff",
    "required_cutoff",
    "simulate",
    "simulate_values",
]


class TruncationError(Exception):
    """Raised when a state cannot be represented at the requested cutoff."""

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required_cutoff = required


class TruncationWarning(UserWarning):
    """Emitted when truncating the drive at n_max shifts its photon-number moments by ``SHIFT_TOL`` or more."""


def _photon_mean(alpha: complex) -> float:
    """|alpha|^2; a ValueError where it exceeds the double range."""
    try:
        return abs(complex(alpha)) ** 2
    except OverflowError:
        raise ValueError(f"|alpha|^2 exceeds the double range, got alpha = {alpha!r}") from None


def _poisson(mean: float, low: int, high: int) -> np.ndarray:
    """Poisson(``mean``) weights p_n, n = ``low`` .. ``high``, or up to the last nonzero one past the mode.

    One start and running products from it, of mean / n going up and of
    n / mean going down, each ratio and product rounded once.  They start
    at n = 0 from e^-mean while the mode m = floor(mean) is at most 15,
    else at m from Loader's saddle-point form (R's ``dpois``):
    log p_m = -log(2 pi m) / 2 - stirlerr(m) + (m log1p(d / m) - d),
    d = mean - m exact, and Stirling's error
    stirlerr(m) = log(m!) - log(sqrt(2 pi m) (m / e)^m) from five terms
    of its series in 1 / m, exact to 1e-16 from m = 16 on.  The products
    are carried 2^64 times too large, as normal doubles, so even a
    subnormal weight is rounded once.  Past the mode the weights fall,
    and end where they underflow to 0 or, if that comes first, where
    Bernstein's bound on P(X >= n), exp(-t^2 / (2 (mean + t / 3))) at
    t = n - mean, falls below e^-745: the mean bounds the work, never
    ``high``.
    """
    mode = int(mean)
    high = min(high, mode + 250 + int(math.sqrt(1490.0 * mean + 250.0**2)))
    origin = mode if mode > 15 else 0  # where the products start
    log_start = -mean  # log p_origin
    if origin:
        d, s = mean - origin, 1.0 / origin**2
        stirlerr = (1 / 12 - s * (1 / 360 - s * (1 / 1260 - s * (1 / 1680 - s / 1188)))) / origin
        log_start = origin * math.log1p(d / origin) - d - stirlerr - 0.5 * math.log(2.0 * math.pi * origin)
    first = min(low, origin)
    weights = np.arange(first, max(high, origin) + 1, dtype=float)  # n, then 2^64 p_n, then p_n
    at = origin - first
    np.divide(weights[:at] + 1.0, mean, out=weights[:at])  # p_n / p_(n+1) below the origin
    np.divide(mean, weights[at + 1 :], out=weights[at + 1 :])  # p_n / p_(n-1) above it
    weights[at] = math.exp(log_start) * 2.0**64
    np.cumprod(weights[at:], out=weights[at:])
    np.cumprod(weights[at::-1], out=weights[at::-1])
    weights *= 2.0**-64
    end = min(high + 1, mode + 1 + np.count_nonzero(weights[mode + 1 - first :]))
    return weights[low - first : end - first].copy()


def _truncation(mean: float, tol: float | None) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The first cutoff of a drive of |alpha|^2 = ``mean``, and the weight, tail, shift and verdict from it on.

    Entry i is n_max = start + i, start = max(1, floor(mean)): the
    weight p_n at n = n_max (:func:`_poisson`); the weight beyond it,
    P(X > n_max); the larger shift, of the photon-number mean or of its
    standard deviation, that the drive truncated there (not
    renormalized, as :func:`simulate` holds it) shows against the full
    Poisson(mean); and whether n_max holds the drive.  It does where the
    tail is below ``TAIL_TOL`` and the shift is below ``tol``, the limit
    of a check of moments to within ``tol``, or without one below
    ``SHIFT_TOL``, where :func:`simulate_values` warns; unless the tail
    is already below eps, which double precision cannot resolve: such a
    tail is never asked for.

    The tails are the weights' sums from the top down: every term is
    positive, so a small tail is never a difference of nearly equal
    numbers.  The table ends where the weights do, and past its end
    every tail is below the smallest double.  Both shifts follow exactly
    from three tails: sum_{k>n} k p_k = mean P(X > n - 1) and
    sum_{k>n} k^2 p_k = mean^2 P(X > n - 2) + mean P(X > n - 1),
    where P(X > n - 1) = P(X > n) + p_n and P(X > n - 2) adds
    p_{n-1} = n p_n / mean to that.  The variance shift is a sum of
    terms, so no difference of nearly equal moments is rounded.
    """
    start = max(1, int(mean))
    if mean == 0.0:
        return start, np.zeros(0), np.zeros(1), np.zeros(1), np.ones(1, dtype=bool)
    weights = _poisson(mean, start, sys.maxsize)
    tails = np.append(np.cumsum(weights[:0:-1])[::-1], 0.0)  # P(X > n)
    above = tails + weights  # P(X > n - 1)
    variance_shift = mean**2 * (above - above**2) - mean * (weights * np.arange(start, start + tails.size) + above)
    std_shift = np.abs(variance_shift) / (np.sqrt(mean + variance_shift) + math.sqrt(mean))
    shifts = np.maximum(mean * above, std_shift)
    holds = (tails < TAIL_TOL) & ((tails < sys.float_info.epsilon) | (shifts < (SHIFT_TOL if tol is None else tol)))
    return start, weights, tails, shifts, holds


def check_cutoff(alpha: complex, n_max, tol: float | None = None) -> int:
    """The highest retained photon number per mode, checked to hold the drive ``alpha``.

    In order: ``n_max`` must be an integer >= 1 and |alpha|^2 finite,
    else ValueError.  Then, else :class:`TruncationError`: |alpha|^2 <=
    n_max (a drive beyond the cutoff leaves about half its Poisson
    weight or more there, refused without a table); one point of
    :func:`simulate_values` at the drive's mean fits physical memory
    (:func:`_check_drive_memory`, whatever the cutoff); and the Poisson
    weight beyond n_max is below ``TAIL_TOL`` and, with ``tol``, shifts the
    drive's moments by less than ``tol``.  That last error names the
    smallest cutoff that fits, :func:`required_cutoff`: both read the
    drive's :func:`_truncation` table, which without ``tol`` names the
    first cutoff whose shift is also below ``SHIFT_TOL``.
    """
    return _checked(alpha, n_max, tol)[0]


def _checked(alpha: complex, n_max, tol: float | None) -> tuple[int, float, int, np.ndarray]:
    """:func:`check_cutoff`'s cutoff, the drive's moment shift there, and the table's start and weights to it."""
    if not isinstance(n_max, Integral) or n_max < 1:
        raise ValueError(f"n_max must be an integer >= 1, got {n_max!r}")
    n_max = int(n_max)
    mean = _photon_mean(alpha)
    if mean > n_max:
        raise TruncationError(
            f"|alpha|^2 = {mean:.6g} exceeds n_max = {n_max}, which leaves about half the "
            f"Poisson weight or more beyond the cutoff; n_max must exceed |alpha|^2"
        )
    _check_drive_memory(mean)
    start, weights, tails, shifts, holds = _truncation(mean, tol)
    at = min(n_max - start, tails.size - 1)  # past the table's end as at its last entry, whose tail is 0
    if tails[at] >= TAIL_TOL or (tol is not None and not holds[at]):
        dropped = f"the Poisson weight {tails[at]:.3e} of |alpha|^2 = {mean:.6g} beyond n_max = {n_max}"
        if tails[at] >= TAIL_TOL:
            shortfall = f"{dropped} is not below {TAIL_TOL:.1e}"
        else:
            shortfall = f"{dropped} shifts the drive's moments by {shifts[at]:.3e}, not below tol = {tol:.1e}"
        needed = start + int(np.argmax(holds))
        raise TruncationError(f"{shortfall}; use n_max >= {needed}", required=needed)
    return n_max, float(shifts[at]), start, weights[: at + 1]


def _point_bytes(n: int) -> int:
    """What one point of :func:`simulate_values` holds at most on the drive's weights 0 .. n, in bytes."""
    return _POINT_BYTES[0] * (n + _POINT_BYTES[1])


def _check_drive_memory(mean: float) -> None:
    """The memory refusal of a drive of |alpha|^2 = ``mean``, whose weights reach floor(mean) at least."""
    what = f"{_POINT_BYTES[0]} (n + {_POINT_BYTES[1]}) at n = floor(|alpha|^2) for the drive and one point's columns"
    check_memory(_point_bytes(int(mean)), f"|alpha|^2 = {mean:.6g} needs at least", what, TruncationError)


def required_cutoff(alpha: complex, tol: float | None = None) -> int:
    """Smallest n_max >= max(1, floor(|alpha|^2)) that holds the drive ``alpha`` (:func:`_truncation`).

    The first cutoff that holds in the drive's :func:`_truncation`
    table; without ``tol``, the first at which :func:`simulate` neither
    refuses nor warns, as with ``tol`` = ``SHIFT_TOL``.  Where the
    drive's one point would already exceed physical memory
    (:func:`_check_drive_memory`), no cutoff fits, and
    :class:`TruncationError` (with ``required_cutoff`` None) says so
    before any table is built.
    """
    mean = _photon_mean(alpha)
    _check_drive_memory(mean)
    start, *_, holds = _truncation(mean, tol)
    return start + int(np.argmax(holds))


class SimulationMoments(NamedTuple):
    """Detector moments ``mean_O``, ``std_O`` of n_b - n_a, after the loss and the output mixer,
    and probe moments ``probe_intensity``, ``probe_std`` of the probe's photon number right
    after the input splitter, before the phase and the loss."""

    mean_O: float
    std_O: float
    probe_intensity: float
    probe_std: float


def _thinned(drive: np.ndarray, keep, lose) -> np.ndarray:
    """sum_n drive[n] C(n, k) keep^k lose^(n - k), k = 0 .. n_max along a leading axis, per ``keep``.

    Each of a number state's photons is kept with probability ``keep``
    and dropped with ``lose``, which are given, not taken as one minus
    the other: the coefficients of sum_n drive[n] (lose + keep z)^n, by
    Horner's rule from the top photon number down.  Every term is
    positive, so nothing cancels.
    """
    n_max = drive.size - 1
    thinned = np.zeros(drive.shape + np.shape(keep))
    for n in range(n_max, -1, -1):
        top = n_max - n  # the coefficients so far are those of z^0 .. z^(top - 1)
        previous = thinned[:top]
        raised = previous * keep
        previous *= lose
        thinned[1 : top + 1] += raised
        thinned[0] += drive[n]
    return thinned


def _chunk_moments(drive: np.ndarray, theta1, theta2, phi, kappa) -> np.ndarray:
    """Rows mean_O, std_O, probe_intensity, probe_std over 1-D arrays of points, one sector loop."""
    d = drive.size
    n_max = d - 1
    photons = np.arange(d, dtype=float)
    cos, sin = np.cos(theta1), np.sin(theta1)
    transmission = np.exp(-kappa)
    # each drive photon enters the probe (sin^2) or stays in mode a (cos^2); past the loss it
    # stays in mode a or survives in the probe (cos^2 + sin^2 T^2), or is lost (sin^2 (1 - T^2))
    keep = np.stack([sin**2, cos**2 + (sin * transmission) ** 2])
    lose = np.stack([cos**2, sin**2 * -np.expm1(-2.0 * kappa)])
    thinned = _thinned(drive, keep, lose)
    probe, survivors = thinned[:, 0], thinned[:, 1]  # the probe's photon numbers, and K[N]
    probe_intensity, probe_second = np.stack([photons, photons**2]) @ probe
    # a surviving photon's mode but for a global phase: (cos t e^(i phi), -sin t), t = atan2(T sin, cos)
    t = np.arctan2(transmission * sin, cos)
    mode_a, mode_b = np.cos(t) * np.exp(1j * phi), -np.sin(t)
    x = np.cos(theta2) * mode_a + np.sin(theta2) * mode_b  # the mixer sends a† to c a† - s b†
    y = np.cos(theta2) * mode_b - np.sin(theta2) * mode_a  # and b† to s a† + c b†
    roots = np.sqrt(photons)[:, None]
    signal = np.arange(n_max, -d, -1.0)  # n_b - n_a = N - 2 n_a: every other entry from n_max - N
    powers = np.stack([signal, signal**2])
    column = np.zeros((d, phi.size), dtype=complex)  # v_N[n_a] = <n_a, N - n_a| v_N>, per point
    column[0] = 1.0
    pairs = column.view(np.float64).reshape(d, -1, 2)
    moments = np.zeros((d, 2, phi.size))  # each sector's mean and second moment of n_b - n_a, per point
    for total in range(1, d):
        # v_N = (x a† + y b†) v_(N-1) / sqrt(N)
        previous = column[:total]
        ratios = roots[1 : total + 1] / roots[total]  # sqrt(n_a / N), n_a = 1 .. N
        raised = previous * ratios
        raised *= x
        previous *= ratios[::-1]
        previous *= y
        column[1 : total + 1] += raised
        sector = pairs[: total + 1]
        probabilities = np.einsum("ipj,ipj->ip", sector, sector)
        np.matmul(powers[:, n_max - total : n_max + total + 1 : 2], probabilities, out=moments[total])
    mean, second = np.einsum("np,nkp->kp", survivors, moments)
    variances = np.maximum([second - np.square(mean), probe_second - np.square(probe_intensity)], 0.0)
    return np.stack([mean, np.sqrt(variances[0]), probe_intensity, np.sqrt(variances[1])])


def simulate_values(theta1, theta2, phi, kappa, alpha: complex, n_max: int) -> dict[str, np.ndarray]:
    """Every :class:`SimulationMoments` field over broadcast arrays of the angles, phase and kappa.

    Returns the four fields, in field order, as arrays of the broadcast
    shape of ``theta1``, ``theta2``, ``phi`` and ``kappa``; the drive
    ``alpha`` and the cutoff ``n_max`` are shared by every point, and the
    parameters are taken as checked, as :class:`InterferometerParams`
    checks them.  Each point is propagated as :func:`simulate` describes.
    The points run through the sector loop in chunks, a chunk's columns
    side by side along a point axis, so each numpy call serves every
    point of the chunk.

    The cutoff passes :func:`check_cutoff`.  The drive, not the cutoff,
    sets the work: the engine runs on its weights 0 .. n, n <= n_max, the
    cutoff table's and :func:`_poisson`'s below them.  A point counts
    192 (n + 72) bytes (``_POINT_BYTES``), at least what a first call
    holds at one point, as traced at every cutoff from 1 to 333: the
    drive, the two thinnings, the column and its raised copy, and the
    sector moments, about 180 bytes a photon number, and a fixed 12 KB
    at small cutoffs, most of it numpy's broadcasting of the inputs.
    The cutoff check's :func:`_truncation` table comes before them, and
    holds at most 0.87 of the count, at |alpha| = 4.4 and n_max = 53, as
    traced for |alpha| up to 16 at the cutoff :func:`required_cutoff`
    names.  A chunk holds as many points as that count fits in
    1/_CHUNK_SHARE of physical memory, and at least one; the chunk
    bounds memory only, as a larger one ran faster at every cutoff.  Emits
    :class:`TruncationWarning` when the drive truncated at n_max shifts
    its photon-number mean or standard deviation by ``SHIFT_TOL`` or more
    (:func:`_truncation`): every sector up to n_max is exact, so the
    dropped Poisson tail is the one truncation error.
    """
    inputs = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (theta1, theta2, phi, kappa)))
    n_max, shift, table_start, drive = _checked(alpha, n_max, None)
    if shift >= SHIFT_TOL:
        dropped = f"truncating the drive at n_max = {n_max} shifts its moments by {shift:.3e}"
        warnings.warn(f"{dropped}, which reaches {SHIFT_TOL:.1e}; increase the cutoff", TruncationWarning, stacklevel=2)
    drive = np.concatenate([_poisson(_photon_mean(alpha), 0, table_start - 1), drive])  # p_0 .. p_n
    chunk = max(1, (_params.physical_memory_bytes() or 0) // (_CHUNK_SHARE * _point_bytes(drive.size - 1)))
    points = [values.ravel() for values in inputs]
    moments = np.empty((4, points[0].size))
    for start in range(0, points[0].size, chunk):
        moments[:, start : start + chunk] = _chunk_moments(drive, *(p[start : start + chunk] for p in points))
    return dict(zip(SimulationMoments._fields, moments.reshape(4, *inputs[0].shape)))


def simulate(params: InterferometerParams, n_max: int) -> SimulationMoments:
    """Propagate the input state through the full network and measure, at one point.

    Pipeline: splitter(theta1), probe-arm statistics, probe phase,
    attenuation to a vacuum ancilla through a splitter of transmission
    T = exp(-kappa), splitter(theta2), then mean and standard deviation
    of the detector difference signal n_b - n_a, the drive entering mode
    a with vacuum in mode b.  The ancilla is traced out as the module
    describes: each drive photon survives with probability
    cos(theta1)^2 + sin(theta1)^2 T^2, into the mode
    (cos(t) e^(i phi), -sin(t)) of modes a and b but for a global phase,
    t = atan2(T sin(theta1), cos(theta1)).  Sector N holds K[N], the
    drive thinned to its survivors, and the column v_N of N photons in
    that mode after the mixer, whose detector marginal is
    K[N] |v_N[n_a]|^2 at n_b = N - n_a.

    The one-point call of :func:`simulate_values`, with its checks and
    its warning.
    """
    values = simulate_values(params.theta1, params.theta2, params.phi, params.kappa, params.alpha, n_max)
    return SimulationMoments(**{name: float(value) for name, value in values.items()})
