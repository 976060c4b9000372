"""Truncated Fock-space simulator of the interferometer.

Brute-force oracle for the closed forms in :mod:`uil.analytic`: the
drive is held as the moduli of its number-state amplitudes, up to
n_max photons or to where its weights underflow to 0, beam splitters
are exponentials of the quadratic mode generator, and probe-arm
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
not renormalized.  :func:`simulate_values` emits
:class:`TruncationWarning` when the drive puts weight on |n_max>, the
one photon number that the network carries unchanged to total n_max.
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
EDGE_TOL = 1e-8  # population at total photon number n_max at which simulate warns
_TAIL_BLOCK = 4096  # Poisson terms summed per numpy call, at most
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
    """Emitted when population at total photon number n_max makes results untrustworthy."""


def _poisson_tail(n: int, mean: float) -> float:
    """P(X > n) for X ~ Poisson(mean), at n + 1 >= mean, summed from its terms.

    The terms p_k = exp(k log(mean) - mean - lgamma(k + 1)), k > n, are
    summed relative to the first, whose logarithm carries the scale.  At
    or above the mean each is smaller than the one before, so a small
    tail is never a difference of nearly equal numbers, and no term
    over- or underflows before it is negligible.  Below the mean, which
    no caller asks for (:func:`check_cutoff` refuses |alpha|^2 > n_max
    first, and :func:`required_cutoff` starts at floor(|alpha|^2)), a
    ValueError.
    """
    if n + 1 < mean:
        raise ValueError(f"the Poisson tail is summed at n + 1 >= mean only, got n = {n}, mean = {mean!r}")
    if mean == 0.0:
        return 0.0
    k = n + 1
    log_first = k * math.log(mean) - mean - math.lgamma(k + 1)
    term = total = 1.0  # relative to p_k
    block = min(_TAIL_BLOCK, k)  # a small n needs few terms, and 4096 would set a small call's memory
    while term > 1e-17 * total:  # a block of terms at a time
        terms = term * np.cumprod(mean / np.arange(k + 1, k + 1 + block))
        k += block
        total += float(terms.sum())
        term = float(terms[-1])
    return math.exp(log_first + math.log(total))


def _photon_mean(alpha: complex) -> float:
    """|alpha|^2; a ValueError where it exceeds the double range."""
    try:
        return abs(complex(alpha)) ** 2
    except OverflowError:
        raise ValueError(f"|alpha|^2 exceeds the double range, got alpha = {alpha!r}") from None


def _moment_shift(n: int, mean: float, tail: float) -> float:
    """How far dropping the Poisson weight ``tail`` = P(X > n) moves the drive's moments.

    The larger shift, of the photon-number mean or of its standard
    deviation, that the truncated drive (not renormalized, as
    :func:`simulate` holds it) shows against the full Poisson(mean).
    Both follow exactly from three tails:
    sum_{k>n} k p_k = mean P(X > n - 1) and
    sum_{k>n} k^2 p_k = mean^2 P(X > n - 2) + mean P(X > n - 1),
    where P(X > n - 1) = ``tail`` + p_n and P(X > n - 2) adds
    p_{n-1} = n p_n / mean to that.  The variance shift is a sum of
    terms, so no difference of nearly equal moments is rounded.
    """
    term = math.exp(n * math.log(mean) - mean - math.lgamma(n + 1))  # p_n
    above = tail + term  # P(X > n - 1)
    variance_shift = mean**2 * (above - above**2) - mean * (n * term + above)
    std_shift = abs(variance_shift) / (math.sqrt(mean + variance_shift) + math.sqrt(mean))
    return max(mean * above, std_shift)


def _shortfall(n: int, mean: float, tol: float | None) -> str | None:
    """Why n_max = n does not hold a drive of mean |alpha|^2, n + 1 >= mean; None if it does.

    The Poisson weight beyond n must stay below ``TAIL_TOL``.  With
    ``tol``, the limit of a check of moments to within ``tol``, the
    drive's mean and standard deviation must also shift by less than
    ``tol`` (:func:`_moment_shift`), unless the tail is already below
    eps, which double precision cannot resolve: such a tail is never
    asked for.
    """
    tail = _poisson_tail(n, mean)
    dropped = f"the Poisson weight {tail:.3e} of |alpha|^2 = {mean:.6g} beyond n_max = {n}"
    if tail >= TAIL_TOL:
        return f"{dropped} is not below {TAIL_TOL:.1e}"
    if tol is None or tail < sys.float_info.epsilon or (shift := _moment_shift(n, mean, tail)) < tol:
        return None
    return f"{dropped} shifts the drive's moments by {shift:.3e}, not below tol = {tol:.1e}"


def check_cutoff(alpha: complex, n_max, tol: float | None = None) -> int:
    """The highest retained photon number per mode, checked to hold the drive ``alpha``.

    In order: ``n_max`` must be an integer >= 1 and |alpha|^2 finite,
    else ValueError.  Then, else :class:`TruncationError`: |alpha|^2 <=
    n_max (a drive beyond the cutoff leaves about half its Poisson
    weight or more there, refused without a search); one point of
    :func:`simulate_values` at the drive's mean fits physical memory
    (:func:`_check_drive_memory`, whatever the cutoff); and the Poisson
    weight beyond n_max is below ``TAIL_TOL`` and, with ``tol``, shifts the
    drive's moments by less than ``tol`` (:func:`_shortfall`).  That
    last error names the smallest cutoff that fits,
    :func:`required_cutoff`.
    """
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
    if shortfall := _shortfall(n_max, mean, tol):
        needed = required_cutoff(alpha, tol)
        raise TruncationError(f"{shortfall}; use n_max >= {needed}", required=needed)
    return n_max


def _point_bytes(n: int) -> int:
    """What one point of :func:`simulate_values` holds at most on the drive's weights 0 .. n, in bytes."""
    return _POINT_BYTES[0] * (n + _POINT_BYTES[1])


def _check_drive_memory(mean: float) -> None:
    """The memory refusal of a drive of |alpha|^2 = ``mean``, whose weights reach floor(mean) at least."""
    what = f"{_POINT_BYTES[0]} (n + {_POINT_BYTES[1]}) at n = floor(|alpha|^2) for the drive and one point's columns"
    check_memory(_point_bytes(int(mean)), f"|alpha|^2 = {mean:.6g} needs at least", what, TruncationError)


def required_cutoff(alpha: complex, tol: float | None = None) -> int:
    """Smallest n_max >= max(1, floor(|alpha|^2)) that holds the drive ``alpha`` (:func:`_shortfall`).

    Every condition only eases as n_max grows, so one search gallops up
    from the mean and then bisects.  Where the drive's one point would
    already exceed physical memory (:func:`_check_drive_memory`), no
    cutoff fits, and :class:`TruncationError` (with ``required_cutoff``
    None) says so before any search.
    """
    mean = _photon_mean(alpha)
    _check_drive_memory(mean)
    start = max(1, int(mean))
    too_small, fits, step = start - 1, start, 1
    while _shortfall(fits, mean, tol):
        too_small, fits, step = fits, fits + step, 2 * step
    while fits - too_small > 1:
        middle = (too_small + fits) // 2
        if _shortfall(middle, mean, tol):
            too_small = middle
        else:
            fits = middle
    return fits


def _coherent_amplitudes(alpha: complex, n_max: int) -> np.ndarray:
    """exp(-|alpha|^2/2) |alpha|^n / sqrt(n!) from n = 0 up to n_max at most, by the stable recurrence.

    The moduli only: the phase of alpha enters no output.  The
    recurrence starts at the first n whose amplitude is a normal double,
    as a running sum of logs tells (n = 0 unless |alpha|^2 exceeds about
    1416), and the amplitudes below it are 0, so a drive whose
    exp(-|alpha|^2/2) underflows keeps its digits and its weight.  The
    start's value is the exact sum (``math.fsum``) of -|alpha|^2/2 and the
    steps log(|alpha| / sqrt(n)), each rounded once, taken to exp in two
    parts, the rounded sum and its residue, since doubles near -708 lie
    1.1e-13 apart.  Each step is a_(n-1) |alpha| (1 / sqrt(n)), as numpy
    rounds a complex a_(n-1) alpha / sqrt(n) at real alpha.  They end at
    n_max, or before the first n above |alpha|^2 whose weight a_n^2 is 0.
    """
    modulus = abs(complex(alpha))
    mean = modulus**2
    terms = [-0.5 * mean]  # they sum to log |amplitude| at n = len(terms) - 1, rising up to n = |alpha|^2
    running = terms[0]  # their rounded sum, as fsum-ing them at each step would be quadratic
    while running < math.log(sys.float_info.min):  # below it the amplitude is subnormal
        terms.append(0.5 * math.log(mean / len(terms)))
        running += terms[-1]
    log_modulus = math.fsum(terms)
    start, residue = len(terms) - 1, math.fsum([*terms, -log_modulus])
    amplitudes = [math.exp(log_modulus) * math.exp(residue)]
    for n in range(start + 1, n_max + 1):
        amplitude = amplitudes[-1] * modulus * (1.0 / math.sqrt(n))
        if n > mean and amplitude * amplitude == 0.0:
            break
        amplitudes.append(amplitude)
    return np.concatenate([np.zeros(start), amplitudes])


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
    sets the work: the engine runs on the weights 0 .. n that
    :func:`_coherent_amplitudes` gives, n <= n_max.  A point counts
    192 (n + 72) bytes (``_POINT_BYTES``), at least what a first call
    holds at one point, as traced at every cutoff from 1 to 333: the
    drive, the two thinnings, the column and its raised copy, and the
    sector moments, about 180 bytes a photon number, and a fixed 12 KB
    at small cutoffs, most of it numpy's broadcasting of the inputs.  A
    chunk holds as many points as that count fits in 1/_CHUNK_SHARE of
    physical memory, and at least one; the chunk bounds memory only, as
    a larger one ran faster at every cutoff.  Emits
    :class:`TruncationWarning` when the drive's weight at |n_max> reaches
    ``EDGE_TOL``: the network conserves the total photon number (ancilla
    included), so that is the population at total photon number n_max.
    """
    inputs = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (theta1, theta2, phi, kappa)))
    n_max = check_cutoff(alpha, n_max)
    drive = _coherent_amplitudes(alpha, n_max) ** 2  # photon-number distribution
    chunk = max(1, (_params.physical_memory_bytes() or 0) // (_CHUNK_SHARE * _point_bytes(drive.size - 1)))
    if drive.size > n_max and drive[-1] >= EDGE_TOL:
        edge = f"edge population {drive[-1]:.3e} at total photon number n_max = {n_max} reaches {EDGE_TOL:.1e}"
        warnings.warn(f"{edge}; increase the cutoff", TruncationWarning, stacklevel=2)
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
