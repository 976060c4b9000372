"""Truncated Fock-space simulator of the interferometer.

Brute-force oracle for the closed forms in :mod:`uil.analytic`: the
drive is held as number-state amplitudes up to n_max photons, beam
splitters are exponentials of the quadratic mode generator, and
probe-arm attenuation is a beam splitter coupling the probe to a vacuum
ancilla that is traced out (the non-unitary shortcut used by the closed
forms only works for coherent beams; the dilation works for any drive).

:func:`simulate` never holds a two- or three-mode state.  The input and
loss splitters each meet a number state with vacuum, which splits
binomially (:func:`_split_table`), and the two splits compose into a
trinomial: in output-mixer sector N = n_a + n_b the amplitude of n_a,
n_b and l lost photons is a product u_N[n_a] v_N[l].  So the ancilla
traces out to one column per sector, weighted by the drive's
photon-number distribution thinned by the loss (:func:`_vacuum_split`),
and the sector's real rotation (:func:`_mixer_sectors`, each from the
one before) turns it into the detector marginal.  Lossy and lossless
calls take one path, at O(n_max^3) time and O(n_max^2) memory.

Truncation is surfaced, never hidden.  :func:`check_cutoff` is the one
rule for which cutoff holds a drive, and :func:`simulate` and
``uil verify`` (with its tolerance) both apply it; coherent states are
not renormalized.  :func:`simulate` also refuses a cutoff whose arrays
would exceed physical memory, and emits :class:`TruncationWarning` when
the drive puts weight on |n_max>, the one photon number that the
network carries unchanged to total n_max.
"""

from __future__ import annotations

import math
from numbers import Integral
import sys
from typing import Iterator, NamedTuple
import warnings

import numpy as np

from .params import InterferometerParams, check_memory

TAIL_TOL = 1e-10  # Poisson weight a coherent state may leave beyond n_max
EDGE_TOL = 1e-8  # population at total photon number n_max at which simulate warns
_TAIL_BLOCK = 4096  # Poisson terms summed per numpy call

__all__ = [
    "TruncationError",
    "TruncationWarning",
    "SimulationMoments",
    "check_cutoff",
    "required_cutoff",
    "simulate",
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
    while term > 1e-17 * total:  # a block of terms at a time
        terms = term * np.cumprod(mean / np.arange(k + 1, k + 1 + _TAIL_BLOCK))
        k += _TAIL_BLOCK
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
    """Why n_max = n does not hold a drive of mean |alpha|^2 > 0, n + 1 >= mean; None if it does.

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
    weight or more there, refused without a search); the drive's
    amplitudes fit physical memory; and the Poisson weight beyond n_max
    is below ``TAIL_TOL`` and, with ``tol``, shifts the drive's moments
    by less than ``tol`` (:func:`_shortfall`).  That last error names the
    smallest cutoff that fits, :func:`required_cutoff`.
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
    what = "16 (n_max + 1) for the drive alone"
    check_memory(16 * (n_max + 1), f"n_max = {n_max} needs about", what, TruncationError)
    if mean > 0.0 and (shortfall := _shortfall(n_max, mean, tol)):
        needed = required_cutoff(alpha, tol)
        raise TruncationError(f"{shortfall}; use n_max >= {needed}", required=needed)
    return n_max


def required_cutoff(alpha: complex, tol: float | None = None) -> int:
    """Smallest n_max >= max(1, floor(|alpha|^2)) that holds the drive ``alpha`` (:func:`_shortfall`).

    Every condition only eases as n_max grows, so one search gallops up
    from the mean and then bisects.
    """
    mean = _photon_mean(alpha)
    if mean == 0.0:
        return 1
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
    """exp(-|alpha|^2/2) alpha^n / sqrt(n!) for n = 0 .. n_max, by the stable recurrence.

    The recurrence starts at the first n whose amplitude is a normal
    double, as a running sum of logs tells (n = 0 unless |alpha|^2 exceeds
    about 1416), and the amplitudes below it are 0, so a drive whose
    exp(-|alpha|^2/2) underflows keeps its digits and its weight.  The
    start's value is the exact sum (``math.fsum``) of -|alpha|^2/2 and the
    steps log(|alpha| / sqrt(n)), each rounded once, taken to exp in two
    parts, the rounded sum and its residue, since doubles near -708 lie
    1.1e-13 apart.
    """
    alpha = complex(alpha)
    mean = abs(alpha) ** 2
    terms = [-0.5 * mean]  # they sum to log |amplitude| at n = len(terms) - 1, rising up to n = |alpha|^2
    running = terms[0]  # their rounded sum, as fsum-ing them at each step would be quadratic
    while running < math.log(sys.float_info.min):  # below it the amplitude is subnormal
        terms.append(0.5 * math.log(mean / len(terms)))
        running += terms[-1]
    log_modulus = math.fsum(terms)
    start, residue = len(terms) - 1, math.fsum([*terms, -log_modulus])
    amplitudes = np.zeros(n_max + 1, dtype=complex)
    amplitudes[start] = math.exp(log_modulus) * math.exp(residue) * np.exp(1j * np.angle(alpha)) ** start
    for n in range(start + 1, n_max + 1):
        amplitudes[n] = amplitudes[n - 1] * alpha / math.sqrt(n)
    return amplitudes


class SimulationMoments(NamedTuple):
    """Detector moments ``mean_O``, ``std_O`` of n_b - n_a, after the loss and the output mixer,
    and probe moments ``probe_intensity``, ``probe_std`` of the probe's photon number right
    after the input splitter, before the phase and the loss."""

    mean_O: float
    std_O: float
    probe_intensity: float
    probe_std: float


def _split_table(theta: float, n_max: int) -> np.ndarray:
    """<n_a, n_b| exp(theta G) |n_a + n_b, 0> for n_a, n_b = 0 .. n_max, G = a†b - ab†.

    A number state that meets vacuum splits binomially:
    sqrt(C(n_a + n_b, n_b)) cos(theta)^n_a (-sin(theta))^n_b, as the
    splitter sends a† to cos(theta) a† - sin(theta) b†.  Column n_b = 0
    is cos(theta)^n_a, and each further column follows from the one
    before by the factor -sin(theta) sqrt((n_a + n_b) / n_b).  Every
    partial product is an entry of the unitary, at most 1, so none
    overflows.
    """
    n = np.arange(n_max + 1.0)
    factors = np.empty((n_max + 1, n_max + 1))
    factors[:, 0] = math.cos(theta) ** n
    factors[:, 1:] = -math.sin(theta) * np.sqrt(np.add.outer(n, n[1:]) / n[1:])
    return np.cumprod(factors, axis=1)


def _mixer_sectors(theta: float, dim: int) -> Iterator[np.ndarray]:
    """exp(theta G), G = a†b - ab†, on each sector N = 0 .. dim - 1, rows and columns n_a ascending.

    Each block is real orthogonal, column n_a holding U|n_a, N - n_a>.
    As U sends a† to c a† - s b† and b† to s a† + c b† (c, s = cos, sin
    theta), each block follows from the one before in O(N^2), by the Fock form
    of Risbo's recursion for the Wigner d-functions:
    N U|n_a, n_b> = sqrt(n_a) (c a† - s b†) U|n_a - 1, n_b> + sqrt(n_b) (s a† + c b†) U|n_a, n_b - 1>.
    """
    cos, sin = math.cos(theta), math.sin(theta)
    roots = np.sqrt(np.arange(1.0, dim))
    rotation = np.ones((1, 1))
    yield rotation
    for total in range(1, dim):
        up, down = roots[:total], roots[total - 1 :: -1]  # sqrt(n_a + 1), sqrt(n_b + 1) for n_a < N
        cos_up, sin_up = (cos / total) * up, (sin / total) * up
        previous, rotation = rotation, np.zeros((total + 1, total + 1))
        raised = previous * up[:, None]  # a† on each column
        rotation[1:, 1:] += raised * cos_up
        rotation[1:, :-1] += raised * sin_up[::-1]
        np.multiply(previous, down[:, None], out=raised)  # b† on each column
        rotation[:-1, 1:] -= raised * sin_up
        rotation[:-1, :-1] += raised * cos_up[::-1]
        yield rotation


def _vacuum_split(weights: np.ndarray, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Both output marginals, over n_a and over n_b, of a number distribution ``weights`` split
    against vacuum: of the joint distribution weights[n_a + n_b] _split_table(theta)[n_a, n_b]^2."""
    n_max = weights.size - 1
    joint = _split_table(theta, n_max)
    np.square(joint, out=joint)
    joint *= np.lib.stride_tricks.sliding_window_view(np.pad(weights, (0, n_max)), n_max + 1)
    return joint.sum(axis=1), joint.sum(axis=0)


def simulate(params: InterferometerParams, n_max: int) -> SimulationMoments:
    """Propagate the input state through the full network and measure.

    Pipeline: splitter(theta1), probe-arm statistics, probe phase,
    attenuation to a vacuum ancilla through a splitter of transmission
    T = exp(-kappa), splitter(theta2), then mean and standard deviation
    of the detector difference signal n_b - n_a, the drive entering mode
    a with vacuum in mode b.  The ancilla is traced out as the module
    describes: sector N holds K[N], the drive thinned at loss
    probability sin(theta1)^2 (1 - T^2), in the unit column
    û_N[n_a] = sqrt(C(N, n_a)) cos(t)^n_a (-sin(t))^(N - n_a) exp(-i phi (N - n_a)),
    t = atan2(T sin(theta1), cos(theta1)); its detector marginal is
    K[N] |R_N û_N|^2, R_N the sector's rotation.

    The cutoff passes :func:`check_cutoff`, and one whose arrays would
    exceed physical memory is refused with :class:`TruncationError`
    before anything is allocated.  They count 64 d^2 bytes at
    d = n_max + 1, the most alive at once, in the sector loop: the
    kept-photon table and two sector rotations (8 d^2 each), the
    recurrence's raised copy and a product (8 d^2 each), numpy's buffers
    for adding into a strided view (up to 16 d^2, 128 KiB at most) and
    the vectors (about 150 d, within 8 d^2 from n_max = 18 on); building
    a splitter table before the loop takes 16 d^2.  Emits
    :class:`TruncationWarning` when the drive's weight at |n_max> reaches
    ``EDGE_TOL``: the network conserves the total photon number (ancilla
    included), so that is the population at total photon number n_max.
    """
    n_max = check_cutoff(params.alpha, n_max)
    d = n_max + 1
    what = "64 (n_max + 1)^2 for the kept-photon table, two sector rotations and their temporaries"
    check_memory(64 * d**2, f"n_max = {n_max} needs about", what, TruncationError)
    drive = np.abs(_coherent_amplitudes(params.alpha, n_max)) ** 2  # photon-number distribution
    if drive[-1] >= EDGE_TOL:
        warnings.warn(
            f"edge population {drive[-1]:.3e} at total photon number n_max = {n_max} "
            f"reaches {EDGE_TOL:.1e}; increase the cutoff",
            TruncationWarning,
            stacklevel=2,
        )
    photons = np.arange(d, dtype=float)
    probe_intensity, probe_second = np.stack([photons, photons**2]) @ _vacuum_split(drive, params.theta1)[1]
    # K[N]: each drive photon stays in mode a (cos^2), in the probe (sin^2 T^2) or is lost (sin^2 (1 - T^2))
    cos, sin = math.cos(params.theta1), math.sin(params.theta1)
    transmission, lost = math.exp(-params.kappa), math.sqrt(-math.expm1(-2.0 * params.kappa))
    survivors = _vacuum_split(drive, math.atan2(sin * lost, math.hypot(cos, sin * transmission)))[0]
    # û_N with no phase is the antidiagonal n_b = N - n_a of the table: N, N + n_max, .. N d flat
    table = _split_table(math.atan2(transmission * sin, cos), n_max).ravel()
    # exp(i phi n_a), the probe phase exp(-i phi (N - n_a)) but for its global exp(-i phi N), as (re, im)
    turns = np.exp(1j * params.phi * photons).view(np.float64).reshape(d, 2)
    signal = np.arange(n_max, -d, -1.0)  # n_b - n_a = N - 2 n_a: every other entry from n_max - N
    powers = np.stack([signal, signal**2])
    moments = np.empty((d, 2))  # each sector's mean and second moment of n_b - n_a
    for total, rotation in enumerate(_mixer_sectors(params.theta2, d)):
        parts = rotation @ (table[total : total * d + 1 : n_max, None] * turns[: total + 1])
        moments[total] = powers[:, n_max - total : n_max + total + 1 : 2] @ np.einsum("ij,ij->i", parts, parts)
    mean, second = survivors @ moments
    return SimulationMoments(
        mean_O=float(mean),
        std_O=math.sqrt(max(second - mean**2, 0.0)),
        probe_intensity=float(probe_intensity),
        probe_std=math.sqrt(max(probe_second - probe_intensity**2, 0.0)),
    )
