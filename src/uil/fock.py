"""Truncated Fock-space simulator of the interferometer.

Brute-force oracle for the closed forms in :mod:`uil.analytic`: states
are complex amplitudes over number states up to n_max photons, beam
splitters are exponentials of the quadratic mode generator, and
probe-arm attenuation is realized exactly as a beam splitter coupling
to a discarded vacuum ancilla (the non-unitary shortcut used by the
closed forms only works for coherent beams; the dilation works for any
state).

:func:`simulate` never holds the three-mode state.  The input splitter
and the loss splitter each meet a number state with vacuum, which splits
binomially into one column of the splitter (:func:`_split_table`).  So
the state before the output mixer is a product of the drive, those two
tables and the probe phase, and :func:`simulate` builds it one mixer
sector N = n_a + n_b at a time: a block of N + 1 rows n_a by one column
per ancilla photon number, turned by the sector's real rotation
(:func:`_mixer_sectors`, each from the one before) and reduced at once
to the detector marginal.  Nothing is cached, no d^2 x d^2 operator is
formed, and only O(n_max^2) numbers are held.

Truncation is surfaced, never hidden.  :func:`check_cutoff` is the one
rule for which cutoff holds a drive, and :func:`simulate` and
``uil verify`` (with its tolerance) both apply it; coherent states are
not renormalized.  :func:`simulate` also refuses a cutoff whose arrays
would exceed physical memory, and emits
:class:`TruncationWarning` when the drive puts weight on |n_max>, the
one photon number that the network carries unchanged to total n_max.
"""

from __future__ import annotations

import math
from numbers import Integral
import os
import sys
from typing import Iterator, NamedTuple
import warnings

import numpy as np

from .params import InterferometerParams

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


def _physical_memory_bytes() -> int | None:
    """Installed memory, or None where the system does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf, or the names are unknown
        return None


def _check_memory(n_max: int, needed: int, what: str) -> None:
    """Refuse a cutoff whose arrays, ``needed`` bytes, exceed physical memory."""
    memory = _physical_memory_bytes()
    if memory is not None and needed > memory:
        raise TruncationError(
            f"n_max = {n_max} needs about {needed} bytes, {what}, "
            f"more than the {memory} bytes of physical memory"
        )


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
    _check_memory(n_max, 16 * (n_max + 1), "16 (n_max + 1) for the drive alone")
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
    """exp(-|alpha|^2/2) alpha^n / sqrt(n!) for n = 0 .. n_max, by the stable recurrence."""
    alpha = complex(alpha)
    amplitudes = np.zeros(n_max + 1, dtype=complex)
    amplitudes[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, n_max + 1):
        amplitudes[n] = amplitudes[n - 1] * alpha / math.sqrt(n)
    return amplitudes


class SimulationMoments(NamedTuple):
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


def simulate(params: InterferometerParams, n_max: int) -> SimulationMoments:
    """Propagate the input state through the full network and measure.

    Pipeline: splitter(theta1), probe-arm statistics, probe phase,
    attenuation, splitter(theta2), then mean and standard deviation of
    the detector difference signal n_b - n_a.  The attenuation couples
    the probe to a vacuum ancilla through a splitter of transmission
    cos(theta) = exp(-kappa); the moments of the original modes then
    follow the attenuated (trace preserving, completely positive)
    dynamics exactly, for any state.  The drive enters mode a with
    vacuum in mode b, and the output mixer's sectors N = n_a + n_b are
    streamed as the module describes: each a block of one row per n_a
    and one column per ancilla photon number n_anc = 0 .. n_max - N (one
    where acos(exp(-kappa)) is 0), turned by the rotation that
    :func:`_mixer_sectors` builds from the sector before.

    The cutoff passes :func:`check_cutoff`, and one whose arrays, 72 d^2
    + 8 (d + 1)^2 bytes at d = n_max + 1, would exceed physical memory
    is refused with :class:`TruncationError` before anything is
    allocated.  Emits :class:`TruncationWarning` when the drive's weight
    at |n_max> reaches ``EDGE_TOL``: the network conserves the total
    photon number (ancilla included), so that is the population at total
    photon number n_max, the edge of the retained states.
    """
    n_max = check_cutoff(params.alpha, n_max)
    d = n_max + 1
    # d x d: the complex mixer input, two splitter tables, two sector rotations and
    # three temporaries; the largest block, N = n_max // 2, and its parts: (d + 1)^2 / 2
    what = "72 (n_max + 1)^2 for the mixer input, splitter tables and sector rotations, 8 (n_max + 2)^2 for a block"
    _check_memory(n_max, 72 * d**2 + 8 * (d + 1) ** 2, what)
    drive = _coherent_amplitudes(params.alpha, n_max)
    leaked = abs(drive[-1]) ** 2
    if leaked >= EDGE_TOL:
        warnings.warn(
            f"edge population {leaked:.3e} at total photon number n_max = {n_max} "
            f"reaches {EDGE_TOL:.1e}; increase the cutoff",
            TruncationWarning,
            stacklevel=2,
        )
    # the two-mode state after the input splitter, sector by sector
    totals, n_a = np.tril_indices(d)
    n_b = totals - n_a  # the probe
    amplitudes = drive[totals] * _split_table(params.theta1, n_max)[n_a, n_b]
    probabilities = np.abs(amplitudes) ** 2
    probe_intensity = float(n_b @ probabilities)
    probe_second = float((n_b**2) @ probabilities)

    # rows n_a, columns n_a + n_b, so that the probe photons a sector's
    # block keeps and those it loses to the ancilla are a slice; with the
    # probe phase
    split = np.zeros((d, d), dtype=complex)
    phase = np.exp(-1j * params.phi * np.arange(d))
    split[n_a, totals] = amplitudes * phase[n_b]
    del totals, n_a, n_b, amplitudes, probabilities  # only split and the tables below stay
    theta_loss = math.acos(math.exp(-params.kappa))
    loss = _split_table(theta_loss, n_max)  # rows the probe photons kept, columns those lost
    mean = second = 0.0
    for total, rotation in enumerate(_mixer_sectors(params.theta2, d)):
        columns = d - total if theta_loss > 0.0 else 1
        # row n_a, column n_anc: the probe keeps total - n_a of its total - n_a + n_anc photons
        block = split[: total + 1, total : total + columns] * loss[total::-1, :columns]
        # the rotation is real: mix the real and imaginary parts in one product
        parts = rotation @ block.view(np.float64)
        # the detector marginal: each row's squared parts summed trace the ancilla out
        marginal = np.einsum("ij,ij->i", parts, parts)
        weights = total - 2.0 * np.arange(total + 1)  # n_b - n_a
        mean += float(weights @ marginal)
        second += float((weights**2) @ marginal)
    return SimulationMoments(
        mean_O=mean,
        std_O=math.sqrt(max(second - mean**2, 0.0)),
        probe_intensity=probe_intensity,
        probe_std=math.sqrt(max(probe_second - probe_intensity**2, 0.0)),
    )
