"""Truncated Fock-space simulator of the interferometer.

Brute-force oracle for the closed forms in :mod:`uil.analytic`: states
are complex amplitude arrays over number states ``|0> .. |n_max>`` per
mode, beam splitters are exponentials of the quadratic mode generator,
and probe-arm attenuation is realized exactly as a beam splitter
coupling to a discarded vacuum ancilla (the non-unitary shortcut used
by the closed forms only works for coherent beams; the dilation works
for any state).

The drive holds at most n_max photons, and the splitter generator
conserves the total photon number of the two modes it couples, so no
state :func:`simulate` builds has weight beyond total photon number
n_max.  Each splitter is applied one sector n_a + n_b = N at a time, and
only to the d = n_max + 1 sectors N <= n_max: tridiagonal blocks of size
N + 1, diagonalized once per cutoff.  No d^2 x d^2 operator is ever
formed.  Truncation is surfaced, never hidden: coherent states are not
renormalized, constructing one with too much Poisson weight beyond the
cutoff raises :class:`TruncationError`, and :func:`simulate` emits
:class:`TruncationWarning` when the drive puts weight on |n_max>, the
one photon number that the network carries unchanged to total n_max.
"""

from __future__ import annotations

import functools
import math
from numbers import Integral
from typing import NamedTuple
import warnings

import numpy as np

from .modes import INPUT_MODE, PROBE_MODE
from .params import InterferometerParams

TAIL_TOL = 1e-10  # Poisson weight a coherent state may leave beyond n_max
EDGE_TOL = 1e-8  # population at total photon number n_max at which simulate warns
_TAIL_BLOCK = 4096  # Poisson terms summed per numpy call

__all__ = [
    "TruncationError",
    "TruncationWarning",
    "SimulationMoments",
    "check_cutoff",
    "coherent_state",
    "photon_mean",
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


def check_cutoff(n_max) -> int:
    """The highest retained photon number per mode, checked: an integer >= 1."""
    if not isinstance(n_max, Integral) or n_max < 1:
        raise ValueError(f"n_max must be an integer >= 1, got {n_max!r}")
    return int(n_max)


def _poisson_tail(n: int, mean: float) -> float:
    """P(X > n) for X ~ Poisson(mean), summed from its terms.

    The terms p_k = exp(k log(mean) - mean - lgamma(k + 1)) are summed
    relative to the first, whose logarithm carries the scale, and away
    from the mode, so each is smaller than the one before: at or above
    the mean the tail p_{n+1} + p_{n+2} + ... itself, below it the head
    p_n + p_{n-1} + ... + p_0, whose complement is then a tail of about
    1/2 or more.  A small tail is never a difference of nearly equal
    numbers, and no term over- or underflows before it is negligible.
    """
    if mean == 0.0:
        return 0.0
    upward = n + 1 >= mean
    k = n + 1 if upward else n
    log_first = k * math.log(mean) - mean - math.lgamma(k + 1)
    term = total = 1.0  # relative to p_k
    while term > 1e-17 * total and (upward or k > 0):  # a block of terms at a time
        if upward:
            ratios = mean / np.arange(k + 1, k + 1 + _TAIL_BLOCK)
            k += _TAIL_BLOCK
        else:
            ratios = np.arange(k, max(k - _TAIL_BLOCK, 0), -1) / mean
            k = max(k - _TAIL_BLOCK, 0)
        terms = term * np.cumprod(ratios)
        total += float(terms.sum())
        term = float(terms[-1])
    mass = math.exp(log_first + math.log(total))
    return mass if upward else 1.0 - mass


def photon_mean(alpha: complex) -> float:
    """|alpha|^2; a ValueError where it exceeds the double range."""
    try:
        return abs(complex(alpha)) ** 2
    except OverflowError:
        raise ValueError(f"|alpha|^2 exceeds the double range, got alpha = {alpha!r}") from None


def required_cutoff(alpha: complex, tail_tol: float = TAIL_TOL) -> int:
    """Smallest n_max whose Poisson tail mass is below ``tail_tol``.

    The tail falls with n_max, so the search gallops up from the mean
    and then bisects.
    """
    mean = photon_mean(alpha)
    if mean == 0.0:
        return 1
    start = max(1, int(mean))
    too_small, fits, step = start - 1, start, 1
    while _poisson_tail(fits, mean) >= tail_tol:
        too_small, fits, step = fits, fits + step, 2 * step
    while fits - too_small > 1:
        middle = (too_small + fits) // 2
        if _poisson_tail(middle, mean) >= tail_tol:
            too_small = middle
        else:
            fits = middle
    return fits


def coherent_state(alpha: complex, n_max: int) -> np.ndarray:
    """Number-basis amplitudes |0> .. |n_max> of a coherent state.

    Coefficients are exp(-|alpha|^2/2) * alpha^n / sqrt(n!), computed by
    the stable recurrence and deliberately *not* renormalized: the norm
    deficit is the truncation error.  Raises :class:`TruncationError`
    when the Poisson weight beyond n_max reaches ``TAIL_TOL``.
    """
    n_max = check_cutoff(n_max)
    alpha = complex(alpha)
    mean = photon_mean(alpha)
    tail = _poisson_tail(n_max, mean)
    if tail >= TAIL_TOL:
        needed = required_cutoff(alpha)
        raise TruncationError(
            f"coherent state with |alpha|^2 = {mean:.6g} keeps tail mass "
            f"{tail:.3e} beyond n_max = {n_max} (tolerance {TAIL_TOL:.1e}); "
            f"use n_max >= {needed}",
            required=needed,
        )
    amplitudes = np.zeros(n_max + 1, dtype=complex)
    amplitudes[0] = math.exp(-0.5 * mean)
    for n in range(1, n_max + 1):
        amplitudes[n] = amplitudes[n - 1] * alpha / math.sqrt(n)
    return amplitudes


class SimulationMoments(NamedTuple):
    mean_O: float
    std_O: float
    probe_intensity: float
    probe_std: float


class _SplitterSectors(NamedTuple):
    """Splitter generator on the states n_a + n_b <= n_max, one sector at a time.

    ``n_a`` and ``n_b`` list those number states grouped by total
    photon number N = n_a + n_b and ascending in n_a within a sector;
    ``untwist`` (i**-n_a) and ``values`` run along them, and each entry
    of ``blocks`` pairs a sector's slice of them with the eigenvectors
    of its real symmetric coupling matrix.
    """

    n_a: np.ndarray
    n_b: np.ndarray
    untwist: np.ndarray
    values: np.ndarray
    blocks: tuple[tuple[slice, np.ndarray], ...]


@functools.lru_cache(maxsize=3)
def _splitter_sectors(dim: int) -> _SplitterSectors:
    """Eigensystems of the splitter generator G = a†b - ab†, one per sector.

    G conserves n_a + n_b, so on the sectors N = 0 .. n_max (n_max =
    dim - 1) it splits into dim blocks of size N + 1.  Within a sector G
    is tridiagonal with
    <n_a+1, n_b-1| G |n_a, n_b> = sqrt((n_a+1) n_b) = -<n_a, n_b| G |n_a+1, n_b-1>.
    With D = diag(i**n_a) the block equals -i D S D^-1 for the real
    symmetric S sharing its couplings, hence
    exp(theta G) = D V exp(-i theta Lambda) V^T D^-1 with S = V Lambda V^T.
    """
    n_a, n_b, values, blocks = [], [], [], []
    start = 0
    for total in range(dim):
        sector = np.arange(total + 1)
        coupling = np.sqrt((sector[:-1] + 1.0) * (total - sector[:-1]))
        evals, evecs = np.linalg.eigh(np.diag(coupling, 1) + np.diag(coupling, -1))
        n_a.append(sector)
        n_b.append(total - sector)
        values.append(evals)
        blocks.append((slice(start, start + sector.size), evecs))
        start += sector.size
    n_a, n_b = np.concatenate(n_a), np.concatenate(n_b)
    untwist = np.array([1.0, -1.0j, -1.0, 1.0j])[n_a % 4]
    return _SplitterSectors(n_a, n_b, untwist, np.concatenate(values), tuple(blocks))


def _apply_beam_splitter(
    psi: np.ndarray, theta: float, axes: tuple[int, int]
) -> np.ndarray:
    """Apply the splitter exp(theta * (a†b - ab†)) to two axes of a state.

    In the Heisenberg picture U† a U = cos(theta) a + sin(theta) b and
    U† b U = -sin(theta) a + cos(theta) b, i.e. mode amplitudes mix by
    the same 2x2 rotation as in the closed-form model.  Works for any
    state rank, one photon-number sector of the axis pair at a time:
    each sector is gathered from ``psi`` and scattered into the result,
    so besides the two states only one sector's slice is held, and the
    largest operator used is d x d.

    Precondition: ``psi`` has no weight at n_a + n_b > n_max (d = n_max
    + 1 along both axes).  Only the sectors N <= n_max are applied, and
    the result is zero beyond them.  :func:`simulate` meets this by
    construction: its drive holds at most n_max photons, and every
    splitter conserves their number.
    """
    d = psi.shape[axes[0]]
    if psi.shape[axes[1]] != d:
        raise ValueError("both axes of the splitter pair must have equal dimension")
    sectors = _splitter_sectors(d)
    out = np.zeros(psi.shape, dtype=complex)
    source = np.moveaxis(psi, axes, (0, 1))
    target = np.moveaxis(out, axes, (0, 1))
    rotation = np.exp(-1j * theta * sectors.values)[:, None]
    for rows, vectors in sectors.blocks:
        n_a, n_b, untwist = sectors.n_a[rows], sectors.n_b[rows], sectors.untwist[rows, None]
        x = source[n_a, n_b].reshape(n_a.size, -1) * untwist
        # V is real: multiply the real and imaginary parts in one product
        y = (vectors.T @ x.view(np.float64)).view(complex) * rotation[rows]
        y = (vectors @ y.view(np.float64)).view(complex) * untwist.conj()
        target[n_a, n_b] = y.reshape(x.shape[:1] + source.shape[2:])
    return out


def simulate(params: InterferometerParams, n_max: int) -> SimulationMoments:
    """Propagate the input state through the full network and measure.

    Pipeline: splitter(theta1), probe-arm statistics, probe phase,
    attenuation when kappa > 0, splitter(theta2), then mean and standard
    deviation of the detector difference signal n_b - n_a.  The
    attenuation appends a vacuum ancilla axis and couples the probe to it
    through a splitter of transmission cos(theta) = exp(-kappa); the
    moments of the original modes then follow the attenuated (trace
    preserving, completely positive) dynamics exactly, for any state.

    Emits :class:`TruncationWarning` when the drive's weight at |n_max>
    reaches ``EDGE_TOL``: the network conserves the total photon number
    (ancilla included), so that is the population at total photon number
    n_max, the edge of the retained states.
    """
    drive = coherent_state(params.alpha, n_max)
    d = drive.size
    leaked = abs(drive[-1]) ** 2
    if leaked >= EDGE_TOL:
        warnings.warn(
            f"edge population {leaked:.3e} at total photon number n_max = {d - 1} "
            f"reaches {EDGE_TOL:.1e}; increase the cutoff",
            TruncationWarning,
            stacklevel=2,
        )
    vacuum = np.zeros(d, dtype=complex)
    vacuum[0] = 1.0
    inputs = [vacuum, vacuum]
    inputs[INPUT_MODE] = drive
    psi = np.outer(inputs[0], inputs[1])

    psi = _apply_beam_splitter(psi, params.theta1, axes=(0, 1))
    numbers = np.arange(d, dtype=float)
    marginal = (np.abs(psi) ** 2).sum(axis=1 - PROBE_MODE)
    probe_intensity = float(numbers @ marginal)
    probe_second = float((numbers**2) @ marginal)

    phases = np.exp(-1j * params.phi * np.arange(d))
    psi = psi * (phases if PROBE_MODE == 1 else phases[:, None])
    if params.kappa > 0.0:
        # one name for the rank-3 state, so each splitter frees its input
        unattenuated, psi = psi, np.zeros(psi.shape + (d,), dtype=complex)
        psi[..., 0] = unattenuated
        theta_loss = math.acos(math.exp(-params.kappa))
        if theta_loss > 0.0:
            psi = _apply_beam_splitter(psi, theta_loss, axes=(PROBE_MODE, 2))
    psi = _apply_beam_splitter(psi, params.theta2, axes=(0, 1))

    # Detector marginal: the ancilla, if any, is traced out first.
    probabilities = (np.abs(psi) ** 2).sum(axis=tuple(range(2, psi.ndim)))
    weights = numbers[None, :] - numbers[:, None]  # n_b - n_a
    mean = float((weights * probabilities).sum())
    second = float((weights**2 * probabilities).sum())
    return SimulationMoments(
        mean_O=mean,
        std_O=math.sqrt(max(second - mean**2, 0.0)),
        probe_intensity=probe_intensity,
        probe_std=math.sqrt(max(probe_second - probe_intensity**2, 0.0)),
    )
