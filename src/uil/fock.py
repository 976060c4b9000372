"""Truncated Fock-space simulator of the interferometer.

Brute-force oracle for the closed forms in :mod:`uil.analytic`: states
are complex amplitudes over number states up to n_max photons, beam
splitters are exponentials of the quadratic mode generator, and
probe-arm attenuation is realized exactly as a beam splitter coupling
to a discarded vacuum ancilla (the non-unitary shortcut used by the
closed forms only works for coherent beams; the dilation works for any
state).

The drive holds at most n_max photons, and the splitter generator
conserves the total photon number of the two modes it couples, so no
state :func:`simulate` builds has weight beyond total photon number
n_max.  States are therefore held packed on that simplex, n_a + n_b
(+ n_anc) <= n_max, as flat vectors: C(n_max + 2, 2) amplitudes for the
two modes and C(n_max + 3, 3), about a sixth of the (n_max + 1)^3 box,
with the ancilla.  Each splitter is applied one sector of its two modes
at a time, to the d = n_max + 1 sectors N <= n_max: tridiagonal blocks
of size N + 1, diagonalized once per cutoff, gathered from the packed
vector and scattered back into it.  No d^2 x d^2 operator is ever
formed.

Truncation is surfaced, never hidden.  :func:`check_cutoff` is the one
rule for which cutoff holds a drive, and :func:`coherent_state`,
:func:`simulate` and ``uil verify`` (with its tolerance) all apply it;
coherent states are not renormalized.  :func:`simulate` also refuses a
cutoff whose states would exceed physical memory, and emits
:class:`TruncationWarning` when the drive puts weight on |n_max>, the
one photon number that the network carries unchanged to total n_max.
"""

from __future__ import annotations

import functools
import math
from numbers import Integral
import os
import sys
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


def _tail_limit(n: int, mean: float, alpha: complex, tol: float | None) -> float:
    """The Poisson weight that a drive of mean |alpha|^2 may leave beyond n.

    ``TAIL_TOL`` without ``tol``.  With it, the limit of a check of
    moments to within ``tol``: dropping the tail beyond n shifts the
    photon-number means by up to about n * tail and their standard
    deviations by up to about (n - |alpha|^2)^2 / (2 |alpha|) * tail.
    The larger shift must stay below ``tol``, and the tail within
    ``TAIL_TOL``; a tail below eps, which double precision cannot
    resolve, is never asked for.  The limit tightens as n grows, but
    slower than the tail falls.
    """
    if tol is None:
        return TAIL_TOL
    shift_per_tail = max(n, (n - mean) ** 2 / (2.0 * abs(alpha)))
    return min(TAIL_TOL, max(tol / shift_per_tail, sys.float_info.epsilon))


def check_cutoff(alpha: complex, n_max, tol: float | None = None) -> int:
    """The highest retained photon number per mode, checked to hold the drive ``alpha``.

    In order: ``n_max`` must be an integer >= 1 and |alpha|^2 finite,
    else ValueError.  Then, else :class:`TruncationError`: |alpha|^2 <=
    n_max (a drive beyond the cutoff leaves about half its Poisson
    weight or more there, refused without a search); the drive's
    amplitudes fit physical memory; and the Poisson weight beyond n_max
    is below :func:`_tail_limit`, ``TAIL_TOL`` or tighter with ``tol``.
    That last error names the smallest cutoff that fits,
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
    _check_memory(n_max, 16 * (n_max + 1), "16 (n_max + 1) for the drive alone")
    tail = _poisson_tail(n_max, mean)  # 0 for alpha = 0, where _tail_limit has no |alpha| to divide by
    if tail > 0.0 and tail >= (limit := _tail_limit(n_max, mean, alpha, tol)):
        needed = required_cutoff(alpha, tol)
        raise TruncationError(
            f"the Poisson weight {tail:.3e} of |alpha|^2 = {mean:.6g} beyond n_max = {n_max} "
            f"is not below {limit:.1e}; use n_max >= {needed}",
            required=needed,
        )
    return n_max


def required_cutoff(alpha: complex, tol: float | None = None) -> int:
    """Smallest n_max >= max(1, floor(|alpha|^2)) whose Poisson tail is below :func:`_tail_limit`.

    The tail falls faster with n_max than its limit does, so one search
    gallops up from the mean and then bisects.
    """
    mean = _photon_mean(alpha)
    if mean == 0.0:
        return 1
    start = max(1, int(mean))
    too_small, fits, step = start - 1, start, 1
    while _poisson_tail(fits, mean) >= _tail_limit(fits, mean, alpha, tol):
        too_small, fits, step = fits, fits + step, 2 * step
    while fits - too_small > 1:
        middle = (too_small + fits) // 2
        if _poisson_tail(middle, mean) >= _tail_limit(middle, mean, alpha, tol):
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


def coherent_state(alpha: complex, n_max: int) -> np.ndarray:
    """Number-basis amplitudes |0> .. |n_max> of a coherent state.

    Coefficients are exp(-|alpha|^2/2) * alpha^n / sqrt(n!), computed by
    the stable recurrence and deliberately *not* renormalized: the norm
    deficit is the truncation error.  The cutoff passes
    :func:`check_cutoff` first, the same check that :func:`simulate`
    and ``uil verify`` make: |alpha|^2 > n_max is refused at once, and a
    Poisson weight beyond n_max of ``TAIL_TOL`` or more raises
    :class:`TruncationError` naming the cutoff that fits.
    """
    return _coherent_amplitudes(alpha, check_cutoff(alpha, n_max))


class SimulationMoments(NamedTuple):
    mean_O: float
    std_O: float
    probe_intensity: float
    probe_std: float


@functools.lru_cache(maxsize=3)
def _splitter_sectors(dim: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """Eigensystems of the splitter generator G = a†b - ab†, one per sector.

    G conserves n_a + n_b, so on the sectors N = 0 .. n_max (n_max =
    dim - 1) it splits into dim blocks of size N + 1.  Within a sector G
    is tridiagonal with
    <n_a+1, n_b-1| G |n_a, n_b> = sqrt((n_a+1) n_b) = -<n_a, n_b| G |n_a+1, n_b-1>.
    With D = diag(i**n_a) the block equals -i D S D^-1 for the real
    symmetric S sharing its couplings, hence
    exp(theta G) = D V exp(-i theta Lambda) V^T D^-1 with S = V Lambda V^T.
    S is 2 J_x of a spin N/2, so Lambda is exactly -N, -N + 2, .., N;
    ``eigh`` supplies only V, in the same ascending order.

    Each sector is ``(n_a, n_b, untwist, values, V)``: its number states
    ascending in n_a, the column i**-n_a, and the eigenvalues and
    eigenvectors of S.
    """
    sectors = []
    for total in range(dim):
        n_a = np.arange(total + 1)
        coupling = np.sqrt((n_a[:-1] + 1.0) * (total - n_a[:-1]))
        vectors = np.linalg.eigh(np.diag(coupling, 1) + np.diag(coupling, -1))[1]
        values = np.arange(-total, total + 1, 2.0)
        untwist = np.array([1.0, -1.0j, -1.0, 1.0j])[n_a % 4, None]
        sectors.append((n_a, total - n_a, untwist, values, vectors))
    return tuple(sectors)


def _lossy_size(n_max: int) -> int:
    """C(n_max + 3, 3): the number states of three modes with n_a + n_b + n_anc <= n_max."""
    return (n_max + 1) * (n_max + 2) * (n_max + 3) // 6


class _Packing(NamedTuple):
    """Where each number state sits in the packed vectors of one cutoff.

    Both packings run over the sectors N = n_a + n_b ascending, and
    within a sector over n_a ascending: the two-mode vector holds one
    amplitude per (n_a, n_b), the lossy vector a row of n_max - N + 1,
    over n_anc = 0 .. n_max - N.  So each (a, b) sector is a contiguous
    (N + 1) x columns block of either vector.  :func:`_apply_beam_splitter`
    acts on the first axis only, so further packed states, such as a
    phase gradient, can ride along on a trailing axis.
    """

    numbers: np.ndarray  # (2, C(n_max + 2, 2)): n_a and n_b of each two-mode entry
    mixer: tuple[slice, ...]  # sector N of (a, b) in the two-mode vector
    lossy_mixer: tuple[slice, ...]  # sector N of (a, b) in the lossy vector
    loss: tuple[np.ndarray, ...]  # sector K of (probe, ancilla) in the lossy vector
    rows: np.ndarray  # start of each two-mode entry's row (n_anc = 0) in the lossy vector


@functools.lru_cache(maxsize=3)
def _packing(n_max: int) -> _Packing:
    """The packing of cutoff n_max.

    A loss sector K = n_probe + n_anc is gathered as an index array of
    K + 1 rows, n_probe ascending as the splitter's first mode, by
    n_max - K + 1 columns, the reference mode's photon number.
    """
    totals = np.arange(n_max + 2)
    pair_ends = totals * (totals + 1) // 2
    lossy_ends = np.concatenate(([0], np.cumsum(totals[1:] * (n_max + 2 - totals[1:]))))
    n_a = np.concatenate([np.arange(total + 1) for total in range(n_max + 1)])
    n_b = np.repeat(totals[:-1], totals[1:]) - n_a
    rows = lossy_ends[n_a + n_b] + n_a * (n_max + 1 - n_a - n_b)
    loss = []
    for total in range(n_max + 1):
        n_probe = np.arange(total + 1)[:, None]
        n_reference = np.arange(n_max + 1 - total)[None, :]
        n_pair = n_probe + n_reference
        first = n_reference if PROBE_MODE == 1 else n_probe
        loss.append(lossy_ends[n_pair] + first * (n_max + 1 - n_pair) + (total - n_probe))
    return _Packing(
        numbers=np.stack([n_a, n_b]),
        mixer=tuple(slice(*ends) for ends in zip(pair_ends[:-1], pair_ends[1:])),
        lossy_mixer=tuple(slice(*ends) for ends in zip(lossy_ends[:-1], lossy_ends[1:])),
        loss=tuple(loss),
        rows=rows,
    )


def _apply_beam_splitter(psi: np.ndarray, theta: float, blocks) -> None:
    """Apply the splitter exp(theta * (a†b - ab†)) to a packed state, in place.

    In the Heisenberg picture U† a U = cos(theta) a + sin(theta) b and
    U† b U = -sin(theta) a + cos(theta) b, i.e. mode amplitudes mix by
    the same 2x2 rotation as in the closed-form model.  ``blocks[N]``
    selects sector N of the mode pair from ``psi``'s first axis: a slice
    of N + 1 rows, or an index array of that many rows, each row one
    n_a (the splitter's first mode), ascending.  Each sector is
    gathered, multiplied by V^T, the phases and V, and scattered back,
    so besides the state only one sector's copy is held, and the
    largest operator used is d x d.

    Precondition: ``psi`` has no weight at n_a + n_b > n_max, which its
    packing cannot hold; :func:`simulate` meets it by construction, as
    its drive holds at most n_max photons and every splitter conserves
    their number.
    """
    for index, (n_a, _, untwist, values, vectors) in zip(blocks, _splitter_sectors(len(blocks))):
        block = psi[index]
        x = block.reshape(n_a.size, -1) * untwist
        # V is real: multiply the real and imaginary parts in one product
        y = (vectors.T @ x.view(np.float64)).view(complex) * np.exp(-1j * theta * values)[:, None]
        y = (vectors @ y.view(np.float64)).view(complex) * untwist.conj()
        psi[index] = y.reshape(block.shape)


def simulate(params: InterferometerParams, n_max: int) -> SimulationMoments:
    """Propagate the input state through the full network and measure.

    Pipeline: splitter(theta1), probe-arm statistics, probe phase,
    attenuation when kappa > 0, splitter(theta2), then mean and standard
    deviation of the detector difference signal n_b - n_a.  The
    attenuation appends a vacuum ancilla mode and couples the probe to
    it through a splitter of transmission cos(theta) = exp(-kappa); the
    moments of the original modes then follow the attenuated (trace
    preserving, completely positive) dynamics exactly, for any state.

    The cutoff passes :func:`check_cutoff`, and one whose three packed
    lossy states of 16 C(n_max + 3, 3) bytes would exceed physical
    memory is refused with :class:`TruncationError` before anything is
    allocated.  Emits :class:`TruncationWarning` when the drive's weight
    at |n_max> reaches ``EDGE_TOL``: the network conserves the total
    photon number (ancilla included), so that is the population at total
    photon number n_max, the edge of the retained states.
    """
    n_max = check_cutoff(params.alpha, n_max)
    # the state, the cached sector eigenvectors (about one state) and
    # loss indices (half of one): 2.7 states traced and 2.8 to 3.1 of
    # resident growth were measured on a first call at n_max 131 and 172
    _check_memory(
        n_max, 3 * 16 * _lossy_size(n_max), "three packed lossy states of 16 C(n_max + 3, 3) bytes"
    )
    drive = _coherent_amplitudes(params.alpha, n_max)
    leaked = abs(drive[-1]) ** 2
    if leaked >= EDGE_TOL:
        warnings.warn(
            f"edge population {leaked:.3e} at total photon number n_max = {n_max} "
            f"reaches {EDGE_TOL:.1e}; increase the cutoff",
            TruncationWarning,
            stacklevel=2,
        )
    packing = _packing(n_max)
    n_probe = packing.numbers[PROBE_MODE]
    psi = np.zeros(n_probe.size, dtype=complex)
    psi[packing.numbers[1 - INPUT_MODE] == 0] = drive  # the other input is vacuum

    _apply_beam_splitter(psi, params.theta1, packing.mixer)
    probabilities = np.abs(psi) ** 2
    probe_intensity = float(n_probe @ probabilities)
    probe_second = float((n_probe**2) @ probabilities)

    psi *= np.exp(-1j * params.phi * np.arange(n_max + 1))[n_probe]
    theta_loss = math.acos(math.exp(-params.kappa))
    if theta_loss > 0.0:
        lossy = np.zeros(_lossy_size(n_max), dtype=complex)
        lossy[packing.rows] = psi  # the ancilla starts in vacuum
        psi = lossy
        _apply_beam_splitter(psi, theta_loss, packing.loss)
        _apply_beam_splitter(psi, params.theta2, packing.lossy_mixer)
        # detector marginal: square the real and imaginary parts in
        # place; each row's sum of both traces the ancilla out
        parts = psi.view(np.float64)
        parts *= parts
        probabilities = np.add.reduceat(parts, 2 * packing.rows)
    else:
        _apply_beam_splitter(psi, params.theta2, packing.mixer)
        probabilities = np.abs(psi) ** 2
    weights = packing.numbers[1] - packing.numbers[0]  # n_b - n_a
    mean = float(weights @ probabilities)
    second = float((weights**2) @ probabilities)
    return SimulationMoments(
        mean_O=mean,
        std_O=math.sqrt(max(second - mean**2, 0.0)),
        probe_intensity=probe_intensity,
        probe_std=math.sqrt(max(probe_second - probe_intensity**2, 0.0)),
    )
