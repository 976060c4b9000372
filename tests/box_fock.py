"""Coherent states and the sector splitter on full boxes, for the Fock-engine tests.

:mod:`uil.fock` never holds a whole state: it streams the output
mixer's sectors.  Here a state is a plain array of any rank,
(n_max + 1) along each mode, so the tests can build states, apply
splitters and take marginals with ordinary indexing.  The splitter uses
the engine's sector rotations; the tests check it against the dense
generator of ``dense_fock`` and the streamed engine against it.
"""

from __future__ import annotations

import numpy as np

from uil.fock import _coherent_amplitudes, _mixer_sectors, check_cutoff


def coherent_state(alpha: complex, n_max: int) -> np.ndarray:
    """Number-basis amplitudes |0> .. |n_max> of a coherent state, not renormalized.

    The cutoff passes :func:`uil.fock.check_cutoff` first, as in
    :func:`uil.fock.simulate`: |alpha|^2 > n_max is refused at once,
    and a Poisson weight beyond n_max of ``TAIL_TOL`` or more raises
    ``TruncationError`` naming the cutoff that fits.
    """
    return _coherent_amplitudes(alpha, check_cutoff(alpha, n_max))


def apply_beam_splitter(psi: np.ndarray, theta: float, axes: tuple[int, int]) -> np.ndarray:
    """exp(theta * (a†b - ab†)) on two axes of a box state, returned as a new box.

    In the Heisenberg picture U† a U = cos(theta) a + sin(theta) b and
    U† b U = -sin(theta) a + cos(theta) b.  Each sector N = n_a + n_b is
    multiplied by its real rotation from :func:`uil.fock._mixer_sectors`.

    Precondition: ``psi`` has no weight at n_a + n_b > n_max along the
    pair; the result is zero there.
    """
    d = psi.shape[axes[0]]
    if psi.shape[axes[1]] != d:
        raise ValueError("both axes of the splitter pair must have equal dimension")
    out = np.zeros(psi.shape, dtype=complex)
    source = np.moveaxis(psi, axes, (0, 1))
    target = np.moveaxis(out, axes, (0, 1))
    for total, rotation in enumerate(_mixer_sectors(theta, d)):
        n_a = np.arange(total + 1)
        x = source[n_a, total - n_a].reshape(n_a.size, -1)
        target[n_a, total - n_a] = (rotation @ x).reshape(x.shape[:1] + source.shape[2:])
    return out
