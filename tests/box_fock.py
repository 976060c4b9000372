"""Coherent states and the rotation route on full boxes, for the Fock-engine tests.

:mod:`uil.fock` never holds a whole state: it carries one column per
photon-number sector.  Here a state is a plain array of any rank,
(n_max + 1) along each mode, so the tests can build states, apply
splitters and take marginals with ordinary indexing.  The splitter
multiplies each sector by its whole real rotation
(:func:`mixer_sectors`), a route the engine does not take; the tests
check it against the dense generator of ``dense_fock`` and the engine
against it.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from uil.fock import _coherent_amplitudes, check_cutoff


def coherent_state(alpha: complex, n_max: int) -> np.ndarray:
    """Number-basis amplitudes |0> .. |n_max> of a coherent state, not renormalized.

    The cutoff passes :func:`uil.fock.check_cutoff` first, as in
    :func:`uil.fock.simulate`: |alpha|^2 > n_max is refused at once,
    and a Poisson weight beyond n_max of ``TAIL_TOL`` or more raises
    ``TruncationError`` naming the cutoff that fits.  The engine's real
    amplitudes times e^(i n arg alpha), and 0 past the last of them.
    """
    moduli = _coherent_amplitudes(alpha, check_cutoff(alpha, n_max))
    state = np.zeros(n_max + 1, dtype=complex)
    state[: moduli.size] = moduli * np.exp(1j * np.angle(alpha) * np.arange(moduli.size))
    return state


def mixer_sectors(theta, dim: int) -> Iterator[np.ndarray]:
    """exp(theta G), G = a†b - ab†, on each sector N = 0 .. dim - 1, rows and columns n_a ascending.

    ``theta`` is a float or an array, whose shape leads each block's.
    Each block is real orthogonal, column n_a holding U|n_a, N - n_a>.
    As U sends a† to c a† - s b† and b† to s a† + c b† (c, s = cos, sin
    theta), each block follows from the one before in O(N^2), by the Fock form
    of Risbo's recursion for the Wigner d-functions:
    N U|n_a, n_b> = sqrt(n_a) (c a† - s b†) U|n_a - 1, n_b> + sqrt(n_b) (s a† + c b†) U|n_a, n_b - 1>.
    """
    theta = np.asarray(theta, dtype=float)[..., None, None]
    cos, sin = np.cos(theta), np.sin(theta)
    roots = np.sqrt(np.arange(1.0, dim))
    rotation = np.ones(theta.shape)
    yield rotation
    for total in range(1, dim):
        up, down = roots[:total], roots[total - 1 :: -1]  # sqrt(n_a + 1), sqrt(n_b + 1) for n_a < N
        cos_up, sin_up = (cos / total) * up, (sin / total) * up
        previous, rotation = rotation, np.zeros(theta.shape[:-2] + (total + 1, total + 1))
        raised = previous * up[:, None]  # a† on each column
        rotation[..., 1:, 1:] += raised * cos_up
        rotation[..., 1:, :-1] += raised * sin_up[..., ::-1]
        np.multiply(previous, down[:, None], out=raised)  # b† on each column
        rotation[..., :-1, 1:] -= raised * sin_up
        rotation[..., :-1, :-1] += raised * cos_up[..., ::-1]
        yield rotation


def apply_beam_splitter(psi: np.ndarray, theta: float, axes: tuple[int, int]) -> np.ndarray:
    """exp(theta * (a†b - ab†)) on two axes of a box state, returned as a new box.

    In the Heisenberg picture U† a U = cos(theta) a + sin(theta) b and
    U† b U = -sin(theta) a + cos(theta) b.  Each sector N = n_a + n_b is
    multiplied by its real rotation from :func:`mixer_sectors`.

    Precondition: ``psi`` has no weight at n_a + n_b > n_max along the
    pair; the result is zero there.
    """
    d = psi.shape[axes[0]]
    if psi.shape[axes[1]] != d:
        raise ValueError("both axes of the splitter pair must have equal dimension")
    out = np.zeros(psi.shape, dtype=complex)
    source = np.moveaxis(psi, axes, (0, 1))
    target = np.moveaxis(out, axes, (0, 1))
    for total, rotation in enumerate(mixer_sectors(theta, d)):
        n_a = np.arange(total + 1)
        x = source[n_a, total - n_a].reshape(n_a.size, -1)
        target[n_a, total - n_a] = (rotation @ x).reshape(x.shape[:1] + source.shape[2:])
    return out
