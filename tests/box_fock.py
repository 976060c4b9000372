"""The sector splitter on full boxes, one axis per mode, for the Fock-engine tests.

:mod:`uil.fock` holds its states packed on the photon-number simplex.
Here a state is a plain array of any rank, (n_max + 1) along each mode,
so the tests can build states, apply splitters and take marginals with
ordinary indexing.  The splitter uses the engine's sector eigensystems;
the tests check it against the dense generator of ``dense_fock`` and
the packed engine against it.
"""

from __future__ import annotations

import numpy as np

from uil.fock import _packing, _splitter_sectors


def apply_beam_splitter(psi: np.ndarray, theta: float, axes: tuple[int, int]) -> np.ndarray:
    """exp(theta * (a†b - ab†)) on two axes of a box state, returned as a new box.

    Precondition: ``psi`` has no weight at n_a + n_b > n_max along the
    pair; the result is zero there.
    """
    d = psi.shape[axes[0]]
    if psi.shape[axes[1]] != d:
        raise ValueError("both axes of the splitter pair must have equal dimension")
    out = np.zeros(psi.shape, dtype=complex)
    source = np.moveaxis(psi, axes, (0, 1))
    target = np.moveaxis(out, axes, (0, 1))
    for n_a, n_b, untwist, values, vectors in _splitter_sectors(d):
        x = source[n_a, n_b].reshape(n_a.size, -1) * untwist
        y = (vectors.T @ x) * np.exp(-1j * theta * values)[:, None]
        y = (vectors @ y) * untwist.conj()
        target[n_a, n_b] = y.reshape(x.shape[:1] + source.shape[2:])
    return out


def unpack(psi: np.ndarray, n_max: int) -> np.ndarray:
    """The box of a packed state: axes (n_a, n_b), then n_anc for a lossy state,
    then ``psi``'s trailing axes."""
    packing = _packing(n_max)
    n_a, n_b = packing.numbers
    d = n_max + 1
    if psi.shape[0] == n_a.size:
        box = np.zeros((d, d) + psi.shape[1:], dtype=complex)
        box[n_a, n_b] = psi
        return box
    box = np.zeros((d, d, d) + psi.shape[1:], dtype=complex)
    for n_anc in range(d):
        kept = n_a + n_b + n_anc <= n_max
        box[n_a[kept], n_b[kept], n_anc] = psi[packing.rows[kept] + n_anc]
    return box
