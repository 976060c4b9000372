"""Dense two-mode reference operators for the Fock-engine tests.

Every operator here is a full matrix on the d^2-dimensional two-mode
basis (index n_a * d + n_b, d = n_max + 1).  They are far too large for
production cutoffs but simple enough to trust, so the tests use them at
small cutoffs as the reference for the sector splitter of :mod:`uil.fock`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from uil.modes import PROBE_MODE


def mode_operators(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Single-mode annihilation and creation matrices (a|n> = sqrt(n)|n-1>)."""
    d = n_max + 1
    lowering = np.diag(np.sqrt(np.arange(1, d, dtype=float)), k=1).astype(complex)
    return lowering, lowering.conj().T


def number_operator(n_max: int) -> np.ndarray:
    d = n_max + 1
    return np.diag(np.arange(d, dtype=float)).astype(complex)


def splitter_generator(n_max: int) -> np.ndarray:
    """Dense anti-Hermitian splitter generator a†b - ab† on the box."""
    d = n_max + 1
    lowering, _ = mode_operators(n_max)
    eye = np.eye(d, dtype=complex)
    mode_a = np.kron(lowering, eye)
    mode_b = np.kron(eye, lowering)
    return mode_a.conj().T @ mode_b - mode_a @ mode_b.conj().T


@dataclass(frozen=True)
class ModeOperatorMatrix:
    """Operator on the truncated basis, tagged with what it represents.

    ``entries`` is either a d^2 x d^2 two-mode matrix or a d x d
    single-mode factor together with the acting ``mode``.  Matrices of
    kind ``unitary`` must pass the unitarity check on construction.
    """

    entries: np.ndarray
    kind: str
    mode: int | None = None

    _KINDS = frozenset({"annihilation", "creation", "number", "unitary", "general"})

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.kind == "unitary" and self.unitarity_defect() >= 1e-12:
            raise ValueError(
                f"matrix tagged unitary has unitarity defect {self.unitarity_defect():.3e}"
            )

    def unitarity_defect(self) -> float:
        m = self.entries
        return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))


@dataclass(frozen=True)
class TwoModeState:
    """Pure state of the two interferometer modes.

    ``amplitudes`` has length d^2, indexed by n_a * d + n_b (mode a =
    reference arm first, mode b = probe arm second).
    """

    amplitudes: np.ndarray
    n_max: int

    def __post_init__(self) -> None:
        if self.amplitudes.shape != ((self.n_max + 1) ** 2,):
            raise ValueError(
                f"amplitude vector must have length {(self.n_max + 1) ** 2}, "
                f"got shape {self.amplitudes.shape}"
            )

    @classmethod
    def from_single_modes(
        cls, mode_a: np.ndarray, mode_b: np.ndarray, n_max: int
    ) -> "TwoModeState":
        if mode_a.shape != (n_max + 1,) or mode_b.shape != (n_max + 1,):
            raise ValueError("single-mode vectors do not match the cutoff dimension")
        return cls(np.outer(mode_a, mode_b).ravel(), n_max)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def as_matrix(self) -> np.ndarray:
        d = self.n_max + 1
        return self.amplitudes.reshape(d, d)

    def apply(self, unitary: np.ndarray) -> "TwoModeState":
        return TwoModeState(unitary @ self.amplitudes, self.n_max)

    def expectation(self, operator: np.ndarray) -> complex:
        return complex(self.amplitudes.conj() @ (operator @ self.amplitudes))


@functools.lru_cache(maxsize=3)
def _splitter_eigensystem(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystem of the Hermitian generator H = i(a†b - ab†), dense."""
    return np.linalg.eigh(1j * splitter_generator(n_max))


def beam_splitter_unitary(theta: float, n_max: int) -> np.ndarray:
    """Dense two-mode splitter unitary exp(theta * (a†b - ab†)).

    In the Heisenberg picture U† a U = cos(theta) a + sin(theta) b and
    U† b U = -sin(theta) a + cos(theta) b, i.e. mode amplitudes mix by
    the same 2x2 rotation as in the closed-form model.
    """
    if not math.isfinite(theta):
        raise ValueError(f"mixing angle must be finite, got {theta!r}")
    evals, evecs = _splitter_eigensystem(n_max)
    return (evecs * np.exp(-1j * theta * evals)) @ evecs.conj().T


def phase_unitary(
    phi: float, n_max: int, mode: int = PROBE_MODE
) -> np.ndarray:
    """Dense two-mode unitary exp(-i*phi*n) on one mode (probe by default).

    Diagonal in the number basis; sends a coherent amplitude beta to
    exp(-i*phi)*beta.
    """
    d = n_max + 1
    numbers = np.arange(d, dtype=float)
    occupation = {0: np.repeat(numbers, d), 1: np.tile(numbers, d)}[mode]
    return np.diag(np.exp(-1j * phi * occupation))


def difference_observable(n_max: int) -> np.ndarray:
    """Dense photon-number difference n_b - n_a on the two-mode basis."""
    d = n_max + 1
    number = number_operator(n_max)
    eye = np.eye(d, dtype=complex)
    return np.kron(eye, number) - np.kron(number, eye)
