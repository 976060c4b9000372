"""Splitting-angle optimization for the performance ratios.

Three constraint regimes are supported: fully free splitting angles,
one shared splitter angle (the Michelson-style reuse case), and a
balanced output mixer with only the input splitter free.  The search is
a coarse grid scan followed by golden-section refinement, which is
deterministic and immune to the |sin| kinks of the objectives.

The interesting suprema of these ratios often sit on the boundary of
vanishing probe illumination.  Those are never reported as interior
maxima: the report carries an explicit boundary flag with the limit
value, and an unbounded flag when the objective diverges there.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .analytic import fluctuation_ratio_values, intensity_ratio_values

DEFAULT_GRID_POINTS = 721  # 0.125 degree spacing over a quarter turn
DEFAULT_TOL = 1e-8
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_BOUNDARY_PROBES = (1e-4, 1e-6, 1e-8)

OBJECTIVES = ("rho_fluctuation", "rho_intensity")
REGIME_KINDS = ("free", "equal_splitters", "fixed_mixer")

__all__ = [
    "ConstraintRegime",
    "OptimumReport",
    "optimize",
    "OBJECTIVES",
    "REGIME_KINDS",
    "DEFAULT_GRID_POINTS",
    "DEFAULT_TOL",
]


@dataclass(frozen=True)
class ConstraintRegime:
    """Which angles are free, at what loss, and at what operating phase.

    ``phi = None`` leaves the operating phase free (it is then optimized
    alongside the angles); otherwise it is held fixed.
    """

    kind: str
    kappa: float = 0.0
    phi: float | None = math.pi / 2

    def __post_init__(self) -> None:
        if self.kind not in REGIME_KINDS:
            raise ValueError(f"regime kind must be one of {REGIME_KINDS}, got {self.kind!r}")
        if not (math.isfinite(self.kappa) and self.kappa >= 0.0):
            raise ValueError(f"kappa must be finite and >= 0, got {self.kappa!r}")


@dataclass(frozen=True)
class OptimumReport:
    """Outcome of one optimization run.

    ``boundary_supremum`` marks a supremum approached at vanishing input
    splitting (reported with theta1 = 0 and the limit value);
    ``unbounded`` additionally marks objectives that grow without bound
    there.  The achieved value is never below any evaluated point.
    """

    objective: str
    regime: str
    kappa: float
    eta: float
    alpha_abs: float
    theta1: float
    theta2: float
    phi: float
    value: float
    n_evaluations: int
    bracket_tol: float
    boundary_supremum: bool = False
    unbounded: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


class _CountingObjective:
    """Ratio evaluator over free coordinates, with an evaluation counter."""

    def __init__(self, objective: str, regime: ConstraintRegime, eta: float, alpha_abs: float):
        if objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
        self.objective = objective
        self.regime = regime
        self.eta = eta
        self.alpha_abs = alpha_abs
        self.calls = 0

    def coord_names(self) -> list[str]:
        names = {
            "equal_splitters": ["theta"],
            "fixed_mixer": ["theta1"],
            "free": ["theta1", "theta2"],
        }[self.regime.kind]
        if self.regime.phi is None:
            names = names + ["phi"]
        return names

    def coord_domain(self, name: str) -> tuple[float, float]:
        return (0.0, math.pi) if name == "phi" else (0.0, math.pi / 2.0)

    def angles_from_coords(self, coords: dict) -> tuple:
        if self.regime.kind == "equal_splitters":
            theta1 = theta2 = coords["theta"]
        elif self.regime.kind == "fixed_mixer":
            theta1, theta2 = coords["theta1"], math.pi / 4.0
        else:
            theta1, theta2 = coords["theta1"], coords["theta2"]
        phi = coords["phi"] if self.regime.phi is None else self.regime.phi
        return theta1, theta2, phi

    def __call__(self, coords: dict):
        theta1, theta2, phi = self.angles_from_coords(coords)
        self.calls += int(np.broadcast(theta1, theta2, phi).size)
        if self.objective == "rho_fluctuation":
            return fluctuation_ratio_values(theta1, theta2, phi, self.regime.kappa, self.eta)
        return intensity_ratio_values(
            theta1, theta2, phi, self.regime.kappa, self.eta, self.alpha_abs
        )


def _golden_max(f1d, lo: float, hi: float, tol: float, seed: tuple[float, float]):
    """Golden-section maximization on [lo, hi] down to bracket width tol.

    Returns the best (x, value) ever evaluated, seeded with a known
    point so refinement can only improve on the grid scan.  Ties keep
    the smaller coordinate.
    """
    best_x, best_val = seed

    def consider(x: float, val: float) -> None:
        nonlocal best_x, best_val
        if val > best_val or (val == best_val and x < best_x):
            best_x, best_val = x, val

    span = hi - lo
    c = hi - _INV_GOLDEN * span
    d = lo + _INV_GOLDEN * span
    fc, fd = f1d(c), f1d(d)
    consider(c, fc)
    consider(d, fd)
    while hi - lo > tol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_GOLDEN * (hi - lo)
            fc = f1d(c)
            consider(c, fc)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_GOLDEN * (hi - lo)
            fd = f1d(d)
            consider(d, fd)
    return best_x, best_val


def _refine(objective: _CountingObjective, coords: dict, value: float, step: dict, tol: float):
    """Cyclic per-coordinate golden-section refinement around a grid point."""
    coords = dict(coords)
    for _ in range(3):
        for name in objective.coord_names():
            lo_dom, hi_dom = objective.coord_domain(name)
            lo = max(lo_dom, coords[name] - step[name])
            hi = min(hi_dom, coords[name] + step[name])

            def f1d(x, _name=name):
                probe = dict(coords)
                probe[_name] = x
                return float(objective(probe))

            coords[name], value = _golden_max(f1d, lo, hi, tol, (coords[name], value))
    return coords, value


def optimize(
    objective: str,
    regime: ConstraintRegime,
    tol: float = DEFAULT_TOL,
    grid_points: int = DEFAULT_GRID_POINTS,
    alpha: complex = 1.0 + 0.0j,
    eta: float = 1.0,
) -> OptimumReport:
    """Maximize a performance ratio over the regime's free coordinates.

    Coarse scan on ``grid_points`` nodes per free coordinate, then
    golden-section refinement of the winning bracket until its width is
    below ``tol``.  Deterministic for fixed inputs; ties resolve to the
    lexicographically smallest coordinates.  When three coordinates are
    free the scan resolution is reduced (refinement restores precision).
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    f = _CountingObjective(objective, regime, eta, abs(alpha))
    names = f.coord_names()
    per_axis = grid_points if len(names) <= 2 else min(grid_points, 181)
    grids = {
        name: np.linspace(*f.coord_domain(name), per_axis) for name in names
    }
    # Sparse axes: the kernels broadcast them, so only the objective
    # values span the whole grid.
    meshes = np.meshgrid(*(grids[name] for name in names), indexing="ij", sparse=True)
    values = np.asarray(f({name: mesh for name, mesh in zip(names, meshes)}))

    flat_index = int(np.argmax(values))  # first occurrence = lexicographic smallest
    multi_index = np.unravel_index(flat_index, values.shape)
    coords = {name: float(grids[name][i]) for name, i in zip(names, multi_index)}
    step = {
        name: float(grids[name][1] - grids[name][0]) for name in names
    }
    interior_coords, interior_value = _refine(
        f, coords, float(values[multi_index]), step, tol
    )

    # The supremum may sit at vanishing input splitting.  Probe it with
    # the remaining coordinates re-optimized near the boundary.
    probe_name = names[0]  # theta or theta1
    boundary_coords = dict(interior_coords)
    probe_values = []
    for probe in _BOUNDARY_PROBES:
        boundary_coords[probe_name] = probe
        if len(names) > 1:
            frozen = dict(step)
            frozen[probe_name] = 0.0
            boundary_coords, _ = _refine(
                f, boundary_coords, float(f(boundary_coords)), frozen, tol
            )
        probe_values.append(float(f(boundary_coords)))

    diverging = all(
        later > 10.0 * earlier for earlier, later in zip(probe_values, probe_values[1:])
    ) and probe_values[-1] > 0.0
    limit_value = probe_values[-1]
    hugging_boundary = interior_coords[probe_name] <= tol

    boundary = False
    unbounded = False
    if diverging:
        boundary = unbounded = True
        value = math.inf
        coords = dict(boundary_coords, **{probe_name: 0.0})
    elif limit_value > interior_value or hugging_boundary:
        boundary = True
        value = max(limit_value, interior_value)
        coords = dict(boundary_coords, **{probe_name: 0.0})
    else:
        value = interior_value
        coords = interior_coords

    theta1, theta2, phi = f.angles_from_coords(coords)
    return OptimumReport(
        objective=objective,
        regime=regime.kind,
        kappa=regime.kappa,
        eta=eta,
        alpha_abs=abs(alpha),
        theta1=float(theta1),
        theta2=float(theta2),
        phi=float(phi),
        value=float(value),
        n_evaluations=f.calls,
        bracket_tol=tol,
        boundary_supremum=boundary,
        unbounded=unbounded,
    )
